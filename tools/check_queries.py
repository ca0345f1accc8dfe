"""Local mimic of the driver's correctness gate: run every queries()
entry at a given sf_dir, run its oracle_sql() in DuckDB over the same
parquet tables, compare row count + column names + order-insensitive
value hash. The summary line also gives the summed wall of the queries
run (query calls only; oracle SQL and comparison excluded).
Usage: python tools/check_queries.py [sf_dir] [name1,name2,...]
"""

from __future__ import annotations

import hashlib
import sys
import time

sys.path.insert(0, ".")

TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon_hash(df):
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1)
    # canonical stringification, order-insensitive: sort rows
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False))
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = e.queries(), e.oracle_sql()
    only = sys.argv[2].split(",") if len(sys.argv) > 2 else None
    n_pass = n_fail = 0
    wall = 0.0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        finally:
            dt = time.monotonic() - t0
            wall += dt
        if name not in oracles:
            print(f"ok?  {name}: rows-only, {len(mine)} rows  ({dt:.1f}s)")
            n_pass += 1
            continue
        theirs = con.sql(oracles[name]).df()
        probs = []
        if len(mine) != len(theirs):
            probs.append(f"rows {len(mine)} vs {len(theirs)}")
        if sorted(mine.columns) != sorted(theirs.columns):
            probs.append(f"cols {sorted(mine.columns)} vs {sorted(theirs.columns)}")
        elif canon_hash(mine) != canon_hash(theirs):
            probs.append("value-hash mismatch")
        if probs:
            print(f"FAIL {name}: {'; '.join(probs)}  ({dt:.1f}s)")
            if "value-hash mismatch" in probs:
                m = mine.reindex(sorted(mine.columns), axis=1)
                t = theirs.reindex(sorted(theirs.columns), axis=1)
                sc = list(m.columns)
                m = m.sort_values(sc).reset_index(drop=True)
                t = t.sort_values(sc).reset_index(drop=True)
                neq = (m.astype(str) != t.astype(str)).any(axis=1)
                print(m[neq].head(3))
                print(t[neq].head(3))
            n_fail += 1
        else:
            print(f"PASS {name}: {len(mine)} rows  ({dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail, query wall {wall:.1f}s")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
