"""cogroup_join semantics vs a sequential oracle."""

import ray.data as rd

from skosconverter_ray.stages.joinutil import cogroup_join


def _sides():
    left = [{"k": i % 7, "lv": i} for i in range(40)]
    right = [{"rk": k, "rv": f"r{k}"} for k in (0, 1, 2, 3, 9)]
    return left, right


def test_inner_join(ray_session):
    left, right = _sides()
    out = cogroup_join(rd.from_items(left), rd.from_items(right),
                       left_on="k", right_on="rk", num_buckets=4)
    rows = out.take_all()
    expect = [(l["k"], l["lv"], f"r{l['k']}")
              for l in left if l["k"] in (0, 1, 2, 3)]
    got = [(r["k"], r["lv"], r["rv"]) for r in rows]
    assert sorted(got) == sorted(expect)
    # key echo: right key column carries the join key
    assert all(r["rk"] == r["k"] for r in rows)


def test_left_outer_join(ray_session):
    left, right = _sides()
    out = cogroup_join(rd.from_items(left), rd.from_items(right),
                       left_on="k", right_on="rk", num_buckets=4,
                       join_type="left outer")
    rows = out.take_all()
    assert len(rows) == len(left)
    unmatched = [r for r in rows if r["k"] in (4, 5, 6)]
    assert unmatched and all(r["rv"] is None for r in unmatched)
    # unmatched rows carry a NULL right key (standard outer-join
    # output), never an echo of the left key
    assert all(r["rk"] is None for r in unmatched)
    matched = [r for r in rows if r["k"] not in (4, 5, 6)]
    assert all(r["rk"] == r["k"] for r in matched)


def test_bucket_invariance(ray_session):
    left, right = _sides()

    def run(b):
        out = cogroup_join(rd.from_items(left), rd.from_items(right),
                           left_on="k", right_on="rk", num_buckets=b)
        return sorted((r["k"], r["lv"], r["rv"]) for r in out.take_all())

    assert run(1) == run(16)


def test_anti_join_skewed(ray_session):
    # skewed: key 0 dominates the right side; anti keeps only
    # left keys absent from the right — decided per bucket, no
    # driver-collected key set (VERDICT r02 item 3)
    left = [{"k": i, "lv": i * 10} for i in range(50)]
    right = ([{"rk": 0, "rv": "hot"}] * 500
             + [{"rk": k, "rv": "c"} for k in range(0, 50, 2)])
    out = cogroup_join(rd.from_items(left), rd.from_items(right),
                       left_on="k", right_on="rk", num_buckets=4,
                       join_type="left anti")
    rows = out.take_all()
    assert sorted(r["k"] for r in rows) == list(range(1, 50, 2))
    # anti output is left columns only, one row per surviving left row
    assert all(set(r) == {"k", "lv"} for r in rows)


def test_semi_join(ray_session):
    left = [{"k": i % 7, "lv": i} for i in range(40)]
    right = [{"rk": k, "rv": "x"} for k in (1, 3)] * 3  # dup right rows
    out = cogroup_join(rd.from_items(left), rd.from_items(right),
                       left_on="k", right_on="rk", num_buckets=4,
                       join_type="left semi")
    rows = out.take_all()
    expect = sorted((l["k"], l["lv"]) for l in left if l["k"] in (1, 3))
    # semi never duplicates left rows even with duplicate right keys
    assert sorted((r["k"], r["lv"]) for r in rows) == expect


def test_anti_join_empty_right(ray_session):
    import pyarrow as pa

    left = [{"k": i, "lv": i} for i in range(10)]
    out = cogroup_join(
        rd.from_items(left),
        rd.from_items([{"rk": 1, "rv": "x"}]).filter(lambda r: False),
        left_on="k", right_on="rk", num_buckets=4, join_type="left anti",
        left_schema=pa.schema([("k", pa.int64()), ("lv", pa.int64())]),
        right_schema=pa.schema([("rk", pa.int64()), ("rv", pa.string())]))
    assert sorted(r["k"] for r in out.take_all()) == list(range(10))


def test_key_dtype_mismatch_raises(ray_session):
    import pyarrow as pa
    import pytest

    with pytest.raises(ValueError, match="dtype mismatch"):
        cogroup_join(
            rd.from_items([{"k": 1}]), rd.from_items([{"rk": 1}]),
            left_on="k", right_on="rk", num_buckets=2,
            left_schema=pa.schema([("k", pa.int64())]),
            right_schema=pa.schema([("rk", pa.int32())]))


def test_full_outer_join(ray_session):
    import pyarrow.compute as pc

    left = rd.from_items([{"k": 1, "a": "l1"}, {"k": 2, "a": "l2"},
                          {"k": 3, "a": "l3"}])
    right = rd.from_items([{"rk": 2, "b": "r2"}, {"rk": 3, "b": "r3"},
                           {"rk": 4, "b": "r4"}, {"rk": 5, "b": "r5"}])
    out = cogroup_join(left, right, left_on="k", right_on="rk",
                       join_type="full outer", num_buckets=4)
    rows = {r["k"]: (r["a"], r["b"]) for r in out.take_all()}
    # coalesced key: non-null for right-only rows too
    assert rows == {1: ("l1", None), 2: ("l2", "r2"), 3: ("l3", "r3"),
                    4: (None, "r4"), 5: (None, "r5")}
    _ = pc


def test_full_outer_join_empty_left(ray_session):
    import pyarrow as pa

    left_schema = pa.schema([("k", pa.int64()), ("a", pa.string())])
    left = rd.from_arrow(left_schema.empty_table())
    right = rd.from_items([{"rk": 7, "b": "r7"}])
    out = cogroup_join(left, right, left_on="k", right_on="rk",
                       join_type="full outer", num_buckets=2,
                       left_schema=left_schema)
    rows = out.take_all()
    assert len(rows) == 1
    assert rows[0]["k"] == 7 and rows[0]["a"] is None and rows[0]["b"] == "r7"


def test_full_outer_join_empty_right(ray_session):
    import pyarrow as pa

    right_schema = pa.schema([("rk", pa.int64()), ("b", pa.string())])
    left = rd.from_items([{"k": 9, "a": "l9"}])
    right = rd.from_arrow(right_schema.empty_table())
    out = cogroup_join(left, right, left_on="k", right_on="rk",
                       join_type="full outer", num_buckets=2,
                       right_schema=right_schema)
    rows = out.take_all()
    assert len(rows) == 1
    assert rows[0]["k"] == 9 and rows[0]["a"] == "l9" and rows[0]["b"] is None


def test_join_types_random_parity_vs_duckdb(ray_session):
    """Randomized parity: every cogroup_join type against DuckDB on the
    same tables (skewed keys, nulls in payloads, one-sided keys)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(5)
    for trial in range(4):
        nl, nr = rng.integers(0, 40, size=2)
        lk = rng.integers(0, 12, size=nl)
        rk = rng.integers(4, 16, size=nr)  # partial overlap
        lt = pa.table({"k": pa.array(lk, pa.int64()),
                       "a": pa.array([f"l{i}" for i in range(nl)])})
        rt = pa.table({"rk": pa.array(rk, pa.int64()),
                       "b": pa.array([f"r{i}" for i in range(nr)])})
        con = duckdb.connect()
        con.register("lt", lt)
        con.register("rt", rt)
        lds = rd.from_arrow(lt) if nl else rd.from_arrow(
            pa.schema([("k", pa.int64()), ("a", pa.string())]).empty_table())
        rds = rd.from_arrow(rt) if nr else rd.from_arrow(
            pa.schema([("rk", pa.int64()), ("b", pa.string())]).empty_table())

        cases = {
            "inner": "SELECT k, a, b FROM lt JOIN rt ON k = rk",
            "left outer": "SELECT k, a, b FROM lt LEFT JOIN rt ON k = rk",
            "full outer": """
                SELECT COALESCE(k, rk) AS k, a, b
                FROM lt FULL OUTER JOIN rt ON k = rk""",
            "left semi": "SELECT k, a FROM lt SEMI JOIN rt ON k = rk",
            "left anti": "SELECT k, a FROM lt ANTI JOIN rt ON k = rk",
        }
        for jt, sql in cases.items():
            got = cogroup_join(lds, rds, left_on="k", right_on="rk",
                               join_type=jt, num_buckets=4)
            cols = (["k", "a"] if jt in ("left semi", "left anti")
                    else ["k", "a", "b"])
            got_rows = sorted(
                tuple(r[c] for c in cols) for r in got.take_all())
            want_rows = sorted(
                tuple(r) for r in con.execute(sql).fetchall())
            assert got_rows == want_rows, (
                f"trial {trial} join_type={jt}: "
                f"{got_rows[:5]} vs {want_rows[:5]}")
