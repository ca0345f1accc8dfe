"""Layer microbench for the task exchange: sweep
``shardutil.multiway_cogroup_scatter`` over input rows x input blocks x
buckets (B) and print, per cell, the Ray tasks one exchange starts
(split, gather and block-metadata tasks), the part refs its splits
make and the exchange wall.

Method: each cell builds one materialized table of ``rows`` rows (an
int64 key over rows/4 distinct values, an int64 payload and a short
string) cut into ``blocks`` blocks; building is not timed. The wall is
one one-side cogroup whose per-bucket ``fn`` counts its rows, consumed
with ``take_all`` (which waits for every gather) and checked to total
``rows``. Tasks are counted by wrapping Ray's task submission in this
driver and keyed by the remote function's name: ``split``, ``gather``
(a one-task exchange, which splits and gathers, counts as one gather)
and ``get_table_block_metadata_schema`` (``from_arrow_refs``' metadata
task); part refs are split tasks x B. Each cell runs ``--repeats``
times; the table gives the median and the min-max spread.

Usage (from the root of a checkout):

    python tools/exchange_bench.py [--rows 10000,100000] \\
        [--blocks 1,16,64] [--buckets 8,32,64] [--repeats 5] [--cpus N]

``--cpus`` defaults to the CPUs this process may run on. Prints one
aligned table, then one JSON line with every cell; record the table in
BASELINE.md with its CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def build(rows: int, blocks: int):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng(rows)
    keys = rng.integers(0, max(1, rows // 4), rows)
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "v": pa.array(np.arange(rows), pa.int64()),
                  "s": pa.array([f"s{x % 997}" for x in keys.tolist()])})
    return rd.from_arrow(t).repartition(blocks).materialize()


# remote function name -> the column its tasks count in
_TASK_KINDS = {"split": "split", "gather": "gather", "exchange": "gather",
               "get_table_block_metadata_schema": "meta"}


def count_tasks(counts: dict):
    """Count every task this driver submits into ``counts`` by kind
    (``_TASK_KINDS``); returns the undo."""
    from ray.remote_function import RemoteFunction

    real = RemoteFunction._remote

    def counting(self, *args, **kwargs):
        kind = _TASK_KINDS.get(self._function.__name__)
        if kind:
            counts[kind] = counts.get(kind, 0) + 1
        return real(self, *args, **kwargs)

    RemoteFunction._remote = counting
    return lambda: setattr(RemoteFunction, "_remote", real)


def cell(ds, rows: int, B: int, repeats: int) -> dict:
    import pyarrow as pa

    from skosconverter_ray.stages.shardutil import multiway_cogroup_scatter

    def count(t):
        return pa.table({"n": pa.array([0 if t is None else t.num_rows],
                                       pa.int64())})

    walls, counts = [], {}
    undo = count_tasks(counts)
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            got = sum(r["n"] for r in multiway_cogroup_scatter(
                [(ds, "k")], B, count).take_all())
            walls.append(time.perf_counter() - t0)
            if got != rows:
                raise RuntimeError(f"exchange returned {got} rows of "
                                   f"{rows}")
    finally:
        undo()
    tasks = {k: counts.get(k, 0) // repeats
             for k in ("split", "gather", "meta")}
    return {**tasks, "part_refs": tasks["split"] * B, "walls": walls}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", type=_ints, default=[10_000, 100_000])
    ap.add_argument("--blocks", type=_ints, default=[1, 16, 64])
    ap.add_argument("--buckets", type=_ints, default=[8, 32, 64])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--cpus", type=int,
                    default=len(os.sched_getaffinity(0)))
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        # untimed warm-up: worker start and the package's first import
        cell(build(100, 2), 100, 2, 1)
        cells = []
        for rows in args.rows:
            for blocks in args.blocks:
                ds = build(rows, blocks)
                for B in args.buckets:
                    res = cell(ds, rows, B, args.repeats)
                    cells.append({"rows": rows, "blocks": ds.num_blocks(),
                                  "B": B, **res})
    finally:
        ray.shutdown()

    print(f"cpus={args.cpus} repeats={args.repeats}")
    print(f"{'rows':>8} {'blocks':>6} {'B':>4} {'split':>5} "
          f"{'gather':>6} {'meta':>4} {'part_refs':>9} {'median_s':>8}"
          "  spread_s")
    for c in cells:
        w = c["walls"]
        print(f"{c['rows']:>8} {c['blocks']:>6} {c['B']:>4} "
              f"{c['split']:>5} {c['gather']:>6} {c['meta']:>4} "
              f"{c['part_refs']:>9} {statistics.median(w):>8.3f}  "
              f"{min(w):.3f}-{max(w):.3f}")
    print(json.dumps({"cpus": args.cpus, "repeats": args.repeats,
                      "cells": cells}))


if __name__ == "__main__":
    main()
