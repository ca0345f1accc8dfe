"""Measure the Pregel shard-actor tier's per-wave cost as a function
of shard count: one wave is a ``shardutil.ShardGroup`` call on every
shard through the actor-side trampoline, which fetches each shard's
inbox refs as one table, runs the table kernel and puts its per-peer
outbox tables; the driver relays the B² refs in between. This pins
where that curve starts to matter, so the multi-node design point is
recorded, not guessed.

Method: run the shard-actor PageRank engine (``_pagerank_actors``,
whose wave cost is the shared runner's) on one fixed synthetic graph
at n_iter=2 and n_iter=22; (T22 - T2) / 20 isolates the steady-state
wave latency from actor spawn + load + result costs, which are
identical between the two runs. Repeated per shard width, best-of-N
(co-tenant noise on a shared box is ±30-50%).

Usage: python tools/pregel_wave_bench.py [shards,shards,...]
The Ray session gets ``RAY_GRAFT_CPUS`` CPUs (default: this machine's
``os.cpu_count()``). Prints one JSON line carrying both CPU counts;
record the table in BASELINE.md with them.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def build_graph(n_nodes: int, n_edges: int):
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    rng = np.random.default_rng(5)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)

    def s(a):
        return pc.binary_join_element_wise(
            pa.array(["n"] * len(a)),
            pc.cast(pa.array(a, pa.int64()), pa.string()), "")

    return rd.from_arrow(pa.table({"src": s(src), "dst": s(dst)})) \
        .repartition(32).materialize()


def main() -> None:
    import ray

    widths = [int(x) for x in (sys.argv[1].split(",") if len(sys.argv) > 1
                               else ["8", "16", "32"])]
    repeats = int(os.environ.get("GRAFT_WAVE_REPEATS", "2"))
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                         os.cpu_count() or 1)),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from skosconverter_ray.stages.graph import _pagerank_actors

    norm = build_graph(100_000, 400_000)
    norm.count()  # pin blocks before any timed window

    out = {"n_nodes": 100_000, "n_edges": 400_000,
           "os_cpu_count": os.cpu_count(),
           "session_cpus": int(ray.cluster_resources().get("CPU", 0)),
           "widths": {}}
    for b in widths:
        # least-contended estimate of EACH quantity independently:
        # the two walls come from different moments on a co-tenant
        # box, so pairing them within a repeat produces negative
        # deltas whenever noise > signal — min over repeats per
        # quantity is the stable estimator
        t2s, t22s = [], []
        for _ in range(repeats):
            for n_iter, acc in ((2, t2s), (22, t22s)):
                t0 = time.perf_counter()
                _pagerank_actors(norm, damping=0.85, n_iter=n_iter,
                                 tol=None, num_shards=b).count()
                acc.append(time.perf_counter() - t0)
        wave_ms = max(0.0, (min(t22s) - min(t2s)) / 20 * 1000)
        out["widths"][str(b)] = {
            "wave_ms": round(wave_ms, 1),
            "t_2iter_s": round(min(t2s), 2),
            "t_22iter_s": round(min(t22s), 2)}
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
