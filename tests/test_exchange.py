"""Every stage that groups rows on the shared task exchange
(shardutil's split and gather) against an in-process reference, on two
inputs each: a few keys spread over many more buckets (most buckets
empty on every side) and an empty input. Each case runs at the test
session's width (split tasks, then gather tasks) and cut for one CPU
(one task does both)."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

B = 16  # buckets: more than any input below has keys


def _kv(keys, vals, vname="v"):
    return pa.table({"k": pa.array(keys, pa.int64()),
                     vname: pa.array(vals, pa.int64())})


def _join(tables):
    from skosconverter_ray.stages.joinutil import cogroup_join

    left, right = tables
    lt = pa.table({"k": pa.array(left, pa.int64()),
                   "a": [f"l{i}" for i in range(len(left))]})
    rt = pa.table({"rk": pa.array(right, pa.int64()),
                   "b": [f"r{i}" for i in range(len(right))]})
    got = cogroup_join(rd.from_arrow(lt), rd.from_arrow(rt), left_on="k",
                       right_on="rk", join_type="full outer",
                       num_buckets=B)
    want = [(k, a, k, b) for k, a in zip(left, lt["a"].to_pylist())
            for rk, b in zip(right, rt["b"].to_pylist()) if rk == k]
    want += [(k, a, None, None) for k, a in zip(left, lt["a"].to_pylist())
             if k not in right]
    want += [(rk, None, rk, b) for rk, b in zip(right, rt["b"].to_pylist())
             if rk not in left]
    return got, ["k", "a", "rk", "b"], want


def _asof(tables):
    from skosconverter_ray.stages.asof import asof_join

    (lk, lts), (rk, rts) = tables
    t0 = dt.datetime(2024, 1, 1)

    def side(keys, secs, name):
        return pa.table({"k": pa.array(keys, pa.int64()),
                         "ts": pa.array([t0 + dt.timedelta(seconds=s)
                                         for s in secs], pa.timestamp("us")),
                         name: pa.array(range(len(keys)), pa.int64())})

    lt, rt = side(lk, lts, "eid"), side(rk, rts, "val")
    got = asof_join(rd.from_arrow(lt), rd.from_arrow(rt), key="k", ts="ts",
                    right_cols=["val"], num_buckets=B)
    want = []
    for e, (k, s) in enumerate(zip(lk, lts)):
        prior = [(rs, v) for v, (kk, rs) in enumerate(zip(rk, rts))
                 if kk == k and rs <= s]
        if prior:
            want.append((e, max(prior)[1]))
    return got, ["eid", "r_val"], want


def _prefix(op):
    def run(tables):
        from skosconverter_ray.stages import scan

        keys, vals = tables
        fn = {"sum": scan.keyed_prefix_sum, "max": scan.keyed_prefix_max}[op]
        got = fn(rd.from_arrow(_kv(keys, vals)), key="k", value="v",
                 key_range=(0, 40), num_buckets=B, out_col="out")
        order = np.argsort(keys)
        v = np.asarray(vals, np.int64)[order]
        acc = (np.cumsum(v) - v if op == "sum"
               else np.maximum.accumulate(v)) if len(v) else v
        want = [(int(keys[i]), int(a)) for i, a in zip(order, acc)]
        return got, ["k", "out"], want

    return run


def _hll(tables):
    from skosconverter_ray.stages.sketch import (distinct_count_hll,
                                                 hll_estimate,
                                                 hll_partial_batch)

    t = _kv(*tables)
    got = distinct_count_hll(rd.from_arrow(t), "k", "v", num_buckets=B)
    ref = hll_partial_batch(t, "k", "v")
    want = [(k, round(hll_estimate(np.frombuffer(r, np.uint8))))
            for k, r in zip(ref["k"].to_pylist(), ref["hll_regs"].to_pylist())]
    return got, ["k", "n_distinct_est"], want


def _dd(tables):
    from skosconverter_ray.stages.sketch import _dd_gamma, dd_bins, dd_quantiles

    keys, vals = tables
    got = dd_quantiles(rd.from_arrow(_kv(keys, vals)), "k", "v",
                       {"p50": 0.5, "p90": 0.9}, num_buckets=B)
    g = _dd_gamma(0.01)
    want = []
    for k in sorted(set(keys)):
        vs = sorted(v for kk, v in zip(keys, vals) if kk == k)
        est = []
        for q in (0.5, 0.9):
            v = vs[int(np.ceil(q * len(vs))) - 1]
            b = dd_bins(np.array([v], np.float64), g)[0]
            est.append(0.0 if v == 0 else
                       2.0 * np.power(g, float(b)) / (g + 1.0))
        want.append((k, *est))
    return got, ["k", "p50", "p90"], want


def _lsh(tables):
    from skosconverter_ray.stages.similarity import embedding_neardup_lsh

    ids, vecs = tables
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(vecs, pa.list_(pa.float64()))})
    got = embedding_neardup_lsh(rd.from_arrow(t), threshold=0.9,
                                num_buckets=B)
    unit = [np.array(v) / np.linalg.norm(v) for v in vecs]
    want = [(ids[i], ids[j]) for i in range(len(ids))
            for j in range(i + 1, len(ids)) if unit[i] @ unit[j] >= 0.9]
    return got, ["vec_a", "vec_b"], want


def _agg(tables):
    from skosconverter_ray.stages.skew import bucket_aggregate

    keys, vals = tables
    got = bucket_aggregate(rd.from_arrow(_kv(keys, vals)), ["k"],
                           [("sum", "v", "s"), ("count", None, "n"),
                            ("max", "v", "hi")], num_buckets=B)
    want = [(k, sum(v for kk, v in zip(keys, vals) if kk == k),
             keys.count(k), max(v for kk, v in zip(keys, vals) if kk == k))
            for k in set(keys)]
    return got, ["k", "s", "n", "hi"], want


STAGES = {
    "cogroup_join": (_join, ([3, 3, 7, 11], [3, 11, 11, 20])),
    "asof_join": (_asof, (([1, 1, 2, 5], [100, 30, 500, 9]),
                          ([1, 1, 2, 9], [20, 80, 400, 1]))),
    "keyed_prefix_sum": (_prefix("sum"), ([4, 0, 17], [5, 2, 9])),
    "keyed_prefix_max": (_prefix("max"), ([4, 0, 17], [5, 2, 9])),
    "distinct_count_hll": (_hll, ([1, 1, 1, 2, 2, 9], [5, 6, 5, 7, 7, 1])),
    "dd_quantiles": (_dd, ([1, 1, 1, 2, 2, 9], [5, 60, 0, 7, 700, 13])),
    "embedding_neardup_lsh": (_lsh, ([1, 2, 3, 4],
                                     [[1.0, 0.0, 0.2], [1.0, 0.0, 0.2],
                                      [0.0, 1.0, 0.0], [-1.0, 0.1, 0.0]])),
    "bucket_aggregate": (_agg, ([1, 1, 2, 9], [5, 6, 7, 1])),
}


def _emptied(inputs):
    """The same nesting of input lists, every list empty."""
    if isinstance(inputs, tuple):
        return tuple(_emptied(x) for x in inputs)
    return []


def _check(stage, empty):
    run, inputs = STAGES[stage]
    got, cols, want = run(_emptied(inputs) if empty else inputs)
    got_rows = [tuple(r[c] for c in cols) for r in got.take_all()]
    assert sorted(got_rows, key=repr) == sorted(want, key=repr)
    assert bool(want) != empty


@pytest.mark.parametrize("empty", [False, True], ids=["sparse", "empty"])
@pytest.mark.parametrize("stage", list(STAGES))
def test_exchange_stage_matches_reference(ray_session, split_gather, stage,
                                          empty):
    _check(stage, empty)


@pytest.mark.parametrize("empty", [False, True], ids=["sparse", "empty"])
@pytest.mark.parametrize("stage", list(STAGES))
def test_exchange_stage_one_task(ray_session, one_task, stage, empty):
    _check(stage, empty)
