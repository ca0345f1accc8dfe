"""PageRank vs a sequential dense-matrix oracle."""

import numpy as np
import ray.data as rd

from skosconverter_ray.stages.graph import pagerank


def _oracle(edges, n_iter=20, d=0.85):
    nodes = sorted({x for e in edges for x in e})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n)
    for s, _ in edges:
        out[idx[s]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        nxt = np.zeros(n)
        for s, t in edges:
            nxt[idx[t]] += r[idx[s]] / out[idx[s]]
        dangling = r[out == 0].sum()
        r = (1 - d) / n + d * (nxt + dangling / n)
    return {v: r[idx[v]] for v in nodes}


def _run(edges, **kw):
    ds = rd.from_items([{"src": s, "dst": t} for s, t in edges])
    return {r["node"]: r["rank"]
            for r in pagerank(ds, num_buckets=4, **kw).take_all()}


_EDGES = [("a", "b"), ("a", "c"), ("c", "a"), ("c", "b"),
          ("e", "c"), ("e", "d"), ("f", "c")]


def test_pagerank_matches_oracle_with_dangling(ray_session):
    # b and d have no out-edges (dangling); c is a hub.
    # Small edge list -> exercises the driver numpy fast path.
    got = _run(_EDGES, n_iter=6)
    want = _oracle(_EDGES, n_iter=6)
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v] - want[v]) < 1e-12, (v, got[v], want[v])
    assert abs(sum(got.values()) - 1.0) < 1e-9


import pytest


@pytest.mark.parametrize("engine", ["actors"])
def test_pagerank_distributed_forced_path_parity(ray_session, engine):
    # max_driver_edges=0 forces the distributed engine (Pregel shard
    # actors); it must match the sequential oracle and the driver path
    # exactly.
    got = _run(_EDGES, n_iter=6, max_driver_edges=0, engine=engine)
    want = _oracle(_EDGES, n_iter=6)
    fast = _run(_EDGES, n_iter=6)
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v] - want[v]) < 1e-12, (v, got[v], want[v])
        assert abs(got[v] - fast[v]) < 1e-12, (v, got[v], fast[v])


def test_pagerank_multi_edge_semantics(ray_session):
    # repeated (s, t) rows each contribute rank/deg with deg counting
    # edge ROWS — both paths must agree with the oracle on that
    edges = [("a", "b"), ("a", "b"), ("a", "c"), ("b", "a")]
    want = _oracle(edges, n_iter=4)
    for kw in ({}, {"max_driver_edges": 0}):
        got = _run(edges, n_iter=4, **kw)
        for v in want:
            assert abs(got[v] - want[v]) < 1e-12, (kw, v)


def test_pagerank_cycle_uniform(ray_session):
    # pure cycle: stationary distribution is uniform
    edges = [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n0")]
    got = _run(edges, n_iter=5)
    for v, r in got.items():
        assert abs(r - 0.25) < 1e-12, (v, r)


def test_pagerank_tol_early_exit(ray_session):
    # a cycle converges to uniform immediately: with tol set, a huge
    # n_iter must still return the converged answer (and quickly)
    edges = [("n0", "n1"), ("n1", "n2"), ("n2", "n0")]
    for kw in ({}, {"max_driver_edges": 0}):
        got = _run(edges, n_iter=500, tol=1e-9, **kw)
        for v, r in got.items():
            assert abs(r - 1.0 / 3) < 1e-9, (kw, v, r)


def _ppr_oracle(edges, seeds, n_iter=6, d=0.85):
    nodes = sorted({x for e in edges for x in e})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n)
    for s, _ in edges:
        out[idx[s]] += 1
    reset = np.zeros(n)
    k = sum(1 for v in seeds if v in idx)
    for v in seeds:
        if v in idx:
            reset[idx[v]] = 1.0 / k
    r = reset.copy()
    for _ in range(n_iter):
        nxt = np.zeros(n)
        for s, t in edges:
            nxt[idx[t]] += r[idx[s]] / out[idx[s]]
        dangling = r[out == 0].sum()
        r = ((1 - d) + d * dangling) * reset + d * nxt
    return {v: r[idx[v]] for v in nodes}


@pytest.mark.parametrize("mode", ["driver", "actors"])
def test_personalized_pagerank_all_engines(ray_session, mode):
    seeds = ["a", "f"]
    kw = {} if mode == "driver" else \
        {"max_driver_edges": 0, "engine": mode}
    got = _run(_EDGES, n_iter=6, seeds=seeds, **kw)
    want = _ppr_oracle(_EDGES, seeds, n_iter=6)
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v] - want[v]) < 1e-12, (v, got[v], want[v])
    assert abs(sum(got.values()) - 1.0) < 1e-9
    # localization: the seed set holds more mass than uniform PR
    # gives it, and every non-seed's rank flows only from walks that
    # started at a seed
    uni = _run(_EDGES, n_iter=6)
    assert got["a"] + got["f"] > uni["a"] + uni["f"]


def test_personalized_pagerank_unreachable_node_gets_zero(ray_session):
    # z -> y is disconnected from the seed component and nothing
    # teleports to it: its stationary mass must decay toward zero
    edges = _EDGES + [("z", "y")]
    got = _run(edges, n_iter=20, seeds=["a"])
    assert got["y"] < 1e-3 and got["z"] < 1e-3


def test_personalized_pagerank_no_seed_in_graph_raises(ray_session):
    import pytest as _pt

    with _pt.raises(ValueError):
        _run(_EDGES, n_iter=2, seeds=["nope"])


def _hits_oracle(edges, n_iter=8):
    nodes = sorted({x for e in edges for x in e})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    h = np.full(n, 1.0 / np.sqrt(n))
    a = h.copy()
    for _ in range(n_iter):
        a = np.zeros(n)
        for s, t in edges:
            a[idx[t]] += h[idx[s]]
        a /= np.sqrt((a * a).sum()) or 1.0
        h = np.zeros(n)
        for s, t in edges:
            h[idx[s]] += a[idx[t]]
        h /= np.sqrt((h * h).sum()) or 1.0
    return {v: (h[idx[v]], a[idx[v]]) for v in nodes}


@pytest.mark.parametrize("forced", [False, True])
def test_hits_engines_match_sequential_oracle(ray_session, forced):
    from skosconverter_ray.stages.graph import hits

    edges = _EDGES + [("b", "d"), ("d", "c")]
    ds = rd.from_items([{"src": s, "dst": t} for s, t in edges])
    kw = {"max_driver_edges": 0} if forced else {}
    got = {r["node"]: (r["hub"], r["auth"])
           for r in hits(ds, n_iter=8, num_shards=4, **kw).take_all()}
    want = _hits_oracle(edges, n_iter=8)
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v][0] - want[v][0]) < 1e-9, ("hub", v)
        assert abs(got[v][1] - want[v][1]) < 1e-9, ("auth", v)
    # c receives from a, e, f, d -> the authority; c also points at
    # the hub-heavy side
    top_auth = max(got, key=lambda v: got[v][1])
    assert top_auth == "c"


def test_hits_multi_edge_weighting(ray_session):
    from skosconverter_ray.stages.graph import hits

    # duplicate edge doubles the contribution, shifting authority to y
    edges = [("u", "x"), ("u", "y"), ("u", "y")]
    ds = rd.from_items([{"src": s, "dst": t} for s, t in edges])
    got = {r["node"]: r["auth"] for r in hits(ds, n_iter=4).take_all()}
    assert got["y"] > got["x"] > 0


def _kcore_oracle(edges, k):
    from collections import defaultdict

    adj = defaultdict(set)
    for a, b in edges:
        if a != b:
            adj[a].add((a, b))
            adj[b].add((a, b))
    # multiset degree: count edge rows, both directions
    deg = defaultdict(int)
    for a, b in edges:
        if a != b:
            deg[a] += 1
            deg[b] += 1
    alive = set(deg)
    changed = True
    nbrs = defaultdict(list)
    for a, b in edges:
        if a != b:
            nbrs[a].append(b)
            nbrs[b].append(a)
    while changed:
        changed = False
        for u in list(alive):
            if deg[u] < k:
                alive.discard(u)
                for v in nbrs[u]:
                    deg[v] -= 1
                nbrs[u] = []
                changed = True
    return {u: (u in alive) for u in deg}


@pytest.mark.parametrize("forced", [False, True])
def test_kcore_peeling_cascade(ray_session, forced):
    from skosconverter_ray.stages.graph import kcore

    # a 4-clique (3-core) with a pendant chain hanging off it: the
    # chain peels in CASCADE order, the clique survives k=3
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
             ("b", "d"), ("c", "d"),
             ("d", "e"), ("e", "f"), ("f", "g")]
    ds = rd.from_items([{"a": x, "b": y} for x, y in edges])
    kw = {"max_driver_edges": 0, "engine": "actors"} if forced else {}
    got = {r["node"]: r["in_core"]
           for r in kcore(ds, k=3, num_shards=4, **kw).take_all()}
    want = _kcore_oracle(edges, 3)
    assert got == want
    assert {u for u, v in got.items() if v} == {"a", "b", "c", "d"}


@pytest.mark.parametrize("forced", [False, True])
def test_kcore_random_parity(ray_session, forced):
    from skosconverter_ray.stages.graph import kcore

    rng = np.random.RandomState(9)
    edges = [(f"n{rng.randint(60)}", f"n{rng.randint(60)}")
             for _ in range(300)]
    ds = rd.from_items([{"a": x, "b": y} for x, y in edges])
    kw = {"max_driver_edges": 0, "engine": "actors"} if forced else {}
    for k in (2, 4, 7):
        got = {r["node"]: r["in_core"]
               for r in kcore(ds, k=k, num_shards=4, **kw).take_all()}
        assert got == _kcore_oracle(edges, k), k


def test_bfs_hops_known_graph_and_engine_parity(ray_session):
    """Crafted graph with known hop distances from the two smallest
    nodes; the driver sweep and the distributed engine must agree
    with each other and with the hand-computed answer, including the
    max_hops cutoff and an unreachable component."""
    import pyarrow as pa
    import ray.data as rd

    from skosconverter_ray.stages.graph import bfs_hops

    # chain 1-2-3-4-5-6-7 plus seed 0 attached at 3; island 90-91
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 3),
             (90, 91)]
    ds = rd.from_arrow(pa.table({
        "a": pa.array([p[0] for p in pairs], pa.int64()),
        "b": pa.array([p[1] for p in pairs], pa.int64()),
    })).repartition(3)
    # seeds = 2 smallest = {0, 1}; max_hops=2
    want = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}
    drv = {r["node"]: r["hops"]
           for r in bfs_hops(ds, n_seeds=2, max_hops=2).take_all()}
    act = {r["node"]: r["hops"]
           for r in bfs_hops(ds, n_seeds=2, max_hops=2,
                             max_driver_edges=0,
                             engine="actors").take_all()}
    assert drv == want and act == want


def test_link_prediction_known_graph(ray_session):
    """Path graph 1-2-3-4-5 plus hub 9 attached to {1,3}: the
    non-adjacent pairs sharing neighbors are hand-computable,
    including the tie ordering and the adjacency exclusion."""
    import pyarrow as pa
    import ray.data as rd

    from skosconverter_ray.stages.graph import link_prediction_topk

    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (9, 1), (9, 3)]
    ds = rd.from_arrow(pa.table({
        "a": pa.array([p[0] for p in pairs], pa.int64()),
        "b": pa.array([p[1] for p in pairs], pa.int64()),
    })).repartition(2)
    got = [(r["a"], r["b"], r["common"], r["deg_a"], r["deg_b"])
           for r in link_prediction_topk(ds, k=10).take_all()]
    # common neighbors among NON-adjacent pairs:
    #  (1,3) via {2,9} -> 2;  (2,9) via {1,3} -> 2;
    #  (2,4) via {3} -> 1;  (3,5) via {4} -> 1;  (4,9) via {3} -> 1
    assert got == [(1, 3, 2, 2, 3), (2, 9, 2, 2, 2),
                   (2, 4, 1, 2, 2), (3, 5, 1, 3, 1),
                   (4, 9, 1, 2, 2)]


@pytest.mark.parametrize("engine", ["dataset", "actor"])
@pytest.mark.parametrize("op", ["pagerank", "hits", "kcore",
                                "label_propagation",
                                "components_min_label", "bfs_hops"])
def test_iterative_operators_reject_unknown_engine(ray_session, op,
                                                   engine):
    """resolve_engine's contract: an engine name outside
    auto/driver/actors fails loudly on every iterative operator — a
    removed engine ("dataset") or a typo never silently runs some
    default."""
    from skosconverter_ray.stages.canonicalize import components_min_label
    from skosconverter_ray.stages.communities import label_propagation
    from skosconverter_ray.stages.graph import bfs_hops, hits, kcore

    directed = rd.from_items([{"src": s, "dst": t} for s, t in _EDGES])
    undirected = rd.from_items([{"a": 1, "b": 2}, {"a": 2, "b": 3}])
    calls = {
        "pagerank": lambda: pagerank(directed, engine=engine),
        "hits": lambda: hits(directed, engine=engine),
        "kcore": lambda: kcore(undirected, k=1, engine=engine),
        "label_propagation": lambda: label_propagation(directed,
                                                       engine=engine),
        "components_min_label": lambda: components_min_label(
            rd.from_items([{"node": "a", "peer": "b"},
                           {"node": "b", "peer": "a"}]), engine=engine),
        "bfs_hops": lambda: bfs_hops(undirected, engine=engine),
    }
    with pytest.raises(ValueError, match="unknown engine"):
        calls[op]()


@pytest.mark.parametrize("pair", [(-1, 5), (2**31, 5)])
@pytest.mark.parametrize("op", ["triangle_count", "link_prediction_topk"])
def test_packed_pair_key_rejects_out_of_range_ids(ray_session, op, pair):
    """Both packed (lo << 32) | hi key operators refuse ids outside
    [0, 2^31) instead of building colliding or negative keys."""
    import pyarrow as pa

    from skosconverter_ray.stages import graph

    ds = rd.from_arrow(pa.table({"a": pa.array([pair[0], 1], pa.int64()),
                                 "b": pa.array([pair[1], 2], pa.int64())}))
    with pytest.raises(ValueError, match=r"\[0, 2\^31\)"):
        getattr(graph, op)(ds)


# ---------------------------------------------------------------------------
# The registered graph queries run each operator once on its default
# plan; here the same sf0.01 graphs run on both sides of the engine
# gate (driver vs forced shard actors), plus the sequential oracles.
# ---------------------------------------------------------------------------

_ACTORS = {"max_driver_edges": 0, "engine": "actors"}


def _by_node(ds, *cols):
    return {r["node"]: tuple(r[c] for c in cols) for r in ds.take_all()}


def _str_pairs(ds):
    return [(str(r["a"]), str(r["b"])) for r in ds.take_all()]


def _sf_case(op, sf):
    """(run(**plan) -> {node: values}, check(driver result) -> bool) on
    the sf0.01 graph that op's registered query reads; check is the
    op's sequential oracle or defining property, if it has one."""
    from skosconverter_ray import queries as q
    from skosconverter_ray.stages.communities import (
        label_propagation, label_propagation_sequential)
    from skosconverter_ray.stages.graph import hits, kcore

    if op in ("pagerank", "ppr", "hits"):
        edges = q._pagerank_edges(sf)
    if op == "pagerank":
        return (lambda **plan: _by_node(pagerank(
            edges, n_iter=5, num_buckets=16, **plan), "rank")), None
    if op == "ppr":
        seeds = list(q._PPR_SEEDS)

        def localized(drv):
            # the restart concentrates mass on the seed set
            uni = _by_node(pagerank(edges, n_iter=5), "rank")
            return sum(drv[s][0] for s in seeds) > \
                sum(uni[s][0] for s in seeds)

        return (lambda **plan: _by_node(pagerank(
            edges, n_iter=5, num_buckets=16, seeds=seeds, **plan),
            "rank")), localized
    if op == "hits":
        return (lambda **plan: _by_node(hits(
            edges, n_iter=5, num_shards=8, **plan), "hub", "auth")), None
    if op == "kcore":
        edges = q._copart_supplier_pairs(sf, min_weight=30).materialize()
        want = {u: (v,) for u, v in
                _kcore_oracle(_str_pairs(edges), 3).items()}
        return (lambda **plan: _by_node(kcore(
            edges, k=3, num_shards=4, **plan), "in_core")), want.__eq__
    edges = q._copart_supplier_pairs(sf, part_mod=8).materialize()
    src, dst = zip(*_str_pairs(edges))
    want = {u: (v,) for u, v in label_propagation_sequential(
        list(src), list(dst), n_iter=5).items()}
    return (lambda **plan: _by_node(label_propagation(
        edges, n_iter=5, src_col="a", dst_col="b", num_shards=4, **plan),
        "label")), want.__eq__


@pytest.mark.parametrize("op", ["pagerank", "ppr", "hits", "kcore",
                                "label_propagation"])
def test_sf001_driver_matches_forced_actors(ray_session, sf001, op):
    """Driver engine vs forced shard actors on the sf0.01 graph of each
    registered graph query: per-node |Δ| < 1e-9 for scores, exact
    equality for labels and core membership; plus the kcore and LPA
    sequential oracles and PPR seed localization."""
    run, check = _sf_case(op, sf001)
    drv, act = run(), run(**_ACTORS)
    assert drv and drv.keys() == act.keys()
    if op in ("kcore", "label_propagation"):
        assert act == drv
    else:
        bad = [v for v in drv
               if any(abs(x - y) >= 1e-9 for x, y in zip(drv[v], act[v]))]
        assert not bad, bad[:5]
    if check is not None:
        assert check(drv) is True
