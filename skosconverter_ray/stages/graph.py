"""Iterative graph computation: PageRank/PPR, HITS, k-core, bounded
BFS, triangle counting and common-neighbor link prediction.

The iterative operators (PageRank, HITS, k-core, and label
propagation / connected components in their own modules) share one
engine contract (``resolve_engine``), with two engines:

- **driver** (≤ ``max_driver_edges``, default 4M rows ≈ a few hundred
  MB of int indices): vectorized numpy folds over dictionary-encoded
  node codes. For small and medium graphs this is orders of magnitude
  faster than any distributed round, which pays fixed scheduling
  latency regardless of data size.
- **actors** (above the gate): Pregel-style shard actors run by
  shardutil.ShardGroup — node state partitioned by key hash and
  co-located with its out-edges, so message emission is local; a
  round is an emit wave of per-peer pre-aggregated message tables
  (moving actor→actor through the object store, the driver relaying
  refs and folding scalars) and an apply wave. Zero Dataset exchanges
  per round: the "raw Ray actors where the Dataset API can't express
  it" tier, a synchronous iteration over mutable sharded state.

The actor engine stays exercised by forced-path parity tests
(``max_driver_edges=0`` or ``engine="actors"``) against the driver
engine and sequential oracles. The normalized edge list is
materialized ONCE up front, so both engines read the pinned copy and
never re-execute upstream lineage (the shared-lineage pitfall,
BASELINE.md).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _reset_vector(nodes, seeds) -> np.ndarray:
    """Teleport distribution over ``nodes``: uniform when ``seeds`` is
    None, else 1/k on the k seed nodes present (personalized PageRank
    / random walk with restart — Page et al. 1999 §6; the seed SET is
    dimension-sized by assumption and rides in task closures)."""
    n = len(nodes)
    if seeds is None:
        return np.full(n, 1.0 / max(1, n))
    if isinstance(nodes, (pa.Array, pa.ChunkedArray)):
        mask = pc.is_in(nodes, value_set=pa.array(
            sorted(seeds), pa.string())).to_numpy(zero_copy_only=False)
    else:
        mask = np.isin(np.asarray(nodes, dtype=object),
                       np.asarray(sorted(seeds), dtype=object))
    k = int(mask.sum())
    if k == 0:
        raise ValueError("personalized pagerank: no seed node "
                         "present in the graph")
    return np.where(mask, 1.0 / k, 0.0)


def resolve_engine(engine: str, n_edges: int,
                   max_driver_edges: int) -> str:
    """Shared gate for the iterative operators' ``engine`` kwarg
    (pagerank/hits/kcore/bfs_hops/label_propagation/
    components_min_label): ``"auto"`` routes by the driver gate (numpy
    fast path at or below ``max_driver_edges`` edge rows, the
    distributed engine above); an explicit name picks that engine
    unconditionally; anything else is rejected loudly instead of
    silently running some default."""
    valid = ("auto", "driver", "actors")
    if engine not in valid:
        raise ValueError(f"unknown engine {engine!r}; expected one "
                         f"of {valid}")
    if engine == "auto":
        return "driver" if n_edges <= max_driver_edges else "actors"
    return engine


def encode_node_codes(cols) -> tuple[pa.Array, np.ndarray]:
    """Concatenated string columns -> (lexicographically sorted unique
    node array, int64 codes over the concatenation, with integer order
    == string order so index-based tie rules match string tie rules).

    One Arrow ``dictionary_encode`` replaces ``np.unique`` over
    object-dtype numpy at the iterative operators' driver gates
    (round 5): at the 4M-edge gate the object arrays held GBs of
    PyStr; dictionary codes peel/propagate at int64 speed and the
    strings materialize exactly once, in the dictionary."""
    arrs: list[pa.Array] = []
    for c in cols:
        if isinstance(c, pa.ChunkedArray):
            arrs.extend(c.chunks)
        elif c is not None:
            arrs.append(c)
    arrs = [a for a in arrs if len(a)]
    if not arrs:
        return pa.array([], pa.string()), np.empty(0, np.int64)
    enc = pa.concat_arrays(arrs).dictionary_encode()
    d = enc.dictionary
    order = pc.sort_indices(d).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    rank = np.empty(len(d), np.int64)
    rank[order] = np.arange(len(d), dtype=np.int64)
    codes = rank[enc.indices.to_numpy(zero_copy_only=False)
                 .astype(np.int64)]
    return d.take(pa.array(order, pa.int64())), codes


def _pagerank_driver(norm_ds, *, damping: float, n_iter: int,
                     tol: float | None, seeds=None):
    """Vectorized driver-side power iteration over a pinned (src, dst)
    Dataset that fits the gate (``max_driver_edges``). Multi-edge
    semantics identical to the distributed path: out-degree counts
    edge ROWS, each row contributes rank/deg. ``seeds`` switches the
    teleport vector from uniform to the personalized 1/k-on-seeds
    distribution; dangling mass redistributes by the SAME vector, so
    the update is r' = ((1-d) + d*dangling) * reset + d * M r in both
    modes."""
    import ray.data as rd

    srcs, dsts = [], []
    for b in norm_ds.iter_batches(batch_format="pyarrow",
                                  batch_size=262144):
        srcs.append(b["src"])
        dsts.append(b["dst"])
    nodes, codes = encode_node_codes(srcs + dsts)
    m = len(codes) // 2
    src_i, dst_i = codes[:m], codes[m:]
    n = len(nodes)
    deg = np.bincount(src_i, minlength=n).astype(np.float64)
    dangling = deg == 0.0
    inv_deg = np.zeros(n)
    np.divide(1.0, deg, out=inv_deg, where=~dangling)
    reset = _reset_vector(nodes, seeds)
    r = reset.copy()
    for _ in range(n_iter):
        contrib = r[src_i] * inv_deg[src_i]
        nxt = np.bincount(dst_i, weights=contrib, minlength=n)
        dmass = float(r[dangling].sum())
        scale = (1.0 - damping) + damping * dmass
        new = scale * reset + damping * nxt
        delta = float(np.abs(new - r).max())
        r = new
        if tol is not None and delta < tol:
            break
    return rd.from_arrow(pa.table({
        "node": nodes,
        "rank": pa.array(r, pa.float64())}))


class _PRShard:
    """One Pregel-style rank shard, a table kernel run on
    shardutil.ShardGroup.

    Holds the rank partition for nodes with ``bucket_of(node) == b``
    plus every edge whose SRC hashes to ``b`` — so message emission is
    entirely local (a node's rank and its out-edges co-locate by
    construction). Per round the shard pre-aggregates its messages per
    destination and returns ONE compact (node, m) table per peer."""

    def __init__(self, bucket: int, n_buckets: int, damping: float,
                 seeds=None):
        self.b, self.B, self.d = bucket, n_buckets, damping
        self.seeds = seeds

    def load(self, edges: pa.Table, dst_edges: pa.Table) -> tuple:
        """Zero-exchange setup (round 4): the shard derives its OWN
        node set from two task-level splits of the raw edges — srcs of
        the src-sharded split (``edges``) and dsts of the dst-sharded
        split (``dst_edges``) both hash to this bucket, and every node
        appears in one of them. Edge shards hash by src with the same
        hash, so out-degree, per-edge 1/deg and the dangling flag are
        all LOCAL too. Returns (local nodes, local seeds); the driver
        folds both and calls ``init`` with the totals."""
        from .shardutil import SumRoutes, node_set, positions

        self.nodes = node_set(edges["src"], dst_edges["dst"])
        self.src_idx = positions(edges["src"], self.nodes)
        deg = np.bincount(self.src_idx, minlength=len(self.nodes))
        self.dang = deg == 0
        self.inv_deg = 1.0 / np.maximum(deg[self.src_idx], 1)
        self.route = SumRoutes(edges["dst"], self.B)
        self._seed_mask = None if self.seeds is None else pc.is_in(
            self.nodes, value_set=pa.array(sorted(self.seeds), pa.string())
        ).to_numpy(zero_copy_only=False)
        return len(self.nodes), \
            0 if self.seeds is None else int(self._seed_mask.sum())

    def init(self, n_nodes: int, k_seeds: int = 0) -> None:
        """Second setup wave: teleport/reset weights once the driver
        has folded the global node and seed counts from load() —
        uniform 1/N, or 1/k on the shard's seed nodes (personalized
        mode); rank starts AT the reset distribution in both modes."""
        if self._seed_mask is None:
            self.reset = np.full(len(self.nodes), 1.0 / max(1, n_nodes))
        else:
            self.reset = np.where(self._seed_mask,
                                  1.0 / max(1, k_seeds), 0.0)
        self.rank = self.reset.copy()

    def emit(self) -> tuple:
        """-> (local dangling mass, one message table per peer)."""
        return (float(self.rank[self.dang].sum()),
                self.route.tables(self.rank[self.src_idx] * self.inv_deg))

    def apply(self, msg: pa.Table, scale: float) -> float:
        """``scale`` = (1-d) + d*dangling_mass; the teleport term is
        scale * reset(v), which reduces to the old uniform base when
        reset is 1/N."""
        from .shardutil import scatter_add

        new = scale * self.reset + self.d * scatter_add(self.nodes, msg, "m")
        delta = float(np.abs(new - self.rank).max()) if len(new) else 0.0
        self.rank = new
        return delta

    def result(self) -> pa.Table:
        return pa.table({"node": self.nodes,
                         "rank": pa.array(self.rank, pa.float64())})


def _pagerank_actors(norm, *,
                     damping: float, n_iter: int, tol: float | None,
                     num_shards: int, seeds=None):
    """Actor-sharded power iteration (the >driver-gate engine).

    Zero Dataset exchanges per round: B long-lived shard actors hold
    rank partitions + co-located out-edges; a round is one emit wave
    (per-dst pre-aggregated message tables, B² refs relayed by the
    driver) and one apply wave, and each message table moves once.
    Setup is exchange-free too: raw (src, dst) edges split twice — by
    src (emission locality) and by dst (node discovery) — and nodes,
    degrees and dangling flags derive locally in ``load``."""
    from .shardutil import ShardGroup, split_dataset_by_bucket

    B = num_shards
    src_cols = split_dataset_by_bucket(norm, "src", B)
    dst_cols = split_dataset_by_bucket(norm, "dst", B)
    with ShardGroup(_PRShard, B, damping, seeds) as g:
        loads = g.wave("load", src_cols, dst_cols)
        n_nodes = sum(l[0] for l in loads)
        k_seeds = sum(l[1] for l in loads)
        if seeds is not None and k_seeds == 0:
            raise ValueError("personalized pagerank: no seed node "
                             "present in the graph")
        g.wave("init", n_nodes=n_nodes, k_seeds=k_seeds)
        for _ in range(n_iter):
            outs = g.wave("emit")
            dmass = sum(o[0] for o in outs)
            scale = (1.0 - damping) + damping * dmass
            deltas = g.wave("apply", g.relay([o[1] for o in outs]),
                            scale=scale)
            if tol is not None and max(deltas) < tol:
                break
        return g.collect()


def pagerank(edges_ds, *, damping: float = 0.85, n_iter: int = 20,
             num_buckets: int = 32, src_col: str = "src",
             dst_col: str = "dst", max_driver_edges: int = 4_000_000,
             tol: float | None = None, engine: str = "auto",
             seeds=None):
    """(src, dst) string-keyed edge Dataset -> (node, rank) Dataset.

    Standard PageRank power iteration (Page et al. 1999; damping d):
    ``r'(v) = (1-d)/N + d·(Σ_{u→v} r(u)/deg(u) + dangling/N)`` where
    ``dangling`` is the rank mass of nodes without out-edges. Up to
    ``n_iter`` synchronous rounds (early exit when the max |Δrank|
    drops below ``tol``, if given); Σ rank = 1 preserved every round.
    Out-degree counts edge ROWS, so each multi-edge row contributes
    rank/deg.

    ``engine`` follows resolve_engine: ``max_driver_edges`` gates the
    numpy fast path; above it (or with ``engine="actors"``, or
    ``max_driver_edges=0`` as the parity tests force) the Pregel shard
    actors run, on ``min(num_buckets, 8)`` shards (at least 2).
    ``seeds`` (an iterable of node ids, dimension-sized by assumption)
    switches to PERSONALIZED PageRank / random walk with restart: the
    teleport vector becomes 1/k on the seed nodes (0 elsewhere) and
    dangling mass redistributes to the seeds — ranks then measure
    proximity to the seed set. Both engines honor it.
    """
    import ray.data as rd

    def edge_norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.cast(batch[src_col], pa.string()),
            "dst": pc.cast(batch[dst_col], pa.string()),
        })

    norm = (edges_ds.map_batches(edge_norm, batch_format="pyarrow")
            .materialize())
    n_edges = norm.count()
    if n_edges == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                       "rank": pa.array([], pa.float64())}))
    seeds = frozenset(str(s) for s in seeds) if seeds is not None \
        else None
    if resolve_engine(engine, n_edges, max_driver_edges) == "driver":
        return _pagerank_driver(norm, damping=damping, n_iter=n_iter,
                                tol=tol, seeds=seeds)
    return _pagerank_actors(
        norm, damping=damping, n_iter=n_iter, tol=tol,
        num_shards=max(2, min(num_buckets, 8)), seeds=seeds)


_SHIFT = np.int64(32)  # packed pair key: lo << 32 | hi


def _check_packable(ds, lo_col: str, hi_col: str, op: str) -> None:
    """Driver-side guard for the packed ``(lo << 32) | hi`` pair key
    over a materialized id Dataset: every id must lie in [0, 2^31),
    else keys collide or turn negative. One min/max aggregate; it runs
    on the driver so the caller gets a plain ValueError (an exception
    raised inside a map UDF reaches the driver wrapped)."""
    from ray.data.aggregate import Max, Min

    r = ds.aggregate(Min(lo_col, alias_name="lo"),
                     Max(hi_col, alias_name="hi"))
    if r["lo"] is not None and (r["lo"] < 0 or r["hi"] >= 2**31):
        raise ValueError(f"{op}: node ids must be in [0, 2^31)")


def triangle_count(edges_ds, *, num_buckets: int = 16,
                   a_col: str = "a", b_col: str = "b"):
    """Exact triangle count over an undirected simple graph given as
    int64 ``(a, b)`` edge rows (duplicates and self-loops tolerated —
    normalized and deduped here).

    The skew-resistant MapReduce shape (Suri & Vassilvitskii's
    "last reducer" fix): orient every edge from its lower-(degree, id)
    endpoint to the higher one, generate length-2 paths (wedges) only
    at each edge's SOURCE — so a hub of degree D that would naively
    emit C(D, 2) wedges emits at most C(arboricity-bounded outdeg, 2)
    — and count wedges whose closing edge exists via one bucket-
    cogroup join on the packed pair key. Every stage is a vectorized
    map or a bucket cogroup; nothing graph-sized lands on the driver.

    Returns ``(n_triangles, n_edges)``.
    """
    from .joinutil import cogroup_join
    from .skew import bucket_aggregate

    def norm(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        return pa.table({"lo": np.minimum(a, b), "hi": np.maximum(a, b)})

    def pack(batch: pa.Table) -> pa.Table:
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        hi = batch["hi"].to_numpy(zero_copy_only=False)
        return pa.table({"key": (lo << _SHIFT) | hi})

    und = edges_ds.map_batches(norm, batch_format="pyarrow").materialize()
    _check_packable(und, "lo", "hi", "triangle_count")
    # distinct undirected edges, keyed once
    edges = bucket_aggregate(
        und.map_batches(pack, batch_format="pyarrow"),
        ["key"], [("count", None, "_c")],
        num_buckets=num_buckets).drop_columns(["_c"]).materialize()
    n_edges = edges.count()

    def unpack(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False)
        return pa.table({"lo": k >> _SHIFT,
                         "hi": k & np.int64(0xFFFFFFFF),
                         "key": k})

    flat = edges.map_batches(unpack, batch_format="pyarrow")

    # degree per node: one bucket aggregate over the flattened ends
    deg = bucket_aggregate(
        flat.map_batches(
            lambda b: pa.table({"node": pa.concat_arrays(
                [b["lo"].combine_chunks(), b["hi"].combine_chunks()])}),
            batch_format="pyarrow"),
        ["node"], [("count", None, "deg")], num_buckets=num_buckets)

    # orient: u -> v iff (deg(u), u) < (deg(v), v); two cogroup joins
    # attach the endpoint degrees
    e1 = cogroup_join(
        flat, deg.map_batches(
            lambda b: pa.table({"node": b["node"], "dlo": b["deg"]}),
            batch_format="pyarrow"),
        left_on="lo", right_on="node", num_buckets=num_buckets,
        left_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                               ("key", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()),
                                ("dlo", pa.int64())]))
    e2 = cogroup_join(
        e1, deg.map_batches(
            lambda b: pa.table({"node2": b["node"], "dhi": b["deg"]}),
            batch_format="pyarrow"),
        left_on="hi", right_on="node2", num_buckets=num_buckets,
        left_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                               ("key", pa.int64()), ("dlo", pa.int64())]),
        right_schema=pa.schema([("node2", pa.int64()),
                                ("dhi", pa.int64())]))

    def orient(batch: pa.Table) -> pa.Table:
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        hi = batch["hi"].to_numpy(zero_copy_only=False)
        dlo = batch["dlo"].to_numpy(zero_copy_only=False)
        dhi = batch["dhi"].to_numpy(zero_copy_only=False)
        lo_first = (dlo < dhi) | ((dlo == dhi) & (lo < hi))
        return pa.table({"u": np.where(lo_first, lo, hi),
                         "v": np.where(lo_first, hi, lo)})

    oriented = e2.map_batches(orient, batch_format="pyarrow")

    # wedges at each source u: all out-neighbor pairs, emitted as the
    # packed key of their (normalized) closing edge. One bucket
    # cogroup on u; fully vectorized triangular expansion per group.
    def tag(batch: pa.Table) -> pa.Table:
        # int mix, not bucket_of(cast-to-string): co-location by u is
        # all the wedge expansion needs, and hashing millions of ids
        # as strings costs more than the exchange (round 5)
        u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = u * np.uint64(0x9E3779B97F4A7C15)
        bk = ((h >> np.uint64(32)).astype(np.int64)
              % num_buckets).astype(np.int32)
        return batch.append_column("_bucket", pa.array(bk, pa.int32()))

    def wedges(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u_s, v_s = u[order], v[order]
        _uu, starts = np.unique(u_s, return_index=True)
        lens = np.diff(np.append(starts, len(u_s)))
        # per element: its rank r within the segment pairs with the
        # (L - 1 - r) elements after it
        ranks = np.arange(len(u_s)) - np.repeat(starts, lens)
        cnt = np.repeat(lens, lens) - 1 - ranks
        total = int(cnt.sum())
        if not total:
            return pa.table({"key": pa.array([], pa.int64())})
        first = np.repeat(np.arange(len(u_s)), cnt)
        second = first + 1 + (np.arange(total)
                              - np.repeat(np.cumsum(cnt) - cnt, cnt))
        x, y = v_s[first], v_s[second]
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        return pa.table({"key": (lo << _SHIFT) | hi})

    from .shardutil import multiway_cogroup_scatter, scatter_apply_by_value

    wedge_schema = pa.schema([("key", pa.int64())])
    cand = scatter_apply_by_value(
        oriented.map_batches(tag, batch_format="pyarrow").materialize(),
        "_bucket", num_buckets,
        lambda g: wedges(g.drop_columns(["_bucket"])),
        empty_result=wedge_schema.empty_table())

    # close wedges against the edge set in ONE cogroup: each bucket
    # counts its wedge rows whose closing-edge key exists (every
    # closed wedge is one triangle — distinct u's closing through the
    # same edge each count). Round 5: this replaces a per-key
    # bucket_aggregate PLUS a semi join (two exchanges) with one; the
    # driver folds num_buckets scalar counts, never key rows.
    cnt_schema = pa.schema([("n", pa.int64())])

    def close_count(w_tbl: pa.Table | None, e_tbl: pa.Table | None):
        if w_tbl is None or e_tbl is None or not w_tbl.num_rows:
            return cnt_schema.empty_table()
        hit = pc.is_in(w_tbl["key"],
                       value_set=e_tbl["key"].combine_chunks())
        n = pc.sum(pc.cast(hit, pa.int64())).as_py() or 0
        return pa.table({"n": pa.array([n], pa.int64())})

    closed = multiway_cogroup_scatter(
        [(cand, "key"), (edges, "key")], num_buckets, close_count,
        empty_result=cnt_schema.empty_table())
    n_tri = 0
    for b in closed.iter_batches(batch_format="pyarrow",
                                 batch_size=65536):
        n_tri += pc.sum(b["n"]).as_py() or 0
    return int(n_tri), int(n_edges)


# ---------------------------------------------------------------------------
# HITS hubs & authorities (Kleinberg 1999, "Authoritative sources in a
# hyperlinked environment") — the mutual-reinforcement iterative pair:
# a(v) = Σ_{u→v} h(u), h(u) = Σ_{u→v} a(v), each L2-normalized per
# round. Two engines sharing one update rule: a driver numpy path
# under the edge gate and a Pregel shard-actor path above it.
# ---------------------------------------------------------------------------

def _hits_driver(norm_ds, *, n_iter: int):
    import ray.data as rd

    srcs, dsts = [], []
    for b in norm_ds.iter_batches(batch_format="pyarrow",
                                  batch_size=262144):
        srcs.append(b["src"])
        dsts.append(b["dst"])
    nodes, codes = encode_node_codes(srcs + dsts)
    m = len(codes) // 2
    src_i, dst_i = codes[:m], codes[m:]
    n = len(nodes)
    h = np.full(n, 1.0 / np.sqrt(max(1, n)))
    a = h.copy()
    for _ in range(n_iter):
        a = np.bincount(dst_i, weights=h[src_i], minlength=n)
        na = np.sqrt(float((a * a).sum()))
        if na > 0:
            a /= na
        h = np.bincount(src_i, weights=a[dst_i], minlength=n)
        nh = np.sqrt(float((h * h).sum()))
        if nh > 0:
            h /= nh
    return rd.from_arrow(pa.table({
        "node": nodes,
        "hub": pa.array(h, pa.float64()),
        "auth": pa.array(a, pa.float64())}))


class _HITSShard:
    """One hubs/authorities shard, a table kernel run on
    shardutil.ShardGroup. Owns the (hub, auth) state for nodes hashing
    to its bucket plus BOTH edge splits: src-sharded edges emit hub
    mass toward dsts (the auth half-round), dst-sharded edges emit auth
    mass toward srcs (the hub half-round) — each half-round's messages
    read only LOCAL state, so a round is two emit/apply waves and two
    scalar folds (the L2 norms), zero Dataset exchanges. Both
    directions' routes are built once in load(), as in _PRShard."""

    def __init__(self, bucket: int, n_buckets: int):
        self.b, self.B = bucket, n_buckets

    def load(self, se: pa.Table, de: pa.Table) -> int:
        """``se``: edges whose src hashes here; ``de``: edges whose dst
        does."""
        from .shardutil import SumRoutes, node_set, positions

        self.nodes = node_set(se["src"], de["dst"])
        # auth half-round: hub mass flows src -> dst over src-sharded
        # edges; h(src) is local
        self.h_src_idx = positions(se["src"], self.nodes)
        self.auth_routes = SumRoutes(se["dst"], self.B)
        # hub half-round: auth mass flows dst -> src over dst-sharded
        # edges; a(dst) is local
        self.a_dst_idx = positions(de["dst"], self.nodes)
        self.hub_routes = SumRoutes(de["src"], self.B)
        return len(self.nodes)

    def init(self, n_nodes: int) -> None:
        v = 1.0 / np.sqrt(max(1, n_nodes))
        self.h = np.full(len(self.nodes), v)
        self.a = np.full(len(self.nodes), v)

    def emit_auth(self) -> list:
        return self.auth_routes.tables(self.h[self.h_src_idx])

    def emit_hub(self) -> list:
        return self.hub_routes.tables(self.a[self.a_dst_idx])

    def apply_auth(self, msg: pa.Table) -> float:
        from .shardutil import scatter_add

        self.a = scatter_add(self.nodes, msg, "m")
        return float((self.a * self.a).sum())

    def apply_hub(self, msg: pa.Table) -> float:
        from .shardutil import scatter_add

        self.h = scatter_add(self.nodes, msg, "m")
        return float((self.h * self.h).sum())

    def scale_auth(self, norm: float) -> None:
        if norm > 0:
            self.a /= norm

    def scale_hub(self, norm: float) -> None:
        if norm > 0:
            self.h /= norm

    def result(self) -> pa.Table:
        return pa.table({"node": self.nodes,
                         "hub": pa.array(self.h, pa.float64()),
                         "auth": pa.array(self.a, pa.float64())})


def _hits_actors(norm, *, n_iter: int, num_shards: int):
    from .shardutil import ShardGroup, split_dataset_by_bucket

    B = num_shards
    src_cols = split_dataset_by_bucket(norm, "src", B)
    dst_cols = split_dataset_by_bucket(norm, "dst", B)
    with ShardGroup(_HITSShard, B) as g:
        g.wave("init", n_nodes=sum(g.wave("load", src_cols, dst_cols)))
        for _ in range(n_iter):
            for half in ("auth", "hub"):
                inbox = g.relay(g.wave("emit_" + half))
                ssq = sum(g.wave("apply_" + half, inbox))
                g.wave("scale_" + half, norm=float(np.sqrt(ssq)))
        return g.collect()


def hits(edges_ds, *, n_iter: int = 20, src_col: str = "src",
         dst_col: str = "dst", max_driver_edges: int = 4_000_000,
         num_shards: int = 8, engine: str = "auto"):
    """(src, dst) string-keyed edges -> (node, hub, auth) Dataset.
    ``max_driver_edges`` gates the numpy fast path; pass 0 to force
    the shard-actor engine (parity tests do). The L2 normalization
    scalars fold on the driver each half-round — two floats per wave,
    never rank-table-sized state."""
    import ray.data as rd

    def edge_norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.cast(batch[src_col], pa.string()),
            "dst": pc.cast(batch[dst_col], pa.string()),
        })

    norm = (edges_ds.map_batches(edge_norm, batch_format="pyarrow")
            .materialize())
    n_edges = norm.count()
    if n_edges == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.string()),
            "hub": pa.array([], pa.float64()),
            "auth": pa.array([], pa.float64())}))
    if resolve_engine(engine, n_edges, max_driver_edges) == "driver":
        return _hits_driver(norm, n_iter=n_iter)
    return _hits_actors(norm, n_iter=n_iter,
                        num_shards=max(2, min(num_shards, 8)))


# ---------------------------------------------------------------------------
# k-core membership (Seidman 1983; peeling/deletion iteration — a
# different Pregel shape from rank/label propagation: state only ever
# SHRINKS, messages are degree decrements from dying nodes)
# ---------------------------------------------------------------------------

def _kcore_driver(src: np.ndarray, dst: np.ndarray, k: int):
    """Vectorized peel over int64 endpoint arrays (both directions
    present). Returns (nodes, in_core bool)."""
    nodes, inv = np.unique(np.concatenate([src, dst]),
                           return_inverse=True)
    m = len(src)
    s_i, d_i = inv[:m], inv[m:]
    n = len(nodes)
    deg = np.bincount(s_i, minlength=n)
    alive = np.ones(n, bool)
    # CSR over outgoing (== all incident, both directions present)
    order = np.argsort(s_i, kind="stable")
    s_s, d_s = s_i[order], d_i[order]
    starts = np.searchsorted(s_s, np.arange(n))
    ends = np.searchsorted(s_s, np.arange(n), side="right")
    while True:
        dying = np.flatnonzero(alive & (deg < k))
        if dying.size == 0:
            break
        alive[dying] = False
        # each dying node decrements every neighbor once
        nbr_parts = [d_s[starts[u]:ends[u]] for u in dying]
        if nbr_parts:
            nbrs = np.concatenate(nbr_parts)
            dec = np.bincount(nbrs, minlength=n)
            deg = deg - dec
    return nodes, alive


class _KCoreShard:
    """Deletion-Pregel shard, a table kernel run on
    shardutil.ShardGroup: owns alive/degree state for nodes hashing to
    its bucket plus ALL incident edges (the undirected graph ships both
    directions, sharded by source — so a node's full adjacency is
    local). A round: locally find nodes dying (alive, degree < k),
    emit per-peer decrement counts for their neighbors, apply incoming
    decrements. State only shrinks, so the fixpoint (no shard reports
    deaths) is reached in at most n rounds and usually a handful."""

    def __init__(self, bucket: int, n_buckets: int, k: int):
        self.b, self.B, self.k = bucket, n_buckets, k

    def load(self, edges: pa.Table) -> int:
        """Neighbor strings live ONCE in a local dictionary; the CSR
        adjacency and every emit wave work on int64 codes."""
        from .shardutil import dict_buckets, node_set, positions

        self.nodes = node_set(edges["src"])
        n = len(self.nodes)
        si = positions(edges["src"], self.nodes)
        self.d_dict, d_codes, self.dict_bk = dict_buckets(edges["dst"],
                                                          self.B)
        order = np.argsort(si, kind="stable")
        self.d_c = d_codes[order]
        self.off = np.searchsorted(si[order], np.arange(n + 1))
        self.deg = np.bincount(si, minlength=n)
        self.alive = np.ones(n, bool)
        return n

    def step_emit(self) -> tuple:
        """-> (n_dying, one decrement table per peer)."""
        from .shardutil import by_bucket, csr_edges

        dying = np.flatnonzero(self.alive & (self.deg < self.k))
        self.alive[dying] = False
        uc, cnt = np.unique(self.d_c[csr_edges(self.off, dying)[0]],
                            return_counts=True)
        return len(dying), by_bucket(pa.table({
            "node": self.d_dict.take(pa.array(uc, pa.int64())),
            "dec": pa.array(cnt, pa.int64())}), self.dict_bk[uc], self.B)

    def apply(self, msg: pa.Table) -> None:
        from .shardutil import scatter_add

        self.deg -= scatter_add(self.nodes, msg, "dec")

    def result(self) -> pa.Table:
        return pa.table({"node": self.nodes,
                         "in_core": pa.array(self.alive)})


def link_prediction_topk(edges_ds, *, k: int = 20,
                         num_buckets: int = 16, a_col: str = "a",
                         b_col: str = "b"):
    """Common-neighbor link prediction over undirected int64 edges:
    the top-``k`` NON-adjacent pairs by shared-neighbor count (ties
    by (a, b)), with both endpoint degrees attached — the candidate
    generator for proposing new relations in a knowledge graph (new
    skos:related edges between co-occurring concepts). All-integer:
    nothing here can flap on float ULPs.

    Shape mirrors triangle_count's skew discipline: wedge pairs
    generate per CENTER inside one task scatter (a hub of degree D
    emits C(D,2) candidate pairs — the quadratic step, bounded per
    bucket), one pair-count aggregate, one packed-key anti cogroup
    drops existing edges, two cogroup joins attach degrees, local
    top-k per block with a bounded driver merge."""
    from .joinutil import cogroup_join
    from .skew import bucket_aggregate

    def norm(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        return pa.table({"x": np.concatenate([a, b]),
                         "y": np.concatenate([b, a])})

    sym = edges_ds.map_batches(norm, batch_format="pyarrow") \
        .materialize()
    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("common", pa.int64()),
                            ("deg_a", pa.int64()),
                            ("deg_b", pa.int64())])
    if sym.count() == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())
    _check_packable(sym, "x", "x", "link_prediction")

    deg = bucket_aggregate(
        sym.map_batches(lambda t: pa.table({"node": t["x"]}),
                        batch_format="pyarrow"),
        ["node"], [("count", None, "d")], num_buckets=num_buckets)

    # wedge pairs per center: co-locate each center's neighbor list,
    # emit every unordered neighbor pair
    from .shardutil import scatter_apply_by_value

    def tag(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = x * np.uint64(0x9E3779B97F4A7C15)
        bk = ((h >> np.uint64(32)).astype(np.int64)
              % num_buckets).astype(np.int32)
        return batch.append_column("_bucket", pa.array(bk, pa.int32()))

    pair_schema = pa.schema([("key", pa.int64())])

    def wedge_pairs(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        order = np.lexsort((y, x))
        x_s, y_s = x[order], y[order]
        _u, starts = np.unique(x_s, return_index=True)
        lens = np.diff(np.append(starts, len(x_s)))
        ranks = np.arange(len(x_s)) - np.repeat(starts, lens)
        cnt = np.repeat(lens, lens) - 1 - ranks
        total = int(cnt.sum())
        if not total:
            return pair_schema.empty_table()
        first = np.repeat(np.arange(len(x_s)), cnt)
        second = first + 1 + (np.arange(total)
                              - np.repeat(np.cumsum(cnt) - cnt, cnt))
        u, v = y_s[first], y_s[second]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        ne = lo != hi
        return pa.table({"key": (lo[ne] << _SHIFT) | hi[ne]})

    cand = scatter_apply_by_value(
        sym.map_batches(tag, batch_format="pyarrow").materialize(),
        "_bucket", num_buckets, wedge_pairs,
        empty_result=pair_schema.empty_table())
    counts = bucket_aggregate(cand, ["key"],
                              [("count", None, "common")],
                              num_buckets=num_buckets)

    # drop already-adjacent pairs (packed-key anti cogroup)
    def pack_edges(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        return pa.table({"ekey": (lo << _SHIFT) | hi})

    novel = cogroup_join(
        counts, sym.map_batches(pack_edges, batch_format="pyarrow"),
        left_on="key", right_on="ekey", join_type="left anti",
        num_buckets=num_buckets,
        left_schema=pa.schema([("key", pa.int64()),
                               ("common", pa.int64())]),
        right_schema=pa.schema([("ekey", pa.int64())]))

    def unpack(t: pa.Table) -> pa.Table:
        kk = t["key"].to_numpy(zero_copy_only=False)
        return pa.table({"a": kk >> _SHIFT,
                         "b": kk & np.int64(0xFFFFFFFF),
                         "common": t["common"]})

    flat = novel.map_batches(unpack, batch_format="pyarrow")
    j1 = cogroup_join(
        flat, deg.map_batches(
            lambda t: pa.table({"n1": t["node"], "deg_a": t["d"]}),
            batch_format="pyarrow"),
        left_on="a", right_on="n1", num_buckets=num_buckets,
        left_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                               ("common", pa.int64())]),
        right_schema=pa.schema([("n1", pa.int64()),
                                ("deg_a", pa.int64())]))
    j2 = cogroup_join(
        j1, deg.map_batches(
            lambda t: pa.table({"n2": t["node"], "deg_b": t["d"]}),
            batch_format="pyarrow"),
        left_on="b", right_on="n2", num_buckets=num_buckets,
        left_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                               ("common", pa.int64()),
                               ("deg_a", pa.int64())]),
        right_schema=pa.schema([("n2", pa.int64()),
                                ("deg_b", pa.int64())]))

    def local_topk(t: pa.Table, _k=k) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        c = t["common"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a, -c))[:_k]
        return t.take(pa.array(order, pa.int64())).select(
            ["a", "b", "common", "deg_a", "deg_b"])

    parts = [b for b in j2.map_batches(
        local_topk, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow")]
    allc = (pa.concat_tables(parts).combine_chunks() if parts
            else out_schema.empty_table())
    a = allc["a"].to_numpy(zero_copy_only=False)
    b = allc["b"].to_numpy(zero_copy_only=False)
    c = allc["common"].to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a, -c))[:k]
    import ray.data as rd

    return rd.from_arrow(allc.take(pa.array(order, pa.int64()))
                         .cast(out_schema))


def bfs_hops(edges_ds, *, n_seeds: int = 3, max_hops: int = 4,
             a_col: str = "a", b_col: str = "b",
             max_driver_edges: int = 4_000_000, num_buckets: int = 16,
             engine: str = "auto"):
    """Bounded multi-source BFS over undirected int64 ``(a, b)`` edge
    rows: hop distance from the ``n_seeds`` SMALLEST node ids, out to
    ``max_hops``. Returns (node, hops) for reached nodes only —
    exactly a bounded recursive-CTE transitive closure with min-hop
    semantics, so DuckDB can verify it row-for-row.

    Engines (graph.resolve_engine contract): ``driver`` runs a numpy
    frontier sweep over dictionary codes under the edge gate;
    ``actors`` (the distributed path — BFS is bounded-round, so here
    it is a Dataset-loop rather than a long-lived Pregel shard: one
    frontier⋈edges cogroup plus one frontier-dedup anti pass per
    round, ``max_hops`` rounds total, nothing node-set-sized on the
    driver)."""
    import ray.data as rd

    from .joinutil import cogroup_join
    from .skew import bucket_aggregate

    def norm(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        return pa.table({"x": np.concatenate([a, b]),
                         "y": np.concatenate([b, a])})

    sym = edges_ds.map_batches(norm, batch_format="pyarrow") \
        .materialize()
    n_edges = sym.count()
    out_schema = pa.schema([("node", pa.int64()), ("hops", pa.int64())])
    if n_edges == 0:
        return rd.from_arrow(out_schema.empty_table())

    # seeds: the n smallest node ids — per-block partial mins folded
    # on the driver (num_blocks × n rows, never the node set)
    partial = [b for b in sym.map_batches(
        lambda t: pa.table({"x": pa.array(np.sort(np.unique(
            t["x"].to_numpy(zero_copy_only=False)))[:n_seeds],
            pa.int64())}),
        batch_format="pyarrow").iter_batches(batch_format="pyarrow")]
    seeds = np.sort(np.unique(np.concatenate(
        [p["x"].to_numpy(zero_copy_only=False) for p in partial
         if p.num_rows])))[:n_seeds]

    if resolve_engine(engine, n_edges, max_driver_edges) == "driver":
        xs, ys = [], []
        for b in sym.iter_batches(batch_format="pyarrow",
                                  batch_size=262144):
            xs.append(b["x"].to_numpy(zero_copy_only=False))
            ys.append(b["y"].to_numpy(zero_copy_only=False))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        nodes, inv_x = np.unique(x, return_inverse=True)
        iy = np.searchsorted(nodes, y)
        dist = np.full(len(nodes), -1, np.int64)
        dist[np.searchsorted(nodes, seeds)] = 0
        frontier = dist == 0
        for h in range(1, max_hops + 1):
            hit = frontier[inv_x]
            cand = np.unique(iy[hit])
            new = cand[dist[cand] < 0]
            if new.size == 0:
                break
            dist[new] = h
            frontier = np.zeros(len(nodes), bool)
            frontier[new] = True
        reached = dist >= 0
        return rd.from_arrow(pa.table({
            "node": pa.array(nodes[reached], pa.int64()),
            "hops": pa.array(dist[reached], pa.int64())}))

    # Dataset-loop engine: bounded rounds, every exchange task-level
    reach = rd.from_arrow(pa.table({
        "node": pa.array(seeds, pa.int64()),
        "h": pa.array(np.zeros(seeds.size, np.int64))})).materialize()
    frontier = reach
    parts = [reach]
    for h in range(1, max_hops + 1):
        nbr = cogroup_join(
            frontier.map_batches(
                lambda t: pa.table({"f_node": t["node"]}),
                batch_format="pyarrow"),
            sym, left_on="f_node", right_on="x", join_type="inner",
            num_buckets=num_buckets,
            left_schema=pa.schema([("f_node", pa.int64())]),
            right_schema=pa.schema([("x", pa.int64()),
                                    ("y", pa.int64())]))
        cand = bucket_aggregate(
            nbr.map_batches(lambda t: pa.table({"node": t["y"]}),
                            batch_format="pyarrow"),
            ["node"], [("count", None, "_n")],
            num_buckets=num_buckets).drop_columns(["_n"])
        seen = rd.from_arrow_refs(
            [r for p in parts for r in p.to_arrow_refs()])
        new = cogroup_join(
            cand, seen.map_batches(
                lambda t: pa.table({"s_node": t["node"]}),
                batch_format="pyarrow"),
            left_on="node", right_on="s_node", join_type="left anti",
            num_buckets=num_buckets,
            left_schema=pa.schema([("node", pa.int64())]),
            right_schema=pa.schema([("s_node", pa.int64())]))
        frontier = new.map_batches(
            lambda t, _h=h: t.append_column(
                "h", pa.array(np.full(t.num_rows, _h, np.int64))),
            batch_format="pyarrow").materialize()
        if frontier.count() == 0:
            break
        parts.append(frontier)
    allr = rd.from_arrow_refs(
        [r for p in parts for r in p.to_arrow_refs()])
    out = bucket_aggregate(allr, ["node"], [("min", "h", "hops")],
                           num_buckets=num_buckets)
    return out


def _kcore_actors(norm, *, k: int, num_shards: int):
    from .shardutil import ShardGroup, split_dataset_by_bucket

    B = num_shards
    cols = split_dataset_by_bucket(norm, "src", B)
    with ShardGroup(_KCoreShard, B, k) as g:
        g.wave("load", cols)
        while True:
            outs = g.wave("step_emit")
            if sum(o[0] for o in outs) == 0:
                break
            g.wave("apply", g.relay([o[1] for o in outs]))
        return g.collect()


def kcore(edges_ds, *, k: int, a_col: str = "a", b_col: str = "b",
          max_driver_edges: int = 4_000_000, num_shards: int = 8,
          engine: str = "auto"):
    """Undirected (a, b) edge rows -> (node, in_core) Dataset: the
    maximal subgraph where every member keeps >= k neighbors after
    iterative peeling. Self-loops dropped; duplicate edge rows COUNT
    toward degree on both engines (normalize upstream if multi-edges
    should collapse)."""
    import ray.data as rd

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = pc.cast(batch[a_col], pa.string()).combine_chunks()
        b = pc.cast(batch[b_col], pa.string()).combine_chunks()
        keep = pc.invert(pc.equal(a, b))
        a, b = a.filter(keep), b.filter(keep)
        return pa.table({"src": pa.concat_arrays([a, b]),
                         "dst": pa.concat_arrays([b, a])})

    norm = (edges_ds.map_batches(both_dirs, batch_format="pyarrow")
            .materialize())
    n_edges = norm.count()
    if n_edges == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                       "in_core": pa.array([], pa.bool_())}))
    if resolve_engine(engine, n_edges, max_driver_edges) == "driver":
        srcs, dsts = [], []
        for b in norm.iter_batches(batch_format="pyarrow",
                                   batch_size=262144):
            srcs.append(b["src"])
            dsts.append(b["dst"])
        nodes_pa, codes = encode_node_codes(srcs + dsts)
        m = len(codes) // 2
        node_c, alive = _kcore_driver(codes[:m], codes[m:], k)
        return rd.from_arrow(pa.table({
            "node": nodes_pa.take(pa.array(node_c, pa.int64())),
            "in_core": pa.array(alive)}))
    return _kcore_actors(norm, k=k,
                         num_shards=max(2, min(num_shards, 8)))
