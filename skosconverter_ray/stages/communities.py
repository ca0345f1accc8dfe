"""Community detection: synchronous label propagation (LPA).

Raghavan et al. 2007 (arXiv:0709.2938), made deterministic: every
node starts labeled with its own id; each synchronous round a node
adopts the label that the most neighbor VOTES carry (multi-edges =
multiple votes; edges count in both directions), ties broken by the
lexicographically smallest label. Fixed round count with early exit
when no label changes. Determinism makes the result oracle-checkable
— classic asynchronous LPA is order-dependent.

This is the fourth operator on the engine's iterative tier, and the
first with MODE (argmax-count) message aggregation rather than a sum:

- **driver** (≤ ``max_driver_edges``): one np.unique over
  ``dst * n + label`` composite keys per round, then a
  (dst, -count, label) lexsort picking the first row per dst.
- **actors**: Pregel shard actors (shardutil.ShardGroup, same
  discipline as PageRank: nodes + labels sharded by node hash,
  symmetrized edges co-located by src hash so emission is local;
  per round one emit wave of per-(dst, label) pre-aggregated count
  tables routed by dst hash + one apply wave folding counts and
  re-labeling; zero Dataset exchanges per round). Integer counts and
  the same tie rule make the two engines bit-identical.

The reference CLI has no graph algorithms; this extends the engine's
LLM/KG operator set (SURVEY §2.9b) alongside PageRank, connected
components, and triangle counting.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _mode_per_dst(dst: np.ndarray, lbl: np.ndarray, cnt: np.ndarray):
    """(dst, label, count) rows -> per-dst winning label
    (max count, then lexicographically smallest label).
    Inputs may repeat (dst, label) — counts are summed first.
    Returns (uniq_dst, winning_label) object arrays."""
    if len(dst) == 0:
        return dst, lbl
    order = np.lexsort((lbl, dst))
    d_s, l_s, c_s = dst[order], lbl[order], cnt[order]
    bound = np.r_[True, (d_s[1:] != d_s[:-1]) | (l_s[1:] != l_s[:-1])]
    starts = np.flatnonzero(bound)
    sums = np.add.reduceat(c_s, starts)
    d_u, l_u = d_s[starts], l_s[starts]
    # winner: first row per dst after (dst asc, count desc, label asc)
    order2 = np.lexsort((l_u, -sums, d_u))
    d_o, l_o = d_u[order2], l_u[order2]
    first = np.r_[True, d_o[1:] != d_o[:-1]]
    return d_o[first], l_o[first]


def _lpa_driver(norm_ds, *, n_iter: int):
    """Vectorized numpy fast path over a pinned (src, dst) Dataset."""
    import ray.data as rd

    from .graph import encode_node_codes

    srcs, dsts = [], []
    for b in norm_ds.iter_batches(batch_format="pyarrow",
                                  batch_size=262144):
        srcs.append(b["src"])
        dsts.append(b["dst"])
    nodes, codes = encode_node_codes(srcs + dsts)
    m = len(codes) // 2
    # symmetrize: votes flow both ways along every edge row
    es = np.concatenate([codes[:m], codes[m:]])
    ed = np.concatenate([codes[m:], codes[:m]])
    n = len(nodes)
    lbl = np.arange(n, dtype=np.int64)
    for _ in range(n_iter):
        key = ed * np.int64(n) + lbl[es]
        uk, cnt = np.unique(key, return_counts=True)
        kd, kl = uk // n, uk % n
        order = np.lexsort((kl, -cnt, kd))
        kd_o, kl_o = kd[order], kl[order]
        first = np.r_[True, kd_o[1:] != kd_o[:-1]]
        new = lbl.copy()
        new[kd_o[first]] = kl_o[first]
        if (new == lbl).all():
            break
        lbl = new
    # code order == lexicographic node order (encode_node_codes
    # recodes by sorted dictionary), so min index == min label string
    # — same tie rule as the actor path
    return rd.from_arrow(pa.table({
        "node": nodes,
        "label": nodes.take(pa.array(lbl, pa.int64()))}))


class _LPAShard:
    """One label shard, a table kernel run on shardutil.ShardGroup:
    nodes with ``bucket_of(node) == b`` plus every symmetrized edge
    whose SRC hashes here (vote emission is local). Per round:
    ``emit`` pre-aggregates (dst, label, count) and returns one table
    per peer; ``apply`` folds inbound counts, picks the per-dst mode
    and reports how many labels changed."""

    def __init__(self, bucket: int, n_buckets: int):
        self.b, self.B = bucket, n_buckets

    def load(self, edges: pa.Table, dst_edges: pa.Table) -> int:
        """Arrow-native loader (round 5): edge destinations live once
        in a local dictionary; routing and per-wave vote aggregation
        work on int64 codes, and the only string materialization per
        wave is one dictionary take over the DISTINCT (dst, label)
        winners."""
        from .shardutil import dict_buckets, node_set, positions

        nodes = node_set(edges["src"], dst_edges["dst"])
        self.nodes = np.asarray(nodes.to_pylist(), dtype=object)
        self.src_idx = positions(edges["src"], nodes)
        self.d_dict, self.d_c, self.dict_bk = dict_buckets(edges["dst"],
                                                           self.B)
        self.labels = self.nodes.copy()  # own id
        return len(self.nodes)

    def emit(self) -> list:
        from .shardutil import by_bucket

        # per-wave label dictionary: labels are node-id strings from a
        # set that grows only by incoming winners, so encode ONCE per
        # wave and aggregate votes on packed int keys
        enc = pa.array(self.labels.tolist(), pa.string()).dictionary_encode()
        L = np.int64(max(1, len(enc.dictionary)))
        l_codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        uk, cnt = np.unique(self.d_c * L + l_codes[self.src_idx],
                            return_counts=True)
        kd = uk // L
        return by_bucket(pa.table({
            "dst": self.d_dict.take(pa.array(kd, pa.int64())),
            "lbl": enc.dictionary.take(pa.array(uk % L, pa.int64())),
            "cnt": pa.array(cnt, pa.int64())}), self.dict_bk[kd], self.B)

    def apply(self, msg: pa.Table) -> int:
        if not msg.num_rows:
            return 0
        d = np.asarray(msg["dst"].to_pylist(), dtype=object)
        l = np.asarray(msg["lbl"].to_pylist(), dtype=object)
        c = msg["cnt"].to_numpy()
        d_u, l_win = _mode_per_dst(d, l, c)
        idx = np.searchsorted(self.nodes, d_u)
        ok = (idx < len(self.nodes)) & (self.nodes[np.minimum(
            idx, len(self.nodes) - 1)] == d_u)
        if not ok.all():
            raise AssertionError("message dst outside its label shard")
        changed = int((self.labels[idx] != l_win).sum())
        self.labels[idx] = l_win
        return changed

    def result(self) -> pa.Table:
        return pa.table({
            "node": pa.array(self.nodes.tolist(), pa.string()),
            "label": pa.array(self.labels.tolist(), pa.string())})


def _lpa_actors(norm, *, n_iter: int, num_shards: int):
    from .shardutil import ShardGroup, split_dataset_by_bucket

    B = num_shards

    def sym(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.concat_arrays([batch["src"].combine_chunks(),
                                     batch["dst"].combine_chunks()]),
            "dst": pa.concat_arrays([batch["dst"].combine_chunks(),
                                     batch["src"].combine_chunks()]),
        })

    sym_ds = norm.map_batches(sym, batch_format="pyarrow").materialize()
    src_cols = split_dataset_by_bucket(sym_ds, "src", B)
    dst_cols = split_dataset_by_bucket(sym_ds, "dst", B)
    with ShardGroup(_LPAShard, B) as g:
        g.wave("load", src_cols, dst_cols)
        for _ in range(n_iter):
            inbox = g.relay(g.wave("emit"))
            if sum(g.wave("apply", inbox)) == 0:
                break
        return g.collect()


def label_propagation(edges_ds, *, n_iter: int = 5,
                      src_col: str = "src", dst_col: str = "dst",
                      max_driver_edges: int = 4_000_000,
                      num_shards: int = 8, engine: str = "auto"):
    """(src, dst) string-keyed edge Dataset -> (node, label) Dataset;
    ``label`` is the community id (some member's node id).

    Size-gated like pagerank/canonicalize: numpy driver fast path at
    or below ``max_driver_edges`` edge rows (pass 0 to force the
    distributed engine — parity tests do), Pregel shard actors above.
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
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.string()),
            "label": pa.array([], pa.string())}))
    from .graph import resolve_engine

    if resolve_engine(engine, n_edges, max_driver_edges) == "driver":
        return _lpa_driver(norm, n_iter=n_iter)
    return _lpa_actors(norm, n_iter=n_iter, num_shards=num_shards)


def label_propagation_sequential(src: list, dst: list,
                                 n_iter: int = 5) -> dict:
    """Independent plain-Python oracle with identical semantics."""
    nodes = sorted({*src, *dst})
    nbrs: dict = {v: [] for v in nodes}
    for a, b in zip(src, dst):
        nbrs[a].append(b)
        nbrs[b].append(a)
    lbl = {v: v for v in nodes}
    for _ in range(n_iter):
        new = {}
        for v in nodes:
            counts: dict = {}
            for u in nbrs[v]:
                counts[lbl[u]] = counts.get(lbl[u], 0) + 1
            if counts:
                new[v] = min(counts, key=lambda k: (-counts[k], k))
            else:
                new[v] = lbl[v]
        if new == lbl:
            break
        lbl = new
    return lbl
