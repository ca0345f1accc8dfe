"""URI canonicalization: distributed union-find over owl:sameAs /
skos:exactMatch clusters (graft A8; seed semantics from the reference's
``get_same_as`` read, skos_converter.py:644-647).

Algorithm: exact union-find on the driver for a dimension-sized
equivalence graph; above that gate, hash-min label propagation on
shard actors. Each node's label starts as itself; every round each
node takes the min of its own label and its neighbors' labels, plus
pointer doubling, over the *equivalence graph only* (vocabulary-sized,
not corpus-sized); rounds are capped. The canonical URI of a cluster
is its lexicographic min — deterministic on every worker (same
tiebreak discipline as SURVEY.md D5).

The rewrite (J7) is applied to the *corpus-sized* triples table as a
broadcast map — canon_map is dimension-sized, shipped once via
``ray.put`` — so no corpus-wide shuffle join is needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import OWL_SAME_AS, SKOS_EXACT_MATCH

_EQUIV_PREDS = (OWL_SAME_AS, SKOS_EXACT_MATCH)


def equivalence_edges(triples_ds):
    """Filter sameAs/exactMatch triples -> symmetric (node, peer) pairs."""

    def emit(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.is_in(batch["pred"], value_set=pa.array(list(_EQUIV_PREDS))),
            pc.invert(batch["obj_is_literal"]),
        )
        t = batch.filter(mask)
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t["subj"].combine_chunks(), t["obj"].combine_chunks()]
                ),
                "peer": pa.concat_arrays(
                    [t["obj"].combine_chunks(), t["subj"].combine_chunks()]
                ),
            }
        )

    return triples_ds.map_batches(emit, batch_format="pyarrow")


def _rank_array(uris, preferred_ns: str | None) -> pa.Array:
    """Vectorized rank prefix: '0|uri' (preferred ns) < '1|uri'."""
    if isinstance(uris, pa.ChunkedArray):
        uris = uris.combine_chunks()
    if preferred_ns:
        pref = pc.starts_with(uris, pattern=preferred_ns)
        prefix = pc.if_else(pref, "0|", "1|")
    else:
        prefix = pa.array(["1|"] * len(uris), pa.string())
    return pc.binary_join_element_wise(prefix, uris, "")


def canonical_map(triples_ds, *, max_rounds: int = 64,
                  preferred_ns: str | None = None,
                  num_buckets: int = 64, engine: str = "auto"):
    """-> canon_map Dataset (uri, canonical_uri), non-trivial rows only.

    Connected components over the symmetric sameAs/exactMatch edges
    (components_min_label). A dimension-sized equivalence graph is
    solved by exact union-find on the driver; above the gate, hash-min
    label propagation runs on Pregel-tier shard actors
    (shardutil.ShardGroup; zero Dataset exchanges per round). Labels
    stay DISTRIBUTED there: each shard owns its nodes' labels and
    adjacency, and the driver sees only the changed-count scalar per
    round — never a node→label dict — so the path is bounded by
    per-shard memory, not driver memory.

    Each round ALSO follows pointer-jump requests (node → its current
    label → that label's label), so a node adopts its label's label —
    classic pointer doubling. Convergence is O(log diameter) rounds
    instead of O(diameter), which matters because per-round cost is
    dominated by fixed wave latency, not data volume. ``max_rounds``
    caps pathological graphs.

    ``preferred_ns``: URIs under this namespace outrank foreign URIs as
    cluster representatives (so an ``owl:sameAs`` alias never replaces
    a real vocabulary concept). Implemented by rank-prefixing the
    propagated labels ("0|uri" < "1|uri"), which keeps the whole
    algorithm a plain string-min.
    """
    return components_min_label(equivalence_edges(triples_ds),
                                max_rounds=max_rounds,
                                preferred_ns=preferred_ns,
                                num_buckets=num_buckets, engine=engine)


def _min_rows(keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Row of the min of ``vals`` for each distinct key, in key
    order."""
    o = np.lexsort((vals, keys))
    return o[np.unique(keys[o], return_index=True)[1]]


class _CCShard:
    """One connected-components shard, a table kernel run on
    shardutil.ShardGroup (see components_min_label). Holds the label
    state and adjacency for nodes with ``bucket_of(node) == b``. A
    round is hash-min with pointer jumping, three waves:

    - **emit**: changed nodes push their label to every neighbor
      (labels only decrease, so unchanged nodes have nothing new to
      say), and the shard requests ``label(label(node))`` for each of
      its DISTINCT current labels (pointer doubling);
    - **serve**: answer incoming jump requests from local labels;
    - **apply**: min-merge neighbor candidates + jump answers,
      returning the changed count for the driver's termination fold.

    Only changed nodes resend (min is idempotent; a resend from an
    unchanged node can never lower a min the receiver hasn't already
    seen), so the fixpoint is the driver union-find's — pinned by the
    forced-path parity tests."""

    def __init__(self, bucket: int, n_buckets: int,
                 preferred_ns: str | None):
        self.b, self.B, self.ns = bucket, n_buckets, preferred_ns

    def load(self, t: pa.Table) -> int:
        """Arrow/numpy shard state (round 4): one sort of the edge
        table into CSR adjacency — object-dtype numpy views share the
        PyStr objects, no per-edge tuples/lists. Peer routing buckets
        are hashed on the SAME flattened (CSR) order they are emitted
        in."""
        from ..functions.hashing import bucket_of

        order = pc.sort_indices(t["node"])
        node_np = t["node"].take(order).to_numpy()
        peer_s = t["peer"].take(order)
        self.nodes_np, starts = np.unique(node_np, return_index=True)
        self.nodes = pa.array(self.nodes_np, pa.string())
        self.off = np.append(starts.astype(np.int64), len(node_np))
        self.peers = peer_s.to_numpy()
        self.peer_bk = bucket_of(peer_s, self.B) \
            .to_numpy(zero_copy_only=False)
        # seed: min(rank(self), min rank(peer)) per CSR segment —
        # segments are non-empty by construction (nodes come from edges)
        self.label = _rank_array(self.nodes, self.ns) \
            .to_numpy(zero_copy_only=False)
        if len(self.peers):
            peer_rank = _rank_array(peer_s, self.ns) \
                .to_numpy(zero_copy_only=False)
            self.label = np.minimum(
                self.label, np.minimum.reduceat(peer_rank, self.off[:-1]))
        self.changed = np.arange(len(self.nodes_np), dtype=np.int64)
        return len(self.nodes_np)

    def emit(self) -> tuple:
        """-> (one min-candidate table per peer, one jump-request
        table per peer)."""
        from ..functions.hashing import bucket_of
        from .shardutil import by_bucket, csr_edges

        idx, src = csr_edges(self.off, self.changed)
        self.changed = np.empty(0, np.int64)
        # pre-aggregate the min label per dst before shipping
        dst, cand = self.peers[idx], self.label[src]
        r = _min_rows(dst, cand)
        msgs = by_bucket(pa.table({"node": pa.array(dst[r], pa.string()),
                                   "cand": pa.array(cand[r], pa.string())}),
                         self.peer_bk[idx[r]], self.B)
        # jump requests: one per DISTINCT label, routed to the label's
        # owner shard; answers broadcast back to every local holder
        lab = pa.array(np.unique(self.label), pa.string())
        reqs = by_bucket(pa.table({"lab": lab}), bucket_of(
            pc.utf8_slice_codeunits(lab, 2), self.B)
            .to_numpy(zero_copy_only=False), self.B)
        return msgs, reqs

    def serve(self, req: pa.Table) -> list:
        # answers are keyed by the label string itself (requesters are
        # anonymous), so ONE (lab -> label(lab)) table goes to every
        # shard — one row per distinct label per round
        labs = pa.array(np.unique(req["lab"].to_numpy()), pa.string())
        iv = pc.index_in(pc.utf8_slice_codeunits(labs, 2),
                         value_set=self.nodes)
        valid = pc.is_valid(iv)
        ivn = iv.filter(valid).to_numpy(zero_copy_only=False)
        return [pa.table({
            "lab": labs.filter(valid),
            "lab2": pa.array(self.label[ivn.astype(np.int64)],
                             pa.string())})] * self.B

    def apply(self, msg: pa.Table, ans: pa.Table) -> int:
        old = self.label.copy()
        iv = pc.index_in(msg["node"], value_set=self.nodes)
        valid = pc.is_valid(iv)
        np.minimum.at(self.label, iv.filter(valid)
                      .to_numpy(zero_copy_only=False).astype(np.int64),
                      msg["cand"].filter(valid).to_numpy())
        # pointer jumping: label -> min label(label) over all answers
        la, l2 = ans["lab"].to_numpy(), ans["lab2"].to_numpy()
        r = _min_rows(la, l2)
        u, best = la[r], l2[r]
        pos = np.searchsorted(u, self.label)
        hit = np.flatnonzero(pos < len(u))
        hit = hit[u[pos[hit]] == self.label[hit]]
        self.label[hit] = np.minimum(self.label[hit], best[pos[hit]])
        self.changed = np.flatnonzero(self.label != old)
        return len(self.changed)

    def result(self) -> pa.Table:
        lab_pa = pa.array(self.label, pa.string())
        canon = pc.utf8_slice_codeunits(lab_pa, 2)
        keep = pc.not_equal(canon, self.nodes)
        return pa.table({"uri": self.nodes.filter(keep),
                         "canonical_uri": canon.filter(keep)})


def _components_actors(edges, *, max_rounds: int, preferred_ns,
                       num_buckets: int):
    """Shard-actor engine for components_min_label (the same Pregel
    tier as stages/graph._PRShard): zero Dataset exchanges per round,
    the driver relays refs and folds the changed-count scalar."""
    from .shardutil import ShardGroup, split_dataset_by_bucket

    B = max(2, min(num_buckets, 8))
    edge_cols = split_dataset_by_bucket(edges, "node", B)
    with ShardGroup(_CCShard, B, preferred_ns) as g:
        g.wave("load", edge_cols)
        for _ in range(max_rounds):
            outs = g.wave("emit")
            answers = g.wave("serve", g.relay([o[1] for o in outs]))
            n_changed = sum(g.wave("apply", g.relay([o[0] for o in outs]),
                                   g.relay(answers)))
            if n_changed == 0:
                break
        return g.collect()


def components_min_label(edges_ds, *, max_rounds: int = 64,
                         preferred_ns: str | None = None,
                         num_buckets: int = 64, engine: str = "auto"):
    """Connected components over symmetric (node, peer) string edges ->
    (uri, canonical_uri) non-trivial member rows; representative = min
    by (rank, value). The general primitive behind
    :func:`canonical_map` — near-dup cluster assignment reuses it with
    padded numeric ids. ``engine`` follows graph.resolve_engine: exact
    driver union-find at or below ``_DRIVER_UF_MAX`` edges (no
    per-round scheduling latency), hash-min propagation with pointer
    doubling on ``min(num_buckets, 8)`` shard actors above it (bounded
    driver memory; ``max_rounds`` caps pathological graphs)."""
    import ray.data as rd

    from .graph import resolve_engine

    edges = edges_ds.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(
            pa.table({"uri": pa.array([], pa.string()),
                      "canonical_uri": pa.array([], pa.string())})
        )
    if resolve_engine(engine, n_edges, _DRIVER_UF_MAX) == "driver":
        return rd.from_arrow(_union_find(
            (e for b in edges.iter_batches(batch_format="pyarrow",
                                           batch_size=65536)
             for e in zip(b["node"].to_pylist(), b["peer"].to_pylist())),
            preferred_ns))
    return _components_actors(edges, max_rounds=max_rounds,
                              preferred_ns=preferred_ns,
                              num_buckets=num_buckets)


_DRIVER_UF_MAX = 4_000_000


def canonical_map_table(vocab_triples: pa.Table, *,
                        preferred_ns: str | None = None) -> pa.Table:
    """Pure in-memory canonical_map for an already-materialized
    vocabulary table: same representative rule (min by (rank, uri))
    as the Dataset paths, but zero Ray jobs. Use when the equivalence
    source is dimension-sized and already on the driver (e.g. the
    flagship's vocab table), saving the fixed per-job scheduling
    latency of materialize/count/iter_batches round-trips."""
    mask = pc.and_(
        pc.is_in(vocab_triples["pred"],
                 value_set=pa.array(list(_EQUIV_PREDS))),
        pc.invert(pc.cast(vocab_triples["obj_is_literal"], pa.bool_())
                  .fill_null(False)),
    )
    t = vocab_triples.filter(mask)
    return _union_find(zip(t["subj"].to_pylist(), t["obj"].to_pylist()),
                       preferred_ns)


def _union_find(edges, preferred_ns: str | None) -> pa.Table:
    """Exact in-memory union-find over ``(a, b)`` string edges -> the
    non-trivial (uri, canonical_uri) rows, in first-seen order.

    Representative = min over the component by (rank, uri), rank 0 for
    a uri under ``preferred_ns`` and 1 otherwise: identical to what
    converged hash-min propagation computes, so the driver and actor
    engines are interchangeable."""
    def rank(uri: str):
        return (0 if preferred_ns and uri.startswith(preferred_ns) else 1,
                uri)

    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=rank)
            parent[hi] = lo

    uris, canons = [], []
    for x in list(parent):
        r = find(x)
        if r != x:
            uris.append(x)
            canons.append(r)
    return pa.table({"uri": pa.array(uris, pa.string()),
                     "canonical_uri": pa.array(canons, pa.string())})


def _broadcast_map(ds, key_col: str, val_col: str):
    """Small Dataset -> ray.put dict (broadcast-side lookup).

    The equivalence graph is vocabulary-sized; at 10^12-doc scale it is
    still ≪ corpus. If it ever outgrew one node, replace with a
    bucketed hash join (guide §Joins)."""
    import ray

    d: dict[str, str] = {}
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=65536):
        d.update(zip(batch[key_col].to_pylist(), batch[val_col].to_pylist()))
    return ray.put(d)


def canonical_map_ref(canon_map: pa.Table):
    """An in-memory canonical map (``canonical_map_table``) -> the
    ``ray.put`` ref of its ``uri -> canonical_uri`` dict, the broadcast
    ``apply_canonicalization`` rewrites through."""
    import ray

    return ray.put(dict(zip(canon_map["uri"].to_pylist(),
                            canon_map["canonical_uri"].to_pylist())))


def apply_canonicalization(triples_ds, canon_map_ds):
    """Rewrite subj and non-literal obj through canon_map (graft J7).

    Broadcast map application per batch — zero shuffles on the big
    side. Equivalence triples collapse to self-loops and are dropped;
    callers should dedup afterwards. ``canon_map_ds`` may be a Dataset,
    an in-memory ``pa.Table`` (from ``canonical_map_table``), or the
    dict ref ``canonical_map_ref`` made of one (so a caller that
    rewrites many datasets through one map puts it once)."""
    import ray

    if isinstance(canon_map_ds, ray.ObjectRef):
        ref = canon_map_ds
    elif isinstance(canon_map_ds, pa.Table):
        ref = canonical_map_ref(canon_map_ds)
    else:
        ref = _broadcast_map(canon_map_ds, "uri", "canonical_uri")

    def rewrite(batch: pa.Table, _ref=ref) -> pa.Table:
        cmap = ray.get(_ref)
        if not cmap:
            return batch
        keys = pa.array(list(cmap.keys()), pa.string())
        vals = pa.array(list(cmap.values()), pa.string())

        def remap(col: pa.ChunkedArray, keep_mask=None) -> pa.Array:
            # vectorized dict substitution: index_in + take, original
            # value where the key is absent (or masked out)
            col = col.combine_chunks()
            idx = pc.index_in(col, value_set=keys)
            hit = pc.is_valid(idx)
            if keep_mask is not None:
                hit = pc.and_(hit, keep_mask)
            mapped = pc.take(vals, pc.fill_null(idx, 0))
            return pc.if_else(hit, mapped, col)

        not_lit = pc.invert(pc.cast(batch["obj_is_literal"], pa.bool_())
                            .combine_chunks().fill_null(False))
        out = batch.set_column(
            batch.schema.get_field_index("subj"), "subj",
            remap(batch["subj"]))
        out = out.set_column(
            out.schema.get_field_index("obj"), "obj",
            remap(batch["obj"], keep_mask=not_lit))
        # drop equivalence self-loops created by the rewrite
        mask = pc.invert(
            pc.and_(
                pc.equal(out["subj"], out["obj"]),
                pc.is_in(out["pred"], value_set=pa.array(list(_EQUIV_PREDS))),
            )
        )
        return out.filter(mask)

    return triples_ds.map_batches(rewrite, batch_format="pyarrow")
