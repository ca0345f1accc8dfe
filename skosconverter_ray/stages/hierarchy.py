"""Hierarchy materialization: schemes, display parents, orphans,
containers, and the globally-ordered ``tree_rows`` render IR
(SURVEY.md J1-J3, O1, U1; reference ``build_hierarchy``
skos_converter.py:664-762 and the recursive row builders 764-888).

One engine, built from ``pa.Table -> pa.Table`` kernels:
``pivot_table`` (stages/concepts.py) and ``min_parent`` give the
skeleton (one row per subject: label, scheme, flags, display parent,
sort segment); ``scheme_table`` and ``child_edges`` cut it into the
tiny scheme dimension and the display-parent edges; ``_TreeShard``
places every concept by iterative min-path propagation and finalizes
its rows; ``_headers`` adds the scheme, container and unassigned
header rows. Where the kernels run is the SKOS size gate
(``concepts.DRIVER_MAX_TRIPLES``, ``graph.resolve_engine`` contract):

- ``driver``: one materialize, one Arrow table, every kernel
  in-process, ``_TreeShard(0, 1, max_depth)`` iterating
  ``emit``/``apply`` on the driver, and the sorted result returned as
  a one-block Dataset (``concepts.local_dataset``);
- ``actors``: the skeleton kernel runs per uri bucket after one
  ``shardutil.multiway_cogroup_scatter`` of triples (on ``subj``) and
  edges (on ``child``), the edges move once more to their parent's
  bucket, the scheme table is broadcast, and the same ``_TreeShard``
  runs on ``ShardGroup(_TreeShard, B)``, whose trampoline moves its
  candidate tables between actors as object refs. No driver-sized
  state.

Why propagation equals the reference DFS: each concept has exactly one
display parent (min parent URI), so the hierarchy is a functional
graph, and the DFS visits placements in lexicographic order of their
paths. A concept's placement is therefore the smaller of its own root
placement (top or orphan) and its display parent's final placement
extended by its segment, the latter only while the parent sits above
``cfg.max_hierarchy_depth`` (the reference's recursion bound; a visit
cut off there does not mark the node, so a later root may still place
it). A round re-applies that rule to every node whose parent changed,
until no node changes. It re-derives rather than min-merges: a parent
that later finds a smaller path at the depth cap takes its children's
earlier placement away. A value depends only on its parent's, so a
chain settles downward from the nearest root that keeps its root
placement; on a cycle the root with the smallest root path is one, so
the rounds end. The path is the row's ``sort_key``, so one sort gives
DFS preorder.

Determinism decisions (SURVEY.md D5): display parent = min(parent URI);
sibling order = (label, uri); schemes ordered by (label, uri);
containers render after regular subtrees, [UNASSIGNED CONCEPTS] last
(reference emission order 825-879), unassigned concepts render flat
(ref 866-879).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..config import SKOS_BROADER, SKOS_NARROWER, EngineConfig
from ..functions.text import concat_array as _cat
from .concepts import (TRIPLE_COLS, conform, local_dataset,
                       materialize_and_place, n_buckets, pivot_table,
                       run_stage, table_of)

OTHER_DEF = "Concepts in this scheme without broader relations"
UNASSIGNED_DEF = "Concepts not associated with any concept scheme"
UNASSIGNED_TITLE = "[UNASSIGNED CONCEPTS]"

# Sort-key segment encoding. Sibling order is (label, uri); a segment
#   "\x02" + label + "\x01" + uri + "\x00"
# makes lexicographic comparison of concatenated segments equal to
# tuple-order DFS traversal. "\x03" is the orphan-container marker
# (sorts after every "\x02" top subtree within a scheme); "\x7f" is the
# global unassigned prefix (sorts after every scheme segment). Assumes
# labels/URIs contain no control characters < \x04 (SKOS lexical space;
# same assumption the Turtle writer makes about \x00).
_SEG_HEAD, _SEG_MID, _SEG_TAIL = "\x02", "\x01", "\x00"
_CONTAINER_MARK = "\x03"
_UNASSIGNED_MARK = "\x7f"

EDGE_SCHEMA = pa.schema([("child", pa.string()), ("parent", pa.string())])
SCHEME_SCHEMA = pa.schema([("s_uri", pa.string()), ("s_label", pa.string()),
                           ("s_seg", pa.string())])
CHILD_EDGE_SCHEMA = pa.schema([("uri", pa.string()), ("seg", pa.string()),
                               ("parent", pa.string())])


def edge_table(triples: pa.Table) -> pa.Table:
    """(child, parent) for every broader edge and inverted narrower
    edge (ref 716-733)."""
    b = triples.filter(pc.equal(triples["pred"], SKOS_BROADER))
    n = triples.filter(pc.equal(triples["pred"], SKOS_NARROWER))
    return pa.table({
        "child": pa.concat_arrays([b["subj"].combine_chunks(),
                                   n["obj"].combine_chunks()]),
        "parent": pa.concat_arrays([b["obj"].combine_chunks(),
                                    n["subj"].combine_chunks()]),
    }, schema=EDGE_SCHEMA)


def min_parent(edges: pa.Table) -> pa.Table:
    """child -> deterministic display parent (min parent URI)."""
    return edges.group_by("child").aggregate(
        [("parent", "min")]).rename_columns(["child", "parent"])


def _edges_batch(batch: pa.Table) -> pa.Table:
    return edge_table(conform([batch], TRIPLE_COLS))


def display_parents(triples_ds):
    """Dataset form of ``min_parent`` (edges bucketed on ``child``
    above the gate)."""
    edges = triples_ds.map_batches(_edges_batch, batch_format="pyarrow")
    return run_stage([(edges, "child")], EDGE_SCHEMA, min_parent, EDGE_SCHEMA)


def skeleton(triples: pa.Table, edges: pa.Table,
             cfg: EngineConfig) -> pa.Table:
    """The pivot of ``triples`` plus each subject's display parent from
    ``edges`` and its sort segment. Per bucket, ``edges`` must hold
    every edge whose child hashes to the bucket."""
    c = pivot_table(triples, cfg)
    p = min_parent(edges)
    parent = p["parent"].combine_chunks().take(
        pc.index_in(c["uri"], value_set=p["child"].combine_chunks()))
    seg = _cat(_SEG_HEAD, c["pref_label"], _SEG_MID, c["uri"], _SEG_TAIL)
    return c.append_column("parent", parent).append_column("seg", seg)


def scheme_table(skel: pa.Table) -> pa.Table:
    s = skel.filter(skel["is_scheme"])
    return pa.table({"s_uri": s["uri"], "s_label": s["pref_label"],
                     "s_seg": s["seg"]}, schema=SCHEME_SCHEMA)


def child_edges(skel: pa.Table) -> pa.Table:
    """Concept -> display-parent edges, carrying the child's segment."""
    return skel.filter(pc.and_(skel["is_concept"],
                               pc.is_valid(skel["parent"]))) \
        .select(CHILD_EDGE_SCHEMA.names)


def _tree_table(n: int, **cols) -> pa.Table:
    """TREE_ROWS table of ``n`` rows; a missing column is "", a
    scalar repeats."""
    out = {}
    for f in schemas.TREE_ROWS:
        v = cols.get(f.name, "")
        if isinstance(v, (str, int)):
            v = [v] * n
        out[f.name] = v if isinstance(v, (pa.Array, pa.ChunkedArray)) \
            else pa.array(v, f.type)
    return pa.table(out, schema=schemas.TREE_ROWS)


def _headers(schemes: pa.Table, shard_headers) -> pa.Table:
    """Scheme header rows plus the distinct container / unassigned
    header rows the shards reported."""
    rows = _tree_table(
        schemes.num_rows, sort_key=schemes["s_seg"],
        title=_cat("[SCHEME] ", schemes["s_label"]),
        scheme=schemes["s_label"], uri=schemes["s_uri"], level=0)
    hs = pa.concat_tables(shard_headers)
    hs = hs.group_by(hs.column_names).aggregate([]) \
        .select(hs.column_names).cast(schemas.TREE_ROWS)
    return pa.concat_tables([rows, hs])


class _TreeShard:
    """Placement state for the concepts with ``bucket_of(uri) == b``
    plus every display-parent edge whose PARENT hashes to ``b``, so a
    node's state and its out-edges co-locate.

    A round: ``emit`` sends every frontier node's current placement,
    extended by one segment, to its children as one candidate table per
    target shard (a null path when the node is unplaced or at the depth
    cap); ``apply`` sets each receiving node to the smaller of its own
    root placement and the candidate and returns the changed count, 0
    meaning done. A table kernel: run in-process as
    ``_TreeShard(0, 1, max_depth)`` or on shardutil.ShardGroup."""

    def __init__(self, bucket: int, n_buckets: int, max_depth: int):
        self.b, self.B, self.max_depth = bucket, n_buckets, max_depth

    def load(self, skel: pa.Table, edges: pa.Table,
             schemes: pa.Table) -> int:
        """Roots are this bucket's tops (level 1, under their scheme
        header) and orphans (level 2, under the scheme's container),
        both at depth 1; edges become a CSR adjacency from one sort,
        child routing buckets hashed in the same (CSR) order they are
        emitted in."""
        from ..functions.hashing import bucket_of

        c = self.skel = skel.filter(skel["is_concept"])
        self.nodes = c["uri"].combine_chunks()
        n = c.num_rows
        pos = pc.index_in(c["scheme"], value_set=schemes["s_uri"])
        s_label = schemes["s_label"].take(pos)
        s_seg = schemes["s_seg"].take(pos)
        top = pc.and_(pc.is_valid(pos), c["is_top"])
        orphan = pc.and_(pc.and_(pc.is_valid(pos), pc.invert(c["is_top"])),
                         pc.is_null(c["parent"]))
        root = pc.or_(top, orphan).to_numpy(zero_copy_only=False)

        def np_col(a):
            return np.where(root, a.to_numpy(zero_copy_only=False), None)

        # each node's own root placement (path None = not a root); the
        # current placement starts there
        self.root = {
            "path": np_col(pc.if_else(top, _cat(s_seg, c["seg"]), _cat(
                s_seg, _CONTAINER_MARK, c["seg"]))),
            "level": np.where(top.to_numpy(zero_copy_only=False), 1, 2)
            .astype(np.int32),
            "depth": np.ones(n, np.int32),
            "parent_title": np_col(pc.if_else(
                top, _cat("[SCHEME] ", s_label),
                _cat("[Other Concepts in ", s_label, "]"))),
            "scheme_label": np_col(s_label)}
        self.cur = {k: v.copy() for k, v in self.root.items()}
        self.label = c["pref_label"].to_numpy(zero_copy_only=False)
        self.frontier = np.flatnonzero(root)
        o = pa.table({"k": _cat(s_seg, _CONTAINER_MARK),
                      "label": s_label}).filter(orphan) \
            .group_by(["k", "label"]).aggregate([])
        self.containers = _tree_table(
            o.num_rows, sort_key=o["k"],
            title=_cat("[Other Concepts in ", o["label"], "]"),
            parent=_cat("[SCHEME] ", o["label"]), scheme=o["label"],
            definition=OTHER_DEF, level=1)

        piv = pc.index_in(edges["parent"], value_set=self.nodes)
        local = pc.is_valid(piv)  # parent not a concept = skeleton gap
        e = edges.filter(local)
        pidx = piv.filter(local).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = pa.array(np.argsort(pidx, kind="stable"), pa.int64())
        child = e["uri"].combine_chunks().take(order)
        self.e_child = child.to_numpy(zero_copy_only=False)
        self.e_seg = e["seg"].combine_chunks().take(order) \
            .to_numpy(zero_copy_only=False)
        self.e_cbk = bucket_of(child, self.B).to_numpy(zero_copy_only=False)
        self.off = np.searchsorted(np.sort(pidx), np.arange(n + 1))
        return n

    def apply(self, t: pa.Table) -> int:
        """Each candidate row's node becomes min(own root placement,
        candidate); a null candidate path leaves the root placement (or
        none). Changed nodes join the frontier; returns their count.
        One display parent per node, so one candidate per node."""
        ii = pc.index_in(t["uri"], value_set=self.nodes) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cand = {k: t[k].to_numpy(zero_copy_only=False) for k in self.root}
        rp, cp = self.root["path"][ii], cand["path"]
        use_root = np.equal(cp, None)
        both = ~use_root & np.not_equal(rp, None)
        use_root[both] = rp[both] < cp[both]
        new = {k: np.where(use_root, v[ii], cand[k])
               for k, v in self.root.items()}
        changed = np.not_equal(new["path"], self.cur["path"][ii])
        tgt = ii[changed]
        for k, v in self.cur.items():
            v[tgt] = new[k][changed]
        self.frontier = np.unique(np.concatenate((self.frontier, tgt)))
        return int(changed.sum())

    def emit(self) -> list:
        """One candidate table per target shard."""
        from .shardutil import by_bucket, csr_edges

        # every out-edge of the frontier
        idx, src = csr_edges(self.off, self.frontier)
        self.frontier = np.empty(0, np.int64)
        cur = {k: v[src] for k, v in self.cur.items()}
        # a child past max_depth is cut off (the reference dfs bound)
        ok = np.not_equal(cur["path"], None) \
            & (cur["depth"] < self.max_depth)
        path = np.full(len(idx), None, object)
        path[ok] = cur["path"][ok] + self.e_seg[idx[ok]]
        cand = pa.table({
            "uri": pa.array(self.e_child[idx], pa.string()),
            "path": pa.array(path, pa.string()),
            "level": pa.array(cur["level"] + 1, pa.int32()),
            "depth": pa.array(cur["depth"] + 1, pa.int32()),
            "parent_title": pa.array(self.label[src], pa.string()),
            "scheme_label": pa.array(cur["scheme_label"], pa.string()),
        })
        return by_bucket(cand, self.e_cbk[idx], self.B)

    def result(self) -> pa.Table:
        """TREE_ROWS of this shard's concepts; the never-placed ones
        render flat under [UNASSIGNED CONCEPTS] (cycles, detached
        subtrees and nodes below the depth cap, ref 866-879)."""
        c, cur = self.skel, self.cur
        unplaced = np.equal(cur["path"], None)

        def joined(col, sep=", "):
            return pc.fill_null(pc.binary_join(c[col], sep), "")

        return _tree_table(
            c.num_rows,
            sort_key=pc.coalesce(pa.array(cur["path"], pa.string()),
                                 _cat(_UNASSIGNED_MARK, c["seg"])),
            title=c["pref_label"],
            parent=pc.coalesce(pa.array(cur["parent_title"], pa.string()),
                               UNASSIGNED_TITLE),
            scheme=pc.coalesce(pa.array(cur["scheme_label"], pa.string()),
                               ""),
            definition=c["definition"],
            alt_labels=joined("alt_labels", schemas.ALT_LABEL_SEP),
            notation=c["notation"], uri=c["uri"],
            level=np.where(unplaced, 1, cur["level"]),
            same_as=joined("same_as"), related=joined("related"))

    def headers(self) -> pa.Table:
        """Container headers for this shard's orphans' schemes, plus
        the unassigned header if it holds a never-placed concept."""
        if not np.equal(self.cur["path"], None).any():
            return self.containers
        return pa.concat_tables([self.containers, _tree_table(
            1, sort_key=_UNASSIGNED_MARK, title=UNASSIGNED_TITLE,
            definition=UNASSIGNED_DEF, level=0)])


def build_tree_rows(triples_ds, cfg: EngineConfig | None = None,
                    *, engine: str = "auto"):
    """triples -> globally ordered tree_rows Dataset (schema TREE_ROWS),
    every kernel in-process below the SKOS size gate, per uri bucket on
    shard actors above it (module docstring)."""
    cfg = cfg or EngineConfig()
    triples, placement = materialize_and_place(triples_ds, engine)
    if placement == "actors":
        return _build_on_actors(triples, cfg)
    t = table_of(triples, TRIPLE_COLS)
    skel = skeleton(t, edge_table(t), cfg)
    schemes = scheme_table(skel)
    shard = _TreeShard(0, 1, cfg.max_hierarchy_depth)
    shard.load(skel, child_edges(skel), schemes)
    while shard.apply(*shard.emit()):
        pass
    rows = pa.concat_tables([shard.result(),
                             _headers(schemes, [shard.headers()])])
    return local_dataset(rows.sort_by("sort_key"))


def _build_on_actors(triples, cfg: EngineConfig):
    import ray

    from .shardutil import ShardGroup, multiway_cogroup_scatter

    B = n_buckets(triples)
    edges = triples.map_batches(_edges_batch,
                                batch_format="pyarrow").materialize()
    skel = multiway_cogroup_scatter(
        [(triples, "subj"), (edges, "child")], B,
        lambda t, e: skeleton(conform([t], TRIPLE_COLS),
                              conform([e], EDGE_SCHEMA), cfg))
    schemes = table_of(skel.map_batches(scheme_table, batch_format="pyarrow"),
                       SCHEME_SCHEMA)
    # one more exchange moves each display-parent edge to its parent's
    # bucket, where the parent's state lives
    moved = multiway_cogroup_scatter(
        [(skel.map_batches(child_edges, batch_format="pyarrow")
          .materialize(), "parent")], B,
        lambda e: conform([e], CHILD_EDGE_SCHEMA))
    skel_refs, edge_refs = skel.to_arrow_refs(), moved.to_arrow_refs()
    if not len(skel_refs) == len(edge_refs) == B:
        raise RuntimeError("bucket exchange lost its one-block-per-bucket "
                           "layout")
    with ShardGroup(_TreeShard, B, cfg.max_hierarchy_depth) as g:
        g.wave("load", skel_refs, edge_refs, schemes=ray.put(schemes))
        while sum(g.wave("apply", g.relay(g.wave("emit")))):
            pass
        heads = g.wave("headers")
        rows = g.collect()
    return rows.union(local_dataset(_headers(schemes, heads))) \
        .sort("sort_key")
