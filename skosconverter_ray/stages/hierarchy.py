"""Hierarchy materialization: schemes, display parents, orphans,
containers, and the globally-ordered ``tree_rows`` render IR
(SURVEY.md J1-J3, O1, U1; reference ``build_hierarchy``
skos_converter.py:664-762 and the recursive row builders 764-888).

Scale design: the *hierarchy skeleton* (uri, label, parent, scheme,
flags — one short row per vocabulary concept) is dimension-sized even
at the 10^12-document design point; only the corpus is huge. So the
skeleton is aggregated with Ray (pivot shuffle on subj, edge groupby on
child), streamed to the driver, ordered with an exact
reference-faithful DFS, and the resulting ``uri -> (seq, level, ...)``
map is broadcast back for a single ``map_batches`` join. No
corpus-scale table ever enters this module. For vocabularies that
outgrow driver memory, ``build_tree_rows_distributed`` computes the
same preorder with iterative min-path label propagation (no driver
DFS, no driver-side skeleton) — parity pinned by
tests/test_hierarchy_distributed.py.

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

from ..config import SKOS_BROADER, SKOS_NARROWER, EngineConfig
from .. import schemas
from .concepts import pivot_concepts

OTHER_DEF = "Concepts in this scheme without broader relations"
UNASSIGNED_DEF = "Concepts not associated with any concept scheme"
UNASSIGNED_TITLE = "[UNASSIGNED CONCEPTS]"


def display_parents(triples_ds):
    """child -> deterministic display parent (min parent URI), from the
    union of broader edges and inverted narrower edges (ref 716-733)."""
    from ray.data.aggregate import Min

    def edges(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["pred"], SKOS_BROADER))
        n = batch.filter(pc.equal(batch["pred"], SKOS_NARROWER))
        child = pa.concat_arrays(
            [b["subj"].combine_chunks(), n["obj"].combine_chunks()])
        parent = pa.concat_arrays(
            [b["obj"].combine_chunks(), n["subj"].combine_chunks()])
        return pa.table({"child": child, "parent": parent})

    e = triples_ds.map_batches(edges, batch_format="pyarrow")
    return e.groupby("child").aggregate(Min("parent", alias_name="parent"))


def _collect_skeleton(concepts_ds, parents_ds):
    """Stream the dimension-sized skeleton to the driver."""
    skel = {}
    for b in concepts_ds.iter_batches(batch_format="pyarrow",
                                      batch_size=65536):
        for i in range(b.num_rows):
            skel[b["uri"][i].as_py()] = {
                "label": b["pref_label"][i].as_py(),
                "scheme": b["scheme"][i].as_py(),
                "is_top": b["is_top"][i].as_py(),
                "is_concept": b["is_concept"][i].as_py(),
                "is_scheme": b["is_scheme"][i].as_py(),
                "parent": None,
            }
    for b in parents_ds.iter_batches(batch_format="pyarrow",
                                     batch_size=65536):
        for child, parent in zip(b["child"].to_pylist(),
                                 b["parent"].to_pylist()):
            if child in skel:
                skel[child]["parent"] = parent
    return skel


def _order_skeleton(skel: dict, max_depth: int = 32):
    """Reference-faithful DFS -> uri/synthetic-row placement list.

    Returns ``(placements, synth_rows)``: placements maps uri ->
    (seq, level, parent_title, scheme_label); synth_rows are the
    scheme / container / unassigned header rows.
    """
    children: dict[str, list[str]] = {}
    for uri, rec in skel.items():
        if rec["is_concept"] and rec["parent"]:
            children.setdefault(rec["parent"], []).append(uri)

    def by_label(uris):
        return sorted(uris, key=lambda u: (skel[u]["label"] or "", u))

    schemes = by_label([u for u, r in skel.items() if r["is_scheme"]])
    visited: set[str] = set()
    placements: dict[str, tuple] = {}
    synth_rows: list[dict] = []
    seq = [0]

    def nxt() -> str:
        seq[0] += 1
        return f"{seq[0]:010d}"

    def place(uri, level, parent_title, scheme_label):
        visited.add(uri)
        placements[uri] = (nxt(), level, parent_title, scheme_label)

    def dfs(uri, level, parent_title, scheme_label, depth):
        if uri in visited or depth > max_depth:
            return
        place(uri, level, parent_title, scheme_label)
        for ch in by_label(children.get(uri, [])):
            if ch not in visited:
                dfs(ch, level + 1, skel[uri]["label"], scheme_label, depth + 1)

    for s_uri in schemes:
        s_label = skel[s_uri]["label"]
        s_title = f"[SCHEME] {s_label}"
        synth_rows.append({
            "sort_key": nxt(), "title": s_title, "parent": "",
            "scheme": s_label, "definition": "", "alt_labels": "",
            "notation": "", "uri": s_uri, "level": 0,
        })
        tops = by_label([
            u for u, r in skel.items()
            if r["is_concept"] and r["is_top"] and r["scheme"] == s_uri
            and u not in visited
        ])
        for t in tops:
            dfs(t, 1, s_title, s_label, 1)
        orphans = by_label([
            u for u, r in skel.items()
            if r["is_concept"] and r["scheme"] == s_uri
            and u not in visited and not r["parent"]
        ])
        if orphans:
            c_title = f"[Other Concepts in {s_label}]"
            synth_rows.append({
                "sort_key": nxt(), "title": c_title, "parent": s_title,
                "scheme": s_label, "definition": OTHER_DEF,
                "alt_labels": "", "notation": "", "uri": "", "level": 1,
            })
            for o in orphans:
                dfs(o, 2, c_title, s_label, 1)

    unassigned = by_label([
        u for u, r in skel.items() if r["is_concept"] and u not in visited
    ])
    if unassigned:
        synth_rows.append({
            "sort_key": nxt(), "title": UNASSIGNED_TITLE, "parent": "",
            "scheme": "", "definition": UNASSIGNED_DEF, "alt_labels": "",
            "notation": "", "uri": "", "level": 0,
        })
        for u in unassigned:
            # flat, like the reference (866-879): cycles and detached
            # subtrees land here without recursion
            place(u, 1, UNASSIGNED_TITLE, "")
    return placements, synth_rows


def build_tree_rows(triples_ds, cfg: EngineConfig | None = None):
    """triples -> globally ordered tree_rows Dataset (schema TREE_ROWS).

    Pipeline: pivot (shuffle on subj) + display-parent groupby (shuffle
    on child) -> driver DFS over the dimension-sized skeleton ->
    broadcast placement map -> one map_batches join -> union with the
    synthetic header rows -> global sort on sort_key.
    """
    import ray
    import ray.data as rd

    cfg = cfg or EngineConfig()
    concepts = pivot_concepts(triples_ds, cfg).materialize()
    parents = display_parents(triples_ds)
    skel = _collect_skeleton(concepts, parents)
    placements, synth_rows = _order_skeleton(skel, cfg.max_hierarchy_depth)
    # parent display titles need label lookups; build a title map
    place_ref = ray.put(placements)

    def join(batch: pa.Table) -> pa.Table:
        pl = ray.get(place_ref)
        rows = {k: [] for k in ("sort_key", "title", "parent", "scheme",
                                "definition", "alt_labels", "notation",
                                "uri", "level", "same_as", "related")}
        for i in range(batch.num_rows):
            uri = batch["uri"][i].as_py()
            p = pl.get(uri)
            if p is None:
                continue
            seq, level, parent_title, scheme_label = p
            rows["sort_key"].append(seq)
            rows["title"].append(batch["pref_label"][i].as_py())
            rows["parent"].append(parent_title)
            rows["scheme"].append(scheme_label)
            rows["definition"].append(batch["definition"][i].as_py())
            rows["alt_labels"].append(
                ", ".join(batch["alt_labels"][i].as_py() or []))
            rows["notation"].append(batch["notation"][i].as_py())
            rows["uri"].append(uri)
            rows["level"].append(level)
            rows["same_as"].append(
                ", ".join(batch["same_as"][i].as_py() or []))
            rows["related"].append(
                ", ".join(batch["related"][i].as_py() or []))
        return pa.table(
            {k: pa.array(v, schemas.TREE_ROWS.field(k).type)
             for k, v in rows.items()},
            schema=schemas.TREE_ROWS,
        )

    concept_rows = concepts.map_batches(join, batch_format="pyarrow")
    synth = rd.from_arrow(pa.table(
        {f.name: pa.array([r.get(f.name, "") for r in synth_rows], f.type)
         for f in schemas.TREE_ROWS},
        schema=schemas.TREE_ROWS,
    )) if synth_rows else None
    out = concept_rows.union(synth) if synth is not None else concept_rows
    return out.sort("sort_key")


# ---------------------------------------------------------------------------
# Distributed DFS-preorder (the level-propagation variant promised in the
# module docstring): for vocabularies too big for the driver DFS.
# ---------------------------------------------------------------------------

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


def _seg_array(label_col, uri_col) -> pa.Array:
    lbl = pc.fill_null(label_col, "")
    return pc.binary_join_element_wise(
        pa.scalar(_SEG_HEAD), lbl, pa.scalar(_SEG_MID), uri_col,
        pa.scalar(_SEG_TAIL), pa.scalar(""))


class _TreeShard:
    """One propagation shard for the distributed DFS-preorder
    (run by shardutil.ShardGroup; see build_tree_rows_distributed).

    Holds the placement state for concepts with ``bucket_of(uri) == b``
    plus every display-parent edge whose PARENT hashes to ``b``. A
    round: ``emit`` extends the frontier's paths along local edges and
    ships candidate rows per target shard; ``apply`` min-merges
    incoming candidates (strict ``<`` keeps the incumbent on ties) and
    returns the improved count for the driver's termination fold."""

    def __init__(self, bucket: int, n_buckets: int):
        self.b, self.B = bucket, n_buckets

    def load(self, node_refs, root_refs, edge_refs) -> int:
        """Arrow/numpy shard state (round-4 rewrite of the
        dict-of-tuple-lists loader — per-node Python tuples held
        ~5-10x the Arrow footprint and loaded single-threaded):
        parallel object/int arrays for the 6 state fields, CSR
        adjacency from one sort of the edge table. Child routing
        buckets are hashed on the SAME flattened (CSR) order they are
        emitted in."""
        import ray

        from ..functions.hashing import bucket_of

        ntbls = [t for t in ray.get(list(node_refs)) if t.num_rows]
        nodes = (pa.concat_tables(ntbls)["uri"].combine_chunks()
                 if ntbls else pa.array([], pa.string()))
        self.nodes_np = np.unique(nodes.to_numpy(zero_copy_only=False))
        self.nodes = pa.array(self.nodes_np, pa.string())
        n = len(self.nodes_np)
        # state: parallel arrays; unplaced nodes have path None
        self.path = np.full(n, None, object)
        self.level = np.zeros(n, np.int32)
        self.ptitle = np.full(n, None, object)
        self.slabel = np.full(n, None, object)
        self.label = np.full(n, None, object)
        self.depth = np.zeros(n, np.int32)
        self.frontier = np.empty(0, np.int64)

        rtbls = [t for t in ray.get(list(root_refs)) if t.num_rows]
        if rtbls:
            r = pa.concat_tables(rtbls)
            self._merge(r["uri"].combine_chunks(),
                        r["path"].combine_chunks()
                        .to_numpy(zero_copy_only=False),
                        r["level"].to_numpy(zero_copy_only=False),
                        r["parent_title"].combine_chunks()
                        .to_numpy(zero_copy_only=False),
                        r["scheme_label"].combine_chunks()
                        .to_numpy(zero_copy_only=False),
                        r["label"].combine_chunks()
                        .to_numpy(zero_copy_only=False),
                        r["depth"].to_numpy(zero_copy_only=False))

        etbls = [t for t in ray.get(list(edge_refs)) if t.num_rows]
        e = (pa.concat_tables(etbls) if etbls
             else pa.table({"uri": pa.array([], pa.string()),
                            "seg": pa.array([], pa.string()),
                            "c_label": pa.array([], pa.string()),
                            "parent": pa.array([], pa.string())}))
        piv = pc.index_in(e["parent"].combine_chunks(),
                          value_set=self.nodes)
        local = pc.is_valid(piv)  # parent not a concept = skeleton gap
        e = e.filter(local)
        pidx = piv.filter(local).to_numpy(zero_copy_only=False) \
            .astype(np.int64) if e.num_rows else np.empty(0, np.int64)
        order = np.argsort(pidx, kind="stable")
        child_s = e["uri"].combine_chunks().take(
            pa.array(order, pa.int64()))
        self.e_child = child_s.to_numpy(zero_copy_only=False)
        self.e_seg = e["seg"].combine_chunks().take(
            pa.array(order, pa.int64())).to_numpy(zero_copy_only=False)
        self.e_clabel = e["c_label"].combine_chunks().take(
            pa.array(order, pa.int64())).to_numpy(zero_copy_only=False)
        self.e_cbk = (bucket_of(child_s, self.B)
                      .to_numpy(zero_copy_only=False)
                      if len(self.e_child) else np.empty(0, np.int32))
        self.off = np.searchsorted(pidx[order], np.arange(n + 1))
        return n

    def _merge(self, uri_pa: pa.Array, path, level, ptitle, slabel,
               label, depth) -> int:
        """Vectorized min-merge of candidate rows into the state
        arrays (strict < keeps the incumbent on equal paths); extends
        the frontier and returns the improved count."""
        iv = pc.index_in(uri_pa, value_set=self.nodes)
        ii = iv.to_numpy(zero_copy_only=False).astype(np.int64)
        # duplicate candidate uris within one wave: keep the min path
        # (lexsort by (path, idx), first row per idx wins)
        o = np.lexsort((path, ii))
        ii_u, st = np.unique(ii[o], return_index=True)
        sel = o[st]
        cand_path = path[sel]
        cur = self.path[ii_u]
        placed = np.not_equal(cur, None)
        take = ~placed
        if placed.any():
            better = np.zeros(len(ii_u), bool)
            better[placed] = cand_path[placed] < cur[placed]
            take |= better
        tgt = ii_u[take]
        src = sel[take]
        self.path[tgt] = path[src]
        self.level[tgt] = level[src]
        self.ptitle[tgt] = ptitle[src]
        self.slabel[tgt] = slabel[src]
        self.label[tgt] = label[src]
        self.depth[tgt] = depth[src]
        self.frontier = np.unique(np.concatenate((self.frontier, tgt)))
        return int(take.sum())

    def emit(self):
        import ray

        msgs = [None] * self.B
        ch = self.frontier
        self.frontier = np.empty(0, np.int64)
        if not ch.size:
            return msgs
        cnt = self.off[ch + 1] - self.off[ch]
        total = int(cnt.sum())
        if not total:
            return msgs
        # CSR expansion of every out-edge of the frontier
        idx = (np.repeat(self.off[ch], cnt)
               + np.arange(total)
               - np.repeat(np.cumsum(cnt) - cnt, cnt))
        new_path = np.repeat(self.path[ch], cnt) + self.e_seg[idx]
        new_level = np.repeat(self.level[ch] + 1, cnt)
        new_ptitle = np.repeat(self.label[ch], cnt)
        new_slabel = np.repeat(self.slabel[ch], cnt)
        new_depth = np.repeat(self.depth[ch] + 1, cnt)
        bks = self.e_cbk[idx]
        for b in range(self.B):
            sel = np.where(bks == b)[0]
            if not sel.size:
                continue
            msgs[b] = ray.put(pa.table({
                "uri": pa.array(self.e_child[idx[sel]], pa.string()),
                "path": pa.array(new_path[sel], pa.string()),
                "level": pa.array(new_level[sel], pa.int32()),
                "parent_title": pa.array(new_ptitle[sel], pa.string()),
                "scheme_label": pa.array(new_slabel[sel], pa.string()),
                "label": pa.array(self.e_clabel[idx[sel]], pa.string()),
                "depth": pa.array(new_depth[sel], pa.int32()),
            }))
        return msgs

    def apply(self, msg_refs) -> int:
        import ray

        improved = 0
        for t in ray.get(list(msg_refs)):
            improved += self._merge(
                t["uri"].combine_chunks(),
                t["path"].combine_chunks()
                .to_numpy(zero_copy_only=False),
                t["level"].to_numpy(zero_copy_only=False),
                t["parent_title"].combine_chunks()
                .to_numpy(zero_copy_only=False),
                t["scheme_label"].combine_chunks()
                .to_numpy(zero_copy_only=False),
                t["label"].combine_chunks()
                .to_numpy(zero_copy_only=False),
                t["depth"].to_numpy(zero_copy_only=False))
        return improved

    def result(self) -> pa.Table:
        placed = np.not_equal(self.path, None)
        sel = np.where(placed)[0]
        return pa.table({
            "uri": pa.array(self.nodes_np[sel], pa.string()),
            "path": pa.array(self.path[sel], pa.string()),
            "level": pa.array(self.level[sel], pa.int32()),
            "parent_title": pa.array(self.ptitle[sel], pa.string()),
            "scheme_label": pa.array(self.slabel[sel], pa.string()),
            "label": pa.array(self.label[sel], pa.string()),
            "depth": pa.array(self.depth[sel], pa.int32()),
        })


def build_tree_rows_distributed(triples_ds, cfg: EngineConfig | None = None):
    """``build_tree_rows`` without the driver DFS: DFS-preorder sort
    keys via iterative min-path propagation over the display-parent
    edges. The skeleton never collects on the driver.

    Equivalence to the driver DFS: each concept has exactly one display
    parent (min parent URI), so the hierarchy is a functional graph and
    the reference DFS's "first visit wins" is exactly "lexicographically
    smallest root path wins". Propagation is label-correcting: a round
    emits child paths from every improved node, keeps the per-node
    minimum, and stops when a round improves nothing (cycles terminate
    because a path through a cycle strictly extends, hence exceeds, the
    node's existing path; depth is additionally capped at
    ``cfg.max_hierarchy_depth``, reproducing the reference's recursion
    bound). Cost: a few dimension-sized cogroup joins to build the
    skeleton, then <= depth rounds x 2 shard-actor waves (emit, apply)
    with zero Dataset exchanges per round.
    """
    import ray.data as rd

    from .joinutil import cogroup_join

    cfg = cfg or EngineConfig()
    nb = max(8, cfg.shuffle_partitions // 2)
    concepts = pivot_concepts(triples_ds, cfg).materialize()
    parents = display_parents(triples_ds)

    slim_schema = pa.schema([
        ("uri", pa.string()), ("label", pa.string()),
        ("scheme", pa.string()), ("is_top", pa.bool_()),
        ("is_concept", pa.bool_()), ("is_scheme", pa.bool_()),
        ("seg", pa.string()),
    ])

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table({
            "uri": batch["uri"], "label": batch["pref_label"],
            "scheme": batch["scheme"], "is_top": batch["is_top"],
            "is_concept": batch["is_concept"],
            "is_scheme": batch["is_scheme"],
            "seg": _seg_array(batch["pref_label"].combine_chunks(),
                              batch["uri"].combine_chunks()),
        }, schema=slim_schema)

    base = concepts.map_batches(slim, batch_format="pyarrow")
    parents_schema = pa.schema([("child", pa.string()),
                                ("parent", pa.string())])
    skel = cogroup_join(
        base, parents, left_on="uri", right_on="child",
        join_type="left outer", num_buckets=nb,
        left_schema=slim_schema, right_schema=parents_schema,
    ).materialize()
    skel_schema = slim_schema.append(pa.field("parent", pa.string()))
    # the skeleton is dimension-sized; size the per-round exchanges to
    # it (a 160-node vocabulary does not need 16-way buckets, a 10^6
    # one keeps the configured fan-out)
    nb = max(2, min(nb, skel.count() // 512 + 1))

    # --- scheme dimension (label + seg per scheme URI) ---
    scheme_schema = pa.schema([("s_uri", pa.string()),
                               ("s_label", pa.string()),
                               ("s_seg", pa.string())])

    def scheme_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch["is_scheme"])
        return pa.table({"s_uri": t["uri"], "s_label": t["label"],
                         "s_seg": t["seg"]}, schema=scheme_schema)

    schemes = skel.map_batches(scheme_rows, batch_format="pyarrow")

    # --- roots: tops (level 1) and scheme orphans (level 2) ---
    state_schema = pa.schema([
        ("uri", pa.string()), ("path", pa.string()),
        ("level", pa.int32()), ("parent_title", pa.string()),
        ("scheme_label", pa.string()), ("label", pa.string()),
        ("depth", pa.int32()),
    ])

    def concept_side(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch["is_concept"])
        return t.select(["uri", "label", "scheme", "is_top", "seg",
                         "parent"])

    c_side = skel.map_batches(concept_side, batch_format="pyarrow")
    c_schema = pa.schema([skel_schema.field(n) for n in
                          ("uri", "label", "scheme", "is_top", "seg",
                           "parent")])
    # materialized: consumed twice (roots + container headers) and a
    # lazy fan-out would re-execute the join per consumer (BASELINE.md
    # shared-lineage pitfall)
    with_scheme = cogroup_join(
        c_side, schemes, left_on="scheme", right_on="s_uri",
        join_type="inner", num_buckets=nb,
        left_schema=c_schema, right_schema=scheme_schema).materialize()

    def make_roots(batch: pa.Table) -> pa.Table:
        tops = batch.filter(batch["is_top"])
        t_lbl = pc.fill_null(tops["s_label"], "None")
        orph = batch.filter(pc.and_(
            pc.and_(pc.invert(batch["is_top"]),
                    pc.is_null(batch["parent"]))
            , pc.is_valid(batch["s_seg"])))
        o_lbl = pc.fill_null(orph["s_label"], "None")
        parts = []
        if tops.num_rows:
            parts.append(pa.table({
                "uri": tops["uri"],
                "path": pc.binary_join_element_wise(
                    tops["s_seg"].combine_chunks(),
                    tops["seg"].combine_chunks(), pa.scalar("")),
                "level": pa.array([1] * tops.num_rows, pa.int32()),
                "parent_title": pc.binary_join_element_wise(
                    pa.scalar("[SCHEME] "), t_lbl, pa.scalar("")),
                "scheme_label": tops["s_label"],
                "label": tops["label"],
                "depth": pa.array([1] * tops.num_rows, pa.int32()),
            }, schema=state_schema))
        if orph.num_rows:
            parts.append(pa.table({
                "uri": orph["uri"],
                "path": pc.binary_join_element_wise(
                    orph["s_seg"].combine_chunks(),
                    pa.scalar(_CONTAINER_MARK),
                    orph["seg"].combine_chunks(), pa.scalar("")),
                "level": pa.array([2] * orph.num_rows, pa.int32()),
                "parent_title": pc.binary_join_element_wise(
                    pa.scalar("[Other Concepts in "), o_lbl,
                    pa.scalar("]"), pa.scalar("")),
                "scheme_label": orph["s_label"],
                "label": orph["label"],
                "depth": pa.array([1] * orph.num_rows, pa.int32()),
            }, schema=state_schema))
        if not parts:
            return state_schema.empty_table()
        return pa.concat_tables(parts)

    best = (with_scheme.map_batches(make_roots, batch_format="pyarrow")
            .repartition(nb).materialize())

    # child side of the propagation edges, keyed on parent; carries
    # the child's own label so a candidate's parent_title needs no
    # extra join
    child_schema = pa.schema([("uri", pa.string()), ("seg", pa.string()),
                              ("c_label", pa.string()),
                              ("parent", pa.string())])

    def child_side(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.and_(batch["is_concept"],
                                 pc.is_valid(batch["parent"])))
        return pa.table({"uri": t["uri"], "seg": t["seg"],
                         "c_label": t["label"], "parent": t["parent"]},
                        schema=child_schema)

    children = skel.map_batches(
        child_side, batch_format="pyarrow").materialize()

    # propagation engine: Pregel-tier shard actors run by
    # shardutil.ShardGroup (same pattern as the stages/graph engines).
    # Node states shard by hash(uri), edges by hash(parent) — a node's
    # state and its out-edges co-locate, so candidate emission is
    # local; per round one emit wave ships candidate rows actor→actor
    # through the object store and one apply wave min-merges them
    # (strict < keeps the incumbent on equal paths — the old origin
    # tiebreak). In a functional graph each child has ONE
    # display-parent edge, so at most one candidate per child per
    # round arrives; cycles terminate because a path through a cycle
    # strictly extends the incumbent. Zero Dataset exchanges per round.
    from .shardutil import ShardGroup, split_dataset_by_bucket

    B = max(2, min(nb, 8))
    uris = c_side.map_batches(
        lambda b: pa.table({"uri": b["uri"]}),
        batch_format="pyarrow").materialize()
    node_cols = split_dataset_by_bucket(uris, "uri", B)
    root_cols = split_dataset_by_bucket(best, "uri", B)
    edge_cols = split_dataset_by_bucket(children, "parent", B)
    with ShardGroup(_TreeShard, B) as g:
        g.wave("load", node_cols, root_cols, edge_cols)
        for _round in range(cfg.max_hierarchy_depth - 1):
            inbox = g.relay(g.wave("emit"))
            if sum(g.wave("apply", inbox)) == 0:
                break
        best = g.collect()

    # --- unassigned: concepts never placed ---
    placed_keys = best.map_batches(
        lambda b: pa.table({"p_uri": b["uri"]},
                           schema=pa.schema([("p_uri", pa.string())])),
        batch_format="pyarrow")
    unassigned = cogroup_join(
        c_side, placed_keys, left_on="uri", right_on="p_uri",
        join_type="left anti", num_buckets=nb,
        left_schema=c_schema,
        right_schema=pa.schema([("p_uri", pa.string())]))

    def unassigned_state(batch: pa.Table) -> pa.Table:
        return pa.table({
            "uri": batch["uri"],
            "path": pc.binary_join_element_wise(
                pa.scalar(_UNASSIGNED_MARK),
                batch["seg"].combine_chunks(), pa.scalar("")),
            "level": pa.array([1] * batch.num_rows, pa.int32()),
            "parent_title": pa.array([UNASSIGNED_TITLE] * batch.num_rows,
                                     pa.string()),
            "scheme_label": pa.array([""] * batch.num_rows, pa.string()),
            "label": batch["label"],
            "depth": pa.array([1] * batch.num_rows, pa.int32()),
        }, schema=state_schema)

    un_state = unassigned.map_batches(
        unassigned_state, batch_format="pyarrow").materialize()
    placements = best.union(un_state)

    # --- synthetic header rows (scheme / container / unassigned) ---
    def scheme_headers(batch: pa.Table) -> pa.Table:
        lbl = pc.fill_null(batch["s_label"], "None")
        n = batch.num_rows
        return pa.table({
            "sort_key": batch["s_seg"],
            "title": pc.binary_join_element_wise(
                pa.scalar("[SCHEME] "), lbl, pa.scalar("")),
            "parent": pa.array([""] * n, pa.string()),
            "scheme": pc.fill_null(batch["s_label"], ""),
            "definition": pa.array([""] * n, pa.string()),
            "alt_labels": pa.array([""] * n, pa.string()),
            "notation": pa.array([""] * n, pa.string()),
            "uri": batch["s_uri"],
            "level": pa.array([0] * n, pa.int32()),
            "same_as": pa.array([""] * n, pa.string()),
            "related": pa.array([""] * n, pa.string()),
        }, schema=schemas.TREE_ROWS)

    headers = schemes.map_batches(scheme_headers, batch_format="pyarrow")

    # container headers: one per scheme that has orphans (derive from
    # the level-2 container roots themselves; all fields per scheme are
    # identical so min() is exact)
    from .skew import bucket_aggregate

    def container_src(batch: pa.Table) -> pa.Table:
        # orphans are parentless (nobody's child) and non-top, so their
        # placement is ALWAYS the container path — a container header
        # exists iff its scheme has >= 1 such concept, exactly the
        # driver DFS's condition
        t = batch.filter(pc.and_(pc.invert(batch["is_top"]),
                                 pc.is_null(batch["parent"])))
        key = pc.binary_join_element_wise(
            t["s_seg"].combine_chunks(), pa.scalar(_CONTAINER_MARK),
            pa.scalar(""))
        return pa.table({
            "c_key": key,
            "c_title": pc.binary_join_element_wise(
                pa.scalar("[Other Concepts in "),
                pc.fill_null(t["s_label"], "None"), pa.scalar("]"),
                pa.scalar("")),
            "c_scheme": pc.fill_null(t["s_label"], ""),
        }, schema=pa.schema([("c_key", pa.string()),
                             ("c_title", pa.string()),
                             ("c_scheme", pa.string())]))

    containers = bucket_aggregate(
        with_scheme.map_batches(container_src, batch_format="pyarrow"),
        ["c_key"], [("min", "c_title", "c_title"),
                    ("min", "c_scheme", "c_scheme")], num_buckets=nb)

    def container_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "sort_key": batch["c_key"], "title": batch["c_title"],
            "parent": pc.binary_join_element_wise(
                pa.scalar("[SCHEME] "),
                pc.fill_null(batch["c_scheme"], "None"), pa.scalar("")),
            "scheme": batch["c_scheme"],
            "definition": pa.array([OTHER_DEF] * n, pa.string()),
            "alt_labels": pa.array([""] * n, pa.string()),
            "notation": pa.array([""] * n, pa.string()),
            "uri": pa.array([""] * n, pa.string()),
            "level": pa.array([1] * n, pa.int32()),
            "same_as": pa.array([""] * n, pa.string()),
            "related": pa.array([""] * n, pa.string()),
        }, schema=schemas.TREE_ROWS)

    container_hdrs = containers.map_batches(container_rows,
                                            batch_format="pyarrow")

    un_header = None
    if un_state.count() > 0:
        un_header = rd.from_arrow(pa.table({
            "sort_key": [_UNASSIGNED_MARK], "title": [UNASSIGNED_TITLE],
            "parent": [""], "scheme": [""],
            "definition": [UNASSIGNED_DEF], "alt_labels": [""],
            "notation": [""], "uri": [""],
            "level": pa.array([0], pa.int32()),
            "same_as": [""], "related": [""],
        }, schema=schemas.TREE_ROWS))

    # --- final: placements x full concept records -> TREE_ROWS ---
    pl_schema = pa.schema([("pl_uri", pa.string()),
                           ("sort_key", pa.string()),
                           ("pl_level", pa.int32()),
                           ("pl_parent", pa.string()),
                           ("pl_scheme", pa.string())])

    def pl_slim(batch: pa.Table) -> pa.Table:
        return pa.table({
            "pl_uri": batch["uri"], "sort_key": batch["path"],
            "pl_level": batch["level"], "pl_parent": batch["parent_title"],
            "pl_scheme": batch["scheme_label"],
        }, schema=pl_schema)

    # Arrow's hash join rejects list<> payload columns — flatten the
    # list fields to their final ", "-joined render form up front
    flat_schema = pa.schema([
        ("uri", pa.string()), ("pref_label", pa.string()),
        ("definition", pa.string()), ("alt_labels", pa.string()),
        ("notation", pa.string()), ("same_as", pa.string()),
        ("related", pa.string()),
    ])

    def flatten(batch: pa.Table) -> pa.Table:
        def joinlist(col):
            return pc.fill_null(pc.binary_join(col, ", "), "")

        return pa.table({
            "uri": batch["uri"], "pref_label": batch["pref_label"],
            "definition": batch["definition"],
            "alt_labels": joinlist(batch["alt_labels"]),
            "notation": batch["notation"],
            "same_as": joinlist(batch["same_as"]),
            "related": joinlist(batch["related"]),
        }, schema=flat_schema)

    joined = cogroup_join(
        concepts.map_batches(flatten, batch_format="pyarrow"),
        placements.map_batches(pl_slim, batch_format="pyarrow"),
        left_on="uri", right_on="pl_uri", join_type="inner",
        num_buckets=nb, left_schema=flat_schema, right_schema=pl_schema)

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "sort_key": batch["sort_key"],
            "title": batch["pref_label"],
            "parent": batch["pl_parent"],
            "scheme": pc.fill_null(batch["pl_scheme"], ""),
            "definition": batch["definition"],
            "alt_labels": batch["alt_labels"],
            "notation": batch["notation"],
            "uri": batch["uri"],
            "level": batch["pl_level"],
            "same_as": batch["same_as"],
            "related": batch["related"],
        }, schema=schemas.TREE_ROWS)

    concept_rows = joined.map_batches(finalize, batch_format="pyarrow")
    out = concept_rows.union(headers).union(container_hdrs)
    if un_header is not None:
        out = out.union(un_header)
    return out.sort("sort_key")
