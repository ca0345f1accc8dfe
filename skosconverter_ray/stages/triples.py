"""Triple-table core ops: set-semantics dedup (U4) and the
inverse-relation consistency pass (the engine generalization of the
reference's paired emission at skos_converter.py:1540-1541, 1545-1546
and its one-sided-pair validator at 209-238).

All ops are Dataset -> Dataset; the only shuffle is the dedup groupby,
keyed on a single content-hash column so Ray hash-partitions evenly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import INVERSE_PAIRS, SYMMETRIC_PREDS


_SEP = "\x1f"


def _key_batch(batch: pa.Table) -> pa.Table:
    """Add a composite dedup key column (subj/pred/obj/lang/literal)."""
    if "lang" in batch.column_names:
        # from_items infers null type for an all-null column; cast so
        # fill_null can build a string scalar.
        lang = pc.cast(batch["lang"], pa.string()).fill_null("")
    else:
        lang = None
    if "obj_is_literal" in batch.column_names:
        lit = pc.cast(batch["obj_is_literal"], pa.bool_()).fill_null(False)
    else:
        lit = None
    parts = [batch["subj"], pc.cast(batch["pred"], pa.string()), batch["obj"]]
    if lit is not None:
        parts.append(pc.cast(pc.cast(lit, pa.int8()), pa.string()))
    if lang is not None:
        parts.append(lang)
    key = pc.binary_join_element_wise(*[pc.cast(p, pa.string()) for p in parts], _SEP)
    return batch.append_column("_key", key)


def _hash_key_batch(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Append (_h1, _h2, _bucket): a 126-bit content identity of
    (subj, pred, obj, lit, lang) as two int64 columns — two
    independently-seeded vectorized 64-bit hashes of the composite key
    (functions/hashing.py; was a per-row blake2b Python loop, the
    dominant Python-object cost of the flagship dedup). Integer keys
    keep the per-bucket dedup a pure numpy lexsort — no Python-object
    string comparisons — and the collision odds at corpus scale
    (~2^-60 for 10^12 distinct triples) are far below hardware error
    rates."""
    from ..functions.hashing import hash_strings

    key = _key_batch(batch)["_key"]
    h1 = (hash_strings(key, seed=1) >> np.uint64(1)).astype(np.int64)
    h2 = (hash_strings(key, seed=2) >> np.uint64(1)).astype(np.int64)
    t = batch.append_column("_h1", pa.array(h1, pa.int64()))
    t = t.append_column("_h2", pa.array(h2, pa.int64()))
    return t.append_column(
        "_bucket", pa.array((h1 % num_buckets).astype(np.int32), pa.int32()))


def _first_per_hash(t: pa.Table) -> pa.Table:
    """Min-source_doc row per (_h1,_h2): numpy lexsort over the int
    keys, run detection, and a Python tiebreak only on the (rare)
    duplicate runs."""
    if t.num_rows == 0:
        return t
    h1 = t["_h1"].to_numpy(zero_copy_only=False)
    h2 = t["_h2"].to_numpy(zero_copy_only=False)
    order = np.lexsort((h2, h1))
    h1s, h2s = h1[order], h2[order]
    head = np.concatenate(
        ([True], (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])))
    keep = order[head].copy()
    if not head.all() and "source_doc" in t.column_names:
        docs = t["source_doc"].to_pylist()
        starts = np.flatnonzero(head)
        ends = np.concatenate((starts[1:], [len(order)]))
        for ri, (s, e) in enumerate(zip(starts, ends)):
            if e - s > 1:
                run = order[s:e]
                keep[ri] = min(run, key=lambda i: (docs[i] is None,
                                                   docs[i], i))
    return t.take(pa.array(np.sort(keep), pa.int64()))


def dedup_triples(triples_ds, *, num_buckets: int = 64,
                  coalesce: bool = False):
    """RDF set semantics: identical triples collapse to one row
    (rdflib ``graph.add`` dedup, SURVEY.md U4); the surviving row's
    ``source_doc`` is the min over duplicates (deterministic witness).

    Two-phase: vectorized per-batch pre-dedup (shrinks the shuffle),
    then ONE groupby over ``_h1 % num_buckets`` cogroups with a numpy
    per-bucket dedup — O(num_buckets) Python calls, never one per
    distinct triple, and no Python-object comparisons in the sort."""

    def local(batch: pa.Table) -> pa.Table:
        return _first_per_hash(_hash_key_batch(batch, num_buckets))

    keyed = triples_ds.map_batches(local, batch_format="pyarrow")
    if coalesce:
        # corpus-scale path (round 4): rows already carry the int
        # bucket, so grouping needs no sort — a task-level hash
        # scatter/gather (one split task per block, one dedup task per
        # bucket) replaces Ray's SORT-based groupby exchange, which
        # dominated the 1M-doc flagship wall (41 s of 60 s at 16 cpus;
        # sample+range-partition+sort is wasted work for hash groups).
        from .shardutil import scatter_apply_by_value

        out = scatter_apply_by_value(keyed.materialize(), "_bucket",
                                     num_buckets, _first_per_hash)
    else:
        out = keyed.groupby("_bucket").map_groups(
            _first_per_hash, batch_format="pyarrow")
    return out.drop_columns(["_h1", "_h2", "_bucket"])


def inverse_consistency(triples_ds, *, num_buckets: int = 32):
    """Emit the inverse of every hierarchical edge and the mirror of
    every symmetric edge — an idempotent closure.

    broader⇔narrower + hasTopConcept⇔topConceptOf per INVERSE_PAIRS;
    related / exactMatch / sameAs mirrored per SYMMETRIC_PREDS.

    The input must be deduped (dedup_triples runs upstream). The pass
    never re-shuffles the full graph: only the EDGE SUBSET
    (hierarchical + symmetric, a small fraction of a real graph's rows)
    is flipped, bucket-cogrouped against the original edge set, and the
    flips not already present are unioned back. Distinct deduped edges
    flip to distinct edges, so the anti-join on the edge keys is the
    whole dedup."""
    inv_map = dict(INVERSE_PAIRS)
    sym = set(SYMMETRIC_PREDS)

    def edge_mask(batch: pa.Table):
        preds = batch["pred"]
        mask_inv = pc.is_in(preds, value_set=pa.array(list(inv_map)))
        mask_sym = pc.is_in(preds, value_set=pa.array(list(sym)))
        return pc.and_(pc.or_(mask_inv, mask_sym),
                       pc.invert(batch["obj_is_literal"]))

    def flip(t: pa.Table, schema: pa.Schema) -> pa.Table:
        new_pred = pa.array(
            [inv_map.get(p, p) for p in t["pred"].to_pylist()],
            pa.string())
        return pa.table(
            {"subj": t["obj"], "pred": new_pred, "obj": t["subj"],
             "obj_is_literal": t["obj_is_literal"], "lang": t["lang"],
             "source_doc": t["source_doc"]},
            schema=schema)

    # The union below consumes triples_ds through TWO lineages; left
    # lazy, the streaming executor would execute the entire upstream
    # chain twice CONCURRENTLY (two copies of any actor-pool stage =
    # CPU starvation; observed as a full stall at 8 cpus). This is a
    # natural stage boundary (the checkpoint sits here too), so pin it.
    triples_ds = triples_ds.materialize()

    # edge-only anti-join path: rows tagged 0 = existing edge,
    # 1 = flipped candidate; a flip survives iff no existing edge in
    # its bucket shares its content hash
    def edges_tagged(batch: pa.Table) -> pa.Table:
        e = batch.filter(edge_mask(batch))
        if e.num_rows == 0:
            e = batch.schema.empty_table()
        f = flip(e, batch.schema) if e.num_rows else e
        both = pa.concat_tables([e, f]) if e.num_rows else e
        tag = pa.array([0] * e.num_rows + [1] * (both.num_rows - e.num_rows),
                       pa.int8())
        keyed = _hash_key_batch(both, num_buckets)
        return keyed.append_column("_flip", tag)

    def survivors(group: pa.Table) -> pa.Table:
        h1 = group["_h1"].to_numpy(zero_copy_only=False)
        h2 = group["_h2"].to_numpy(zero_copy_only=False)
        fl = group["_flip"].to_numpy(zero_copy_only=False)
        existing = set(zip(h1[fl == 0].tolist(), h2[fl == 0].tolist()))
        keep_idx, seen = [], set()
        for i in np.flatnonzero(fl == 1):
            key = (int(h1[i]), int(h2[i]))
            if key not in existing and key not in seen:
                seen.add(key)
                keep_idx.append(i)
        t = group.take(pa.array(keep_idx, pa.int64()))
        return t.drop_columns(["_h1", "_h2", "_bucket", "_flip"])

    new_edges = (triples_ds
                 .map_batches(edges_tagged, batch_format="pyarrow")
                 .groupby("_bucket")
                 .map_groups(survivors, batch_format="pyarrow"))
    return triples_ds.union(new_edges)


def triple_counts(triples_ds):
    """Summary counts per predicate (reference's logged summaries,
    skos_converter.py:814-815, 1567-1573) — a small groupby."""
    from ray.data.aggregate import Count

    return triples_ds.groupby("pred").aggregate(Count(alias_name="n"))
