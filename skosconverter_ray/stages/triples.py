"""Triple-table core ops: set-semantics dedup (U4) and the
inverse-relation consistency pass (the engine generalization of the
reference's paired emission at skos_converter.py:1540-1541, 1545-1546
and its one-sided-pair validator at 209-238).

``dedup_triples`` is the corpus-scale Dataset op: a vectorized
per-batch pre-dedup, then one exchange on the content-hash bucket.
The SKOS path runs table kernels instead: ``dedup_table`` and
``closure_table`` (dedup, flip, anti-join on the content hash) on one
in-process table at or below the SKOS size gate
(``concepts.DRIVER_MAX_TRIPLES``), per bucket above it
(``concepts.run_stage``); both reuse ``_hash_key_batch`` /
``_first_per_hash``, so every path keeps the same witness row.
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
    keep the per-bucket dedup one Arrow sort — no Python-object
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
    """The min-``source_doc`` row of each (_h1, _h2) run, in input
    order: one stable sort on (_h1, _h2, source_doc) with null
    documents last keeps the first row of each run. UTF-8 byte order
    is code-point order and the sort is stable, so among equal
    documents the earliest row wins, as ``min`` over ``(doc is None,
    doc, row)`` picks it. Without a ``source_doc`` column the earliest
    row of each run wins."""
    if t.num_rows == 0:
        return t
    keys = [(c, "ascending") for c in ("_h1", "_h2", "source_doc")
            if c in t.column_names]
    order = pc.sort_indices(t, sort_keys=keys,
                            null_placement="at_end").to_numpy()
    h1 = t["_h1"].to_numpy(zero_copy_only=False)[order]
    h2 = t["_h2"].to_numpy(zero_copy_only=False)[order]
    head = np.concatenate(([True], (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])))
    return t.take(pa.array(np.sort(order[head]), pa.int64()))


def dedup_triples(triples_ds, *, num_buckets: int = 64,
                  coalesce: bool = False):
    """RDF set semantics: identical triples collapse to one row
    (rdflib ``graph.add`` dedup, SURVEY.md U4); the surviving row's
    ``source_doc`` is the min over duplicates (deterministic witness).

    Two-phase: vectorized per-batch pre-dedup (shrinks the shuffle),
    then ONE grouping over ``_h1 % num_buckets`` with one sort per
    bucket (``_first_per_hash``) — O(num_buckets) Python calls, never
    one per distinct triple, and no Python-object comparisons.

    With ``coalesce=True`` the grouping is shardutil's task exchange,
    and it is eager: the call materializes its input and submits the
    whole exchange when called, not when the returned Dataset is
    read."""

    def local(batch: pa.Table) -> pa.Table:
        return _first_per_hash(_hash_key_batch(batch, num_buckets))

    keyed = triples_ds.map_batches(local, batch_format="pyarrow")
    if coalesce:
        # corpus-scale path (round 4): rows already carry the int
        # bucket, so grouping needs no sort — a task-level hash
        # scatter/gather (split and dedup tasks per run of blocks and
        # of buckets) replaces Ray's SORT-based groupby exchange, which
        # dominated the 1M-doc flagship wall (41 s of 60 s at 16 cpus;
        # sample+range-partition+sort is wasted work for hash groups).
        from .shardutil import scatter_apply_by_value

        out = scatter_apply_by_value(keyed.materialize(), "_bucket",
                                     num_buckets, _first_per_hash)
    else:
        out = keyed.groupby("_bucket").map_groups(
            _first_per_hash, batch_format="pyarrow")
    return out.drop_columns(["_h1", "_h2", "_bucket"])


def _dedup_keyed(t: pa.Table) -> pa.Table:
    return _first_per_hash(_hash_key_batch(t, 1))


def dedup_table(t: pa.Table) -> pa.Table:
    """``dedup_triples`` on one in-process table."""
    return _dedup_keyed(t).drop_columns(["_h1", "_h2", "_bucket"])


def _flip(t: pa.Table) -> pa.Table:
    """The inverse of every non-literal hierarchical edge and the
    mirror of every non-literal symmetric edge of ``t``."""
    inv = {**INVERSE_PAIRS, **{p: p for p in SYMMETRIC_PREDS}}
    src, dst = pa.array(list(inv)), pa.array(list(inv.values()))
    e = t.filter(pc.and_(pc.is_in(t["pred"], value_set=src),
                         pc.invert(t["obj_is_literal"])))
    cols = dict(zip(e.column_names, e.columns))
    cols.update(subj=e["obj"], obj=e["subj"],
                pred=dst.take(pc.index_in(e["pred"], value_set=src)))
    return pa.table(cols, schema=e.schema)


def closure_table(triples: pa.Table, flip_src: pa.Table) -> pa.Table:
    """Set semantics plus the inverse closure (schemas.TRIPLES in and
    out): ``triples`` deduped with the min-``source_doc`` witness, plus
    every flip of a ``flip_src`` edge not already among them. In-process
    both are the whole table; per bucket ``triples`` holds the rows
    whose ``subj`` hashes to it and ``flip_src`` those whose ``obj``
    does, so each flip meets the rows of its own subject. Distinct
    edges flip to distinct edges, so deduping the flips and one
    anti-join on the content hash is the whole closure; a second pass
    adds nothing."""
    d = _dedup_keyed(triples)
    f = _dedup_keyed(_flip(flip_src))
    new = f.join(d.select(["_h1", "_h2"]), ["_h1", "_h2"],
                 join_type="left anti")
    return pa.concat_tables([d, new.select(d.column_names)]) \
        .drop_columns(["_h1", "_h2", "_bucket"])


def inverse_consistency(triples_ds):
    """Dataset form of ``closure_table``: dedup, then emit the inverse
    of every hierarchical edge (broader⇔narrower, hasTopConcept⇔
    topConceptOf per INVERSE_PAIRS) and the mirror of every symmetric
    edge (related / exactMatch / sameAs per SYMMETRIC_PREDS). In-process
    at or below the SKOS size gate; above it the triples are bucketed
    once on ``subj`` and once on ``obj`` (the flips' new subject)."""
    from .. import schemas
    from .concepts import run_stage
    from .shardutil import materialized

    ds = materialized(triples_ds)
    return run_stage([(ds, "subj"), (ds, "obj")], schemas.TRIPLES,
                     closure_table, schemas.TRIPLES)

