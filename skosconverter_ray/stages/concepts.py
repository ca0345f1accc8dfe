"""Concept pivot + label resolution (SURVEY.md A5/A6/J4), and the SKOS
size gate every table-kernel stage runs behind.

Replaces the reference's per-concept getter cluster
(skos_converter.py:623-657) and its language-preference chain
(437-451) with one Arrow kernel, ``pivot_table``: a vectorized
language rank, one ``group_by(subj, pred, key)`` for set semantics, one
ordered ``group_by(subj, pred)`` into sorted value lists, and one
``index_in`` per predicate to lay each list out against the subject
column. No Python runs per subject or per row.

Reference "first" semantics (``definitions[0]`` at 631, first-wins
scheme assignment at 711) are nondeterministic under rdflib iteration;
here every "first" is min() under an explicit total order
(SURVEY.md D5 discipline).

Label fallback chain (ref 420-451, 376-394):
prefLabel@preferred > prefLabel@fallback_i > prefLabel@any >
altLabel > rdfs:label > URI tail.

Placement (``run_stage``): at or below ``DRIVER_MAX_TRIPLES`` input rows
a kernel runs in-process on one table per side (``table_of``) and the
result comes back as a one-block Dataset (``local_dataset``), so a
stage costs its kernel plus one ``ray.put``; above it the same kernel
runs per key bucket after one ``shardutil.multiway_cogroup_scatter``
of its sides (the inverse closure sends the triples on ``subj`` and on
``obj``).
``validate`` and ``build_tree_rows`` make the same decision, the latter
overridable through its ``engine`` keyword (``graph.resolve_engine``
contract).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..config import (
    RDF_TYPE,
    RDFS_LABEL,
    SKOS_ALT_LABEL,
    SKOS_CONCEPT,
    SKOS_CONCEPT_SCHEME,
    SKOS_DEFINITION,
    SKOS_HIDDEN_LABEL,
    SKOS_IN_SCHEME,
    SKOS_NOTATION,
    SKOS_PREF_LABEL,
    SKOS_RELATED,
    SKOS_SCOPE_NOTE,
    SKOS_TOP_CONCEPT_OF,
    OWL_SAME_AS,
    EngineConfig,
)
from ..functions.text import uri_tail_array

# The SKOS size gate: input triples at or below which a stage runs its
# kernels in-process (measurement in BASELINE.md, round 6).
DRIVER_MAX_TRIPLES = 1_000_000

# the triple columns the SKOS kernels read
TRIPLE_COLS = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                         ("obj", pa.string()), ("lang", pa.string())])

PIVOT_SCHEMA = schemas.CONCEPTS.append(
    pa.field("is_concept", pa.bool_())).append(
    pa.field("is_scheme", pa.bool_()))


def _lang_rank(lang, cfg: EngineConfig) -> pa.Array:
    """0 = preferred language, 1 + i = fallback i, 98 = untagged,
    99 = any other tag (ref 437-451)."""
    lang = pc.cast(lang, pa.string())
    fb = pc.cast(pc.index_in(lang, value_set=pa.array(
        list(cfg.fallback_languages), pa.string())), pa.int64())
    rank = pc.if_else(pc.fill_null(pc.equal(lang, ""), True), 98, 99)
    rank = pc.if_else(pc.is_valid(fb), pc.add(fb, 1), rank)
    pref = (pc.is_null(lang) if cfg.preferred_language is None
            else pc.fill_null(pc.equal(lang, cfg.preferred_language),
                              False))
    return pc.if_else(pref, 0, rank)


def pivot_table(triples: pa.Table, cfg: EngineConfig) -> pa.Table:
    """triples -> one PIVOT_SCHEMA row per distinct subject, ordered by
    uri. prefLabel values are keyed ``rank(3 digits) + label`` so one
    string min picks the best language, then the smallest label."""
    subj, pred, obj = triples["subj"], triples["pred"], triples["obj"]
    rank = pc.utf8_lpad(pc.cast(_lang_rank(triples["lang"], cfg),
                                pa.string()), 3, "0")
    key = pc.if_else(pc.equal(pred, SKOS_PREF_LABEL),
                     pc.binary_join_element_wise(rank, obj, ""), obj)
    groups = (pa.table({"subj": subj, "pred": pred, "key": key})
              .group_by(["subj", "pred", "key"]).aggregate([])
              .sort_by([("subj", "ascending"), ("pred", "ascending"),
                        ("key", "ascending")])
              .group_by(["subj", "pred"], use_threads=False)
              .aggregate([("key", "list")]))
    uris = pc.unique(subj)
    uris = uris.take(pc.sort_indices(uris))

    def values(p: str) -> pa.Array:
        """Sorted distinct values of predicate ``p`` per uri (null
        where the subject has none)."""
        g = groups.filter(pc.equal(groups["pred"], p))
        return g["key_list"].combine_chunks().take(
            pc.index_in(uris, value_set=g["subj"].combine_chunks()))

    def first(p: str) -> pa.Array:
        return pc.list_element(values(p), 0)

    def value_set(p: str) -> pa.Array:
        return pc.fill_null(values(p), pa.scalar([], pa.list_(pa.string())))

    def typed(cls: str) -> pa.Array:
        t = triples.filter(pc.and_(pc.equal(pred, RDF_TYPE),
                                   pc.equal(obj, cls)))
        return pc.is_in(uris, value_set=t["subj"].combine_chunks())

    top = first(SKOS_TOP_CONCEPT_OF)
    return pa.table({
        "uri": uris,
        "pref_label": pc.coalesce(
            pc.utf8_slice_codeunits(first(SKOS_PREF_LABEL), 3),
            first(SKOS_ALT_LABEL), first(RDFS_LABEL), uri_tail_array(uris)),
        "alt_labels": value_set(SKOS_ALT_LABEL),
        "hidden_labels": value_set(SKOS_HIDDEN_LABEL),
        # definition falls back to scopeNote (ref 633-636)
        "definition": pc.coalesce(first(SKOS_DEFINITION),
                                  first(SKOS_SCOPE_NOTE), ""),
        "notation": pc.coalesce(first(SKOS_NOTATION), ""),
        "same_as": value_set(OWL_SAME_AS),
        "related": value_set(SKOS_RELATED),
        # topConceptOf wins over inScheme (ref 685-714)
        "scheme": pc.coalesce(top, first(SKOS_IN_SCHEME), ""),
        "is_top": pc.is_valid(top),
        "is_concept": typed(SKOS_CONCEPT),
        "is_scheme": typed(SKOS_CONCEPT_SCHEME),
    }, schema=PIVOT_SCHEMA)


def materialize_and_place(ds, engine: str):
    """-> (materialized ds, "driver" | "actors") by its row count
    against DRIVER_MAX_TRIPLES (graph.resolve_engine contract). A
    MaterializedDataset is used as is."""
    from .graph import resolve_engine
    from .shardutil import materialized

    ds = materialized(ds)
    return ds, resolve_engine(engine, ds.count(), DRIVER_MAX_TRIPLES)


def n_buckets(ds) -> int:
    """Bucket (and shard) count above the gate: 8, the shard count the
    graph operators' actor engines use. Small inputs forced onto the
    actors get one per 4,096 rows (about 500 subjects at the ~10
    triples per subject of the generator vocabularies), at least 2."""
    return max(2, min(8, ds.count() // 4_096 + 1))


def table_of(ds, schema: pa.Schema) -> pa.Table:
    """Dataset -> one in-process table of ``schema``'s columns, skipping
    the schema-less empty blocks groupby/map_groups can leave. The plan
    runs at most once: a lazy Dataset is materialized once, and a
    materialized one hands over its block refs without an execution,
    an executor start or a schema probe (``shardutil.block_refs``)."""
    import ray
    from ray.data.block import BlockAccessor

    from .shardutil import block_refs

    return conform([BlockAccessor.for_block(b).to_arrow()
                    for b in ray.get(block_refs(ds))], schema)


def local_dataset(t: pa.Table):
    """An in-process table -> a one-block MaterializedDataset: one
    ``ray.put`` and block metadata built here, where ``rd.from_arrow``
    would start a metadata task per block."""
    import ray

    from .shardutil import block_meta, blocks_dataset

    return blocks_dataset([ray.put(t)], [block_meta(t)])


def conform(tables, schema: pa.Schema) -> pa.Table:
    """Tables (``None`` allowed) -> one table of ``schema``'s columns."""
    parts = [t.select(schema.names).cast(schema) for t in tables
             if t is not None and t.num_rows]
    return (pa.concat_tables(parts).combine_chunks() if parts
            else schema.empty_table())


def run_stage(sides, in_schema: pa.Schema, fn, out_schema: pa.Schema):
    """Table kernel ``fn(t0, t1, ...)`` over ``sides``, the
    ``multiway_cogroup_scatter`` list of ``(dataset, key)``, every side
    fed ``in_schema``'s columns: on one in-process table per side at or
    below the gate (placed by the first side's row count), per bucket
    of each side's ``key`` above it. A Dataset listed twice must be
    materialized."""
    from .shardutil import materialized, multiway_cogroup_scatter

    first, placement = materialize_and_place(sides[0][0], "auto")
    sides = [(first, sides[0][1])] + [(materialized(d), k)
                                      for d, k in sides[1:]]
    if placement == "driver":
        return local_dataset(fn(*(table_of(d, in_schema) for d, _ in sides)))
    return multiway_cogroup_scatter(
        sides, n_buckets(first),
        lambda *ts: fn(*(conform([t], in_schema) for t in ts)),
        empty_result=out_schema.empty_table())


def pivot_concepts(triples_ds, cfg: EngineConfig | None = None):
    """triples Dataset -> concepts wide Dataset (PIVOT_SCHEMA: the
    CONCEPTS schema plus ``is_concept`` and ``is_scheme``), one row per
    subject; above the gate the triples are bucketed on ``subj``."""
    cfg = cfg or EngineConfig()
    return run_stage([(triples_ds, "subj")], TRIPLE_COLS,
                     lambda t: pivot_table(t, cfg), PIVOT_SCHEMA)
