"""Validator suite (SURVEY.md A1-A4, J5, O3, M12; reference
``SKOSValidator`` skos_converter.py:104-411).

Every check emits rows into one ``issues`` table
``(severity, check, subject, detail)`` instead of printed strings —
the replacement for the reference's issue/warning lists (101-102). The
conversion gate (ref 1788-1798) becomes: count rows with
severity == "error" and branch.

Check inventory (reference file:line):
- duplicate_uri        concept typed as both Concept and Scheme (129-139)
- missing_label        typed concept without any prefLabel OR rdfs:label
                       (141-155; the reference accepts rdfs:label at 145-148)
- cycle                broader cycles incl. self-reference (157-187, 240-253)
- multiple_pref_labels >1 prefLabel per (concept, lang) (189-207)
- topconcept_onesided  hasTopConcept without topConceptOf and vice versa (209-238)
- orphan_in_scheme     inScheme but no broader and not top (255-270)
- duplicate_label      same prefLabel on several concepts (272-291)
- polyhierarchy        child with >1 broader (293-309) [warning]
- orphan_no_scheme     concept with no scheme at all (311-338)
- depth_exceeded       hierarchy deeper than 7 levels (340-374) [warning]

Execution shape: ``validate_table`` is one ``pa.Table -> ISSUES_SCHEMA``
kernel. It dedups first (RDF set semantics, as rdflib parses: a triple
asserted twice is one triple) and checks the triples as given, never
their inverse closure (on the closed table ``topconcept_onesided``
could not fire), then:
- ``set_issues`` runs every check but the walks as Arrow set
  operations, ``group_by`` aggregates and filters over two views of
  the triples, one keyed on the subject and one on the object. Each
  check reads only rows whose key is the node (or label) it reports
  on: the node checks and the topConcept pair diff meet a concept's
  subject- and object-side rows, ``duplicate_label`` counts the
  distinct subjects of each prefLabel (the object);
- ``walk_issues`` runs the cycle DFS and the depth BFS over the
  broader/narrower edge skeleton, sorted adjacency lists built by
  Arrow ``group_by``.
Where it runs is the SKOS size gate (``concepts.DRIVER_MAX_TRIPLES``,
``graph.resolve_engine`` contract): at or below it, one in-process
table; above it, ``set_issues`` runs per bucket after one
``multiway_cogroup_scatter`` of the triples on ``subj`` and on ``obj``
(every copy of a triple shares both keys, so the per-bucket dedup is
exact), and the walks run on the collected edge skeleton.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..config import (
    RDF_TYPE,
    RDFS_LABEL,
    SKOS_BROADER,
    SKOS_CONCEPT,
    SKOS_CONCEPT_SCHEME,
    SKOS_HAS_TOP_CONCEPT,
    SKOS_IN_SCHEME,
    SKOS_NARROWER,
    SKOS_PREF_LABEL,
    SKOS_TOP_CONCEPT_OF,
)
from ..functions.text import concat_array as _cat
from .concepts import (conform, local_dataset, materialize_and_place,
                       n_buckets, table_of)
from .hierarchy import edge_table
from .triples import dedup_table

ISSUES_SCHEMA = pa.schema([
    ("severity", pa.string()),   # "error" | "warning"
    ("check", pa.string()),
    ("subject", pa.string()),
    ("detail", pa.string()),
])


def _issues(severity: str, check: str, subject, detail) -> pa.Table:
    n = len(subject)
    if isinstance(detail, str):
        detail = pa.repeat(detail, n)
    return pa.table([pa.repeat(severity, n), pa.repeat(check, n),
                     subject, detail], schema=ISSUES_SCHEMA)


def _str(col):
    return pc.cast(col, pa.string())


def _where(t: pa.Table, *preds: str) -> pa.Table:
    return t.filter(pc.is_in(t["pred"], value_set=pa.array(preds)))


def _distinct(*cols) -> pa.Array:
    return pc.unique(pa.chunked_array(
        [c for col in cols for c in col.chunks], pa.string()))


def _over_one(t: pa.Table, keys: list, extra=()) -> pa.Table:
    """Rows per ``keys`` group (column ``n``) plus ``extra``
    aggregates, keeping only the groups of more than one row."""
    g = t.group_by(keys).aggregate(
        [("subj", "count", pc.CountOptions(mode="all")), *extra])
    g = g.rename_columns(["n" if c == "subj_count" else c
                          for c in g.column_names])
    return g.filter(pc.greater(g["n"], 1))


def set_issues(by_subj: pa.Table, by_obj: pa.Table) -> pa.Table:
    """Every check but the walks on deduped triples: ``by_subj`` must
    hold every triple whose subject is a node reported on here,
    ``by_obj`` every one whose object is (the whole table in-process)."""
    types = _where(by_subj, RDF_TYPE)
    concept = _distinct(types.filter(
        pc.equal(types["obj"], SKOS_CONCEPT))["subj"])

    def concepts_in(*cols):
        return pc.is_in(concept, value_set=_distinct(*cols))

    dup_uri = concepts_in(types.filter(
        pc.equal(types["obj"], SKOS_CONCEPT_SCHEME))["subj"])
    labeled = concepts_in(_where(by_subj, SKOS_PREF_LABEL, RDFS_LABEL)["subj"])
    anchored = concepts_in(
        _where(by_subj, SKOS_BROADER, SKOS_TOP_CONCEPT_OF)["subj"],
        _where(by_obj, SKOS_NARROWER, SKOS_HAS_TOP_CONCEPT)["obj"])
    in_s = _where(by_subj, SKOS_IN_SCHEME).group_by("subj") \
        .aggregate([("obj", "min")])
    scheme = in_s["obj_min"].combine_chunks().take(pc.index_in(
        concept, value_set=in_s["subj"].combine_chunks()))
    orphan = pc.invert(anchored)
    in_scheme = pc.and_(orphan, pc.is_valid(scheme))

    # topConcept pair diff (J5): sides meet on the concept
    htc = _where(by_obj, SKOS_HAS_TOP_CONCEPT)
    tco = _where(by_subj, SKOS_TOP_CONCEPT_OF)
    pairs = pa.table({
        "scheme": pa.chunked_array(htc["subj"].chunks + tco["obj"].chunks,
                                   pa.string()),
        "concept": pa.chunked_array(htc["obj"].chunks + tco["subj"].chunks,
                                    pa.string()),
        "tco": np.repeat([False, True], [htc.num_rows, tco.num_rows])})
    sides = pairs.group_by(["scheme", "concept"]).aggregate(
        [("tco", "min"), ("tco", "max")])
    onesided = sides.filter(pc.equal(sides["tco_min"], sides["tco_max"]))

    labels = _where(by_subj, SKOS_PREF_LABEL)
    labels = labels.set_column(labels.schema.get_field_index("lang"), "lang",
                               pc.fill_null(labels["lang"], ""))
    multi = _over_one(labels, ["subj", "lang"])
    # one row per (label, subject): a concept holding a label in two
    # languages uses it once
    dup = _over_one(_where(by_obj, SKOS_PREF_LABEL).group_by(
        ["obj", "subj"]).aggregate([]), ["obj"], [("subj", "min")])
    poly = _over_one(_where(by_subj, SKOS_BROADER), ["subj"])
    return pa.concat_tables([
        _issues("error", "duplicate_uri", concept.filter(dup_uri),
                "typed as both Concept and ConceptScheme"),
        _issues("error", "missing_label", concept.filter(pc.invert(labeled)),
                "concept has no prefLabel"),
        _issues("warning", "orphan_in_scheme", concept.filter(in_scheme),
                _cat("in scheme ", scheme.filter(in_scheme),
                     " without broader")),
        _issues("warning", "orphan_no_scheme", concept.filter(
            pc.and_(orphan, pc.is_null(scheme))),
            "concept not associated with any scheme"),
        _issues("warning", "topconcept_onesided", onesided["concept"],
                pc.if_else(onesided["tco_min"],
                           _cat("topConceptOf ", onesided["scheme"],
                                " without hasTopConcept"),
                           _cat("hasTopConcept from ", onesided["scheme"],
                                " without topConceptOf"))),
        _issues("error", "multiple_pref_labels", multi["subj"],
                _cat(_str(multi["n"]), " prefLabels for lang '",
                     multi["lang"], "'")),
        _issues("warning", "duplicate_label", dup["subj_min"],
                _cat("label '", dup["obj"], "' used by ",
                     _str(dup["n"]), " subjects")),
        _issues("warning", "polyhierarchy", poly["subj"],
                _cat(_str(poly["n"]), " broader concepts")),
    ])


def walk_issues(t: pa.Table) -> pa.Table:
    """Cycle (DFS) and depth (BFS) walks over the broader/narrower
    skeleton of ``t``, visiting nodes and neighbours in sorted order."""

    def adjacency(e: pa.Table, src: str, dst: str) -> dict:
        g = e.group_by([src, dst]).aggregate([]) \
            .sort_by([(src, "ascending"), (dst, "ascending")]) \
            .group_by(src, use_threads=False).aggregate([(dst, "list")])
        return dict(zip(g[src].to_pylist(), g[dst + "_list"].to_pylist()))

    edges = edge_table(t)
    up = adjacency(edges, "child", "parent")
    cycles = []
    color: dict[str, int] = {}  # 0=visiting 1=done
    for start in up:
        if start in color:
            continue
        stack = [(start, iter(up[start]))]
        color[start] = 0
        while stack:
            node, it = stack[-1]
            for nb in it:
                if nb == node:
                    cycles.append(node)  # self-reference (ref 240-253)
                    continue
                c = color.get(nb)
                if c == 0:
                    cycles.append(nb)
                elif c is None:
                    color[nb] = 0
                    stack.append((nb, iter(up.get(nb, ()))))
                    break
            else:
                color[node] = 1
                stack.pop()

    # depth_exceeded (ref 340-374): BFS from tops, warn > 7
    down = adjacency(edges, "parent", "child")
    tops = _distinct(_where(t, SKOS_HAS_TOP_CONCEPT)["obj"],
                     _where(t, SKOS_TOP_CONCEPT_OF)["subj"])
    deep, depths = [], []
    for root in tops.take(pc.sort_indices(tops)).to_pylist():
        depth, frontier, seen = 1, [root], {root}
        while frontier and depth <= 40:
            nxt = [c for f in frontier for c in down.get(f, ())
                   if c not in seen]
            if not nxt:
                break
            seen.update(nxt)
            depth += 1
            frontier = nxt
        if depth > 7:
            deep.append(root)
            depths.append(f"hierarchy depth {depth} exceeds 7")
    return pa.concat_tables([
        # one row per node: a node closing several cycles is one fault
        _issues("error", "cycle",
                pa.array(list(dict.fromkeys(cycles)), pa.string()),
                "broader cycle detected"),
        _issues("warning", "depth_exceeded", pa.array(deep, pa.string()),
                pa.array(depths, pa.string()))])


def validate_table(t: pa.Table) -> pa.Table:
    """triples (schemas.TRIPLES) -> ISSUES_SCHEMA, on one table."""
    d = dedup_table(t)
    return pa.concat_tables([set_issues(d, d), walk_issues(d)])


def validate(triples_ds):
    """triples Dataset -> issues Dataset: ``validate_table`` in-process
    at or below the SKOS size gate; above it ``set_issues`` per bucket
    and the walks on the collected edge skeleton (module docstring)."""
    from .shardutil import multiway_cogroup_scatter

    ds, placement = materialize_and_place(triples_ds, "auto")
    if placement == "driver":
        return local_dataset(validate_table(table_of(ds, schemas.TRIPLES)))
    sets = multiway_cogroup_scatter(
        [(ds, "subj"), (ds, "obj")], n_buckets(ds),
        lambda s, o: set_issues(dedup_table(conform([s], schemas.TRIPLES)),
                                dedup_table(conform([o], schemas.TRIPLES))),
        empty_result=ISSUES_SCHEMA.empty_table())
    skel = ds.map_batches(lambda b: _where(
        b, SKOS_BROADER, SKOS_NARROWER, SKOS_HAS_TOP_CONCEPT,
        SKOS_TOP_CONCEPT_OF), batch_format="pyarrow")
    return sets.union(local_dataset(
        walk_issues(table_of(skel, schemas.TRIPLES))))


def errors(issues_ds):
    """The severity == "error" rows of an issues Dataset (one
    vectorized filter per batch)."""
    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["severity"], "error")) if b.num_rows \
            else ISSUES_SCHEMA.empty_table()

    return issues_ds.map_batches(keep, batch_format="pyarrow")


def gate(issues_ds, *, force: bool = False) -> bool:
    """Conversion gate (ref 1788-1798): False (abort) when errors exist
    and not forced."""
    return force or errors(issues_ds).count() == 0
