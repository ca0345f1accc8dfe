"""Validator suite (SURVEY.md A1-A4, J5, O3, M12; reference
``SKOSValidator`` skos_converter.py:104-411).

Every check emits rows into one ``issues`` table
``(severity, check, subject, detail)`` instead of printed strings —
the distributed replacement for the reference's issue/warning lists
(101-102). The conversion gate (ref 1788-1798) becomes: count rows
with severity == "error" and branch.

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

Execution shape (all set logic DISTRIBUTED):
- node-scoped checks (duplicate_uri, missing_label, both orphan
  checks) ride ONE bucket-cogroup over per-node fact rows — the
  multi-way outer join on uri the reference does as in-memory set
  algebra;
- the topconcept pair diff is a bucket-cogroup anti-join on the
  (scheme, concept) pair key;
- prefLabel checks and polyhierarchy are plain groupby aggregates;
- ONLY cycle detection and depth (inherently sequential graph walks)
  pull the dimension-sized broader/narrower edge skeleton to the
  driver — same scale argument as stages/hierarchy.py: the vocabulary
  graph is ≪ corpus.
All branches hang off one materialized input, so consuming the final
union executes everything in a single streaming pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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

ISSUES_SCHEMA = pa.schema([
    ("severity", pa.string()),   # "error" | "warning"
    ("check", pa.string()),
    ("subject", pa.string()),
    ("detail", pa.string()),
])

# node-fact kinds for the uri-keyed cogroup
_F_CONCEPT = 0      # rdf:type skos:Concept
_F_SCHEME = 1       # rdf:type skos:ConceptScheme
_F_LABELED = 2      # has prefLabel or rdfs:label
_F_IN_SCHEME = 3    # payload = scheme uri
_F_HAS_BROADER = 4  # child side of broader/narrower
_F_IS_TOP = 5       # top concept via hasTopConcept or topConceptOf


def _issues_table(rows: list[tuple]) -> pa.Table:
    return pa.table(
        {
            "severity": pa.array([r[0] for r in rows], pa.string()),
            "check": pa.array([r[1] for r in rows], pa.string()),
            "subject": pa.array([r[2] for r in rows], pa.string()),
            "detail": pa.array([r[3] for r in rows], pa.string()),
        },
        schema=ISSUES_SCHEMA,
    )


def _filter_pred(ds, pred: str):
    return ds.map_batches(
        lambda b, _p=pred: b.filter(pc.equal(b["pred"], _p)),
        batch_format="pyarrow")


_FACTS_SCHEMA = pa.schema([("_bucket", pa.int32()), ("uri", pa.string()),
                           ("kind", pa.int8()), ("payload", pa.string())])


def _node_facts(batch: pa.Table, num_buckets: int) -> pa.Table:
    """One triples batch -> (uri, kind, payload) fact rows."""
    from ..functions.hashing import bucket_of

    preds = batch["pred"]
    uris, kinds, payloads = [], [], []

    def emit(uri_arr, kind, payload_arr=None):
        n = len(uri_arr)
        if n == 0:
            return
        uris.append(uri_arr.combine_chunks()
                    if isinstance(uri_arr, pa.ChunkedArray) else uri_arr)
        kinds.append(np.full(n, kind, np.int8))
        if payload_arr is None:
            payloads.append(pa.nulls(n, pa.string()))
        else:
            payloads.append(payload_arr.combine_chunks()
                            if isinstance(payload_arr, pa.ChunkedArray)
                            else payload_arr)

    types = batch.filter(pc.equal(preds, RDF_TYPE))
    emit(types.filter(pc.equal(types["obj"], SKOS_CONCEPT))["subj"],
         _F_CONCEPT)
    emit(types.filter(pc.equal(types["obj"], SKOS_CONCEPT_SCHEME))["subj"],
         _F_SCHEME)
    labeled = batch.filter(pc.is_in(
        preds, value_set=pa.array([SKOS_PREF_LABEL, RDFS_LABEL])))
    emit(labeled["subj"], _F_LABELED)
    insch = batch.filter(pc.equal(preds, SKOS_IN_SCHEME))
    emit(insch["subj"], _F_IN_SCHEME, insch["obj"])
    emit(batch.filter(pc.equal(preds, SKOS_BROADER))["subj"], _F_HAS_BROADER)
    emit(batch.filter(pc.equal(preds, SKOS_NARROWER))["obj"], _F_HAS_BROADER)
    emit(batch.filter(pc.equal(preds, SKOS_HAS_TOP_CONCEPT))["obj"], _F_IS_TOP)
    emit(batch.filter(pc.equal(preds, SKOS_TOP_CONCEPT_OF))["subj"], _F_IS_TOP)
    if not uris:
        return _FACTS_SCHEMA.empty_table()
    uri_col = pa.concat_arrays([a for a in uris])
    return pa.table({
        "_bucket": bucket_of(uri_col, num_buckets),
        "uri": uri_col,
        "kind": pa.array(np.concatenate(kinds)),
        "payload": pa.concat_arrays([p for p in payloads]),
    }, schema=_FACTS_SCHEMA)


def _node_issues(group: pa.Table) -> pa.Table:
    """Per-bucket multi-way set logic on the cogrouped node facts."""
    df = group.select(["uri", "kind", "payload"]).to_pandas()
    kinds = df.groupby("uri")["kind"].agg(lambda s: frozenset(s))
    schemes = (df[df["kind"] == _F_IN_SCHEME]
               .groupby("uri")["payload"].min())
    rows: list[tuple] = []
    for uri in sorted(kinds.index):
        ks = kinds[uri]
        is_concept = _F_CONCEPT in ks
        if is_concept and _F_SCHEME in ks:
            rows.append(("error", "duplicate_uri", uri,
                         "typed as both Concept and ConceptScheme"))
        if is_concept and _F_LABELED not in ks:
            rows.append(("error", "missing_label", uri,
                         "concept has no prefLabel"))
        if is_concept:
            in_s = _F_IN_SCHEME in ks
            anchored = _F_HAS_BROADER in ks or _F_IS_TOP in ks
            if in_s and not anchored:
                rows.append(("warning", "orphan_in_scheme", uri,
                             f"in scheme {schemes[uri]} without broader"))
            if not in_s and not anchored:
                rows.append(("warning", "orphan_no_scheme", uri,
                             "concept not associated with any scheme"))
    return _issues_table(rows)


_PAIR_SCHEMA = pa.schema([("_bucket", pa.int32()), ("scheme", pa.string()),
                          ("concept", pa.string()), ("side", pa.int8())])


def _topconcept_pairs(batch: pa.Table, num_buckets: int) -> pa.Table:
    """(scheme, concept) pair rows: side 0 = hasTopConcept,
    side 1 = topConceptOf (reversed)."""
    from ..functions.hashing import bucket_of

    htc = batch.filter(pc.equal(batch["pred"], SKOS_HAS_TOP_CONCEPT))
    tco = batch.filter(pc.equal(batch["pred"], SKOS_TOP_CONCEPT_OF))
    scheme = pa.concat_arrays([htc["subj"].combine_chunks(),
                               tco["obj"].combine_chunks()])
    concept = pa.concat_arrays([htc["obj"].combine_chunks(),
                                tco["subj"].combine_chunks()])
    side = pa.array(np.concatenate([np.zeros(htc.num_rows, np.int8),
                                    np.ones(tco.num_rows, np.int8)]))
    key = pc.binary_join_element_wise(scheme, concept, "\x1f")
    return pa.table({"_bucket": bucket_of(key, num_buckets),
                     "scheme": scheme, "concept": concept, "side": side},
                    schema=_PAIR_SCHEMA)


def _onesided_pairs(group: pa.Table) -> pa.Table:
    """Full-outer diff of the two pair sets, local per bucket."""
    df = group.select(["scheme", "concept", "side"]).to_pandas()
    sides = df.groupby(["scheme", "concept"])["side"].agg(set)
    rows = []
    for (scheme, concept), ss in sides.items():
        if ss == {0}:
            rows.append(("warning", "topconcept_onesided", concept,
                         f"hasTopConcept from {scheme} without topConceptOf"))
        elif ss == {1}:
            rows.append(("warning", "topconcept_onesided", concept,
                         f"topConceptOf {scheme} without hasTopConcept"))
    return _issues_table(rows)


def validate(triples_ds, *, num_buckets: int = 16):
    """triples Dataset -> issues Dataset. Set-algebra checks run as
    bucket-cogroups / groupbys; graph walks (cycles, depth) run on the
    collected dimension-sized edge skeleton."""
    import ray.data as rd
    from ray.data.aggregate import Count, Min

    triples_ds = triples_ds.materialize()

    # ---- node-scoped checks: ONE cogroup over per-node fact rows
    node_issues = (
        triples_ds
        .map_batches(lambda b: _node_facts(b, num_buckets),
                     batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(_node_issues, batch_format="pyarrow")
    )

    # ---- topconcept pair diff: cogroup anti-join on the pair key
    pair_issues = (
        triples_ds
        .map_batches(lambda b: _topconcept_pairs(b, num_buckets),
                     batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(_onesided_pairs, batch_format="pyarrow")
    )

    # ---- prefLabel checks (distributed groupbys)
    labels = _filter_pred(triples_ds, SKOS_PREF_LABEL)

    def label_rows(b: pa.Table) -> pa.Table:
        return pa.table({
            "subj": b["subj"],
            "lang": b["lang"].combine_chunks().fill_null("")
            if isinstance(b["lang"], pa.ChunkedArray) else
            pc.fill_null(b["lang"], ""),
            "label": b["obj"],
        })

    lab = labels.map_batches(label_rows, batch_format="pyarrow")

    # multiple_pref_labels per (subj, lang) (ref 189-207)
    def multi_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n"], 1))
        return _issues_table([
            ("error", "multiple_pref_labels", s,
             f"{n} prefLabels for lang '{lg}'")
            for s, lg, n in zip(t["subj"].to_pylist(),
                                t["lang"].to_pylist(),
                                t["n"].to_pylist())
        ])

    multi_issues = (lab.groupby(["subj", "lang"])
                    .aggregate(Count(alias_name="n"))
                    .map_batches(multi_rows, batch_format="pyarrow"))

    # duplicate_label across concepts (ref 272-291): min(subj) reported
    def dup_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n"], 1))
        return _issues_table([
            ("warning", "duplicate_label", s,
             f"label '{lb}' used by {n} subjects")
            for lb, s, n in zip(t["label"].to_pylist(),
                                t["subj"].to_pylist(),
                                t["n"].to_pylist())
        ])

    dup_issues = (lab.groupby("label")
                  .aggregate(Count(alias_name="n"),
                             Min("subj", alias_name="subj"))
                  .map_batches(dup_rows, batch_format="pyarrow"))

    # ---- polyhierarchy (ref 293-309): >1 broader per child — groupby
    def poly_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n"], 1))
        return _issues_table([
            ("warning", "polyhierarchy", s, f"{n} broader concepts")
            for s, n in zip(t["subj"].to_pylist(), t["n"].to_pylist())
        ])

    poly_issues = (
        _filter_pred(triples_ds, SKOS_BROADER)
        .map_batches(lambda b: b.select(["subj"]), batch_format="pyarrow")
        .groupby("subj").aggregate(Count(alias_name="n"))
        .map_batches(poly_rows, batch_format="pyarrow"))

    # ---- cycles + depth: driver walk over the dimension-sized skeleton
    from collections import defaultdict

    broader: list[tuple[str, str]] = []   # (child, parent)
    narrower: list[tuple[str, str]] = []  # (parent, child)
    tops: set[str] = set()
    edge_preds = [SKOS_BROADER, SKOS_NARROWER,
                  SKOS_HAS_TOP_CONCEPT, SKOS_TOP_CONCEPT_OF]
    skel = triples_ds.map_batches(
        lambda b: b.filter(pc.is_in(b["pred"],
                                    value_set=pa.array(edge_preds))),
        batch_format="pyarrow")
    for b in skel.iter_batches(batch_format="pyarrow", batch_size=65536):
        for s, p, o in zip(b["subj"].to_pylist(), b["pred"].to_pylist(),
                           b["obj"].to_pylist()):
            if p == SKOS_BROADER:
                broader.append((s, o))
            elif p == SKOS_NARROWER:
                narrower.append((s, o))
            elif p == SKOS_HAS_TOP_CONCEPT:
                tops.add(o)
            else:
                tops.add(s)

    rows: list[tuple] = []
    adj: dict[str, list[str]] = defaultdict(list)
    for c, p in broader:
        adj[c].append(p)
    for p, c in narrower:
        adj[c].append(p)
    color: dict[str, int] = {}  # 0=visiting 1=done

    def on_cycle(u):
        rows.append(("error", "cycle", u, "broader cycle detected"))

    for start in sorted(adj):
        if start in color:
            continue
        stack = [(start, iter(sorted(set(adj.get(start, [])))))]
        color[start] = 0
        while stack:
            node, it = stack[-1]
            found = False
            for nb in it:
                if nb == node:
                    on_cycle(node)  # self-reference (ref 240-253)
                    continue
                c = color.get(nb)
                if c == 0:
                    on_cycle(nb)
                elif c is None:
                    color[nb] = 0
                    stack.append((nb, iter(sorted(set(adj.get(nb, []))))))
                    found = True
                    break
            if not found:
                color[node] = 1
                stack.pop()

    # depth_exceeded (ref 340-374): BFS from tops, warn > 7
    child_of: dict[str, list[str]] = defaultdict(list)
    for c, p in broader:
        child_of[p].append(c)
    for p, c in narrower:
        child_of[p].append(c)
    for root in sorted(tops):
        depth, frontier, seen = 1, [root], {root}
        while frontier and depth <= 40:
            nxt = [c for f in frontier for c in child_of.get(f, [])
                   if c not in seen]
            if not nxt:
                break
            seen.update(nxt)
            depth += 1
            frontier = nxt
        if depth > 7:
            rows.append(("warning", "depth_exceeded", root,
                         f"hierarchy depth {depth} exceeds 7"))

    graph_issues = rd.from_arrow(_issues_table(rows))

    return (node_issues
            .union(pair_issues)
            .union(multi_issues)
            .union(dup_issues)
            .union(poly_issues)
            .union(graph_issues))


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
