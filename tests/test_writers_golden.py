"""Byte-exact text of every SKOS/RDF writer on one edge-case fixture.

The fixture hits what the writers escape or branch on: ``"``, ``,``,
``&<>'``, a backslash, a tab, ``\\r``/``\\n`` and non-ASCII text in
titles, definitions and literals; empty fields; language-tagged and
empty-tagged literals; tree levels 0-8 (the Markdown ▸/▹/◦ prefixes and
the >H6 / >h6 fallbacks); multi-valued ``same_as`` / ``related`` lists;
both synthetic containers. The expected texts live in
``golden/writers.json``; a CSV field holding ``\\r`` or ``\\n`` is
quoted there, so ``csv.reader`` reads every row back whole.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re

import pyarrow as pa
import pytest

from skosconverter_ray import schemas
from skosconverter_ray.config import (
    OWL,
    OWL_SAME_AS,
    RDF_TYPE,
    RDFS_LABEL,
    SKOS_ALT_LABEL,
    SKOS_BROADER,
    SKOS_CONCEPT,
    SKOS_CONCEPT_SCHEME,
    SKOS_DEFINITION,
    SKOS_HAS_TOP_CONCEPT,
    SKOS_IN_SCHEME,
    SKOS_NOTATION,
    SKOS_PREF_LABEL,
    SKOS_RELATED,
    SKOS_SCOPE_NOTE,
    SKOS_TOP_CONCEPT_OF,
)

EX = "http://ex.org/"
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "writers.json")

# one chain per level 1-8 below the scheme (tree levels 0-8)
CHAIN = [
    ("c1", 'Quote "q", comma', "tab\there", "N,1"),
    ("c2", "Back\\slash", 'two\nlines with "quotes"', ""),
    ("c3", "Ünïcödé 日本 Ωmega", "carriage\r\nreturn", "ü-7"),
    ("c4", "Amp & <tag> 'apos'", "a & b < c > d 'e'", "<n>"),
    ("c5", "Level five", "", "5"),
    ("c6", "Level six", "sixth, level", ""),
    ("c7", "Level seven", "déf sept", "7"),
    ("c8", "Level eight 🐘", "", ""),
]


def edge_fixture() -> pa.Table:
    rows = []

    def add(s, p, o, lit=False, lang=None):
        rows.append((s, p, o, lit, lang, None))

    scheme = EX + "scheme"
    add(scheme, RDF_TYPE, SKOS_CONCEPT_SCHEME)
    add(scheme, SKOS_PREF_LABEL, "Edge & <Cases> 'Ω'", True, "en")
    add(scheme, SKOS_PREF_LABEL, "Kanten", True, "de")
    parent = None
    for frag, title, definition, notation in CHAIN:
        uri = EX + frag
        add(uri, RDF_TYPE, SKOS_CONCEPT)
        add(uri, SKOS_PREF_LABEL, title, True, "en")
        if definition:
            add(uri, SKOS_DEFINITION, definition, True, "en")
        if notation:
            add(uri, SKOS_NOTATION, notation, True)
        if parent is None:
            add(uri, SKOS_TOP_CONCEPT_OF, scheme)
        else:
            add(uri, SKOS_BROADER, parent)
        parent = uri
    # alt labels: several, one language-tagged, one with an empty tag
    add(EX + "c1", SKOS_ALT_LABEL, "alt, one", True, "en")
    add(EX + "c1", SKOS_ALT_LABEL, "ålt två", True, "sv")
    add(EX + "c1", SKOS_ALT_LABEL, "plain", True, "")
    add(EX + "c3", SKOS_ALT_LABEL, 'say "hi"\tthere', True, "en")
    # same_as / related lists, a second rdf:type and a labelled object
    for o in (EX + "wd/Q1", EX + "wd/Q2", "https://other.org/x#frag"):
        add(EX + "c2", OWL_SAME_AS, o)
    add(EX + "c2", SKOS_RELATED, EX + "c5")
    add(EX + "c2", SKOS_RELATED, EX + "side")
    add(EX + "c2", RDF_TYPE, OWL + "Thing")
    # a sibling of c2 with no metadata but an empty-string prefLabel
    add(EX + "side", RDF_TYPE, SKOS_CONCEPT)
    add(EX + "side", SKOS_PREF_LABEL, "", True, "en")
    add(EX + "side", SKOS_PREF_LABEL, "Seite", True, "de")
    add(EX + "side", SKOS_BROADER, EX + "c1")
    # label fallbacks: rdfs:label only; scopeNote stands in for a definition
    add(EX + "rdfs-only", RDF_TYPE, SKOS_CONCEPT)
    add(EX + "rdfs-only", RDFS_LABEL, "From rdfs:label", True)
    add(EX + "rdfs-only", SKOS_IN_SCHEME, scheme)
    add(EX + "rdfs-only", SKOS_SCOPE_NOTE, "scope,\nnote", True, "en")
    # one-sided hasTopConcept, a local name the Turtle writer cannot compact
    add(scheme, SKOS_HAS_TOP_CONCEPT, EX + "top/two")
    add(EX + "top/two", RDF_TYPE, SKOS_CONCEPT)
    add(EX + "top/two", SKOS_PREF_LABEL, "Top two", True, "en")
    add(EX + "top/two", SKOS_RELATED, EX + "c3")
    # a concept in no scheme (the unassigned container)
    add(EX + "orphan", RDF_TYPE, SKOS_CONCEPT)
    add(EX + "orphan", SKOS_PREF_LABEL, "Orphan, \"quoted\"", True, "en")
    add(EX + "orphan", SKOS_DEFINITION, "", True, "en")
    return pa.table({
        name: pa.array([r[i] for r in rows], field.type)
        for i, (name, field) in enumerate(zip(schemas.TRIPLES.names,
                                              schemas.TRIPLES))
    }, schema=schemas.TRIPLES)


def render_all(triples_ds) -> dict[str, str]:
    """Every writer's text on ``triples_ds``, keyed by format."""
    from skosconverter_ray.pipelines.skos2notion import tree_rows_pipeline
    from skosconverter_ray.render import sinks
    from skosconverter_ray.sources.jsonld import to_jsonld_text
    from skosconverter_ray.sources.ntriples import to_ntriples_text
    from skosconverter_ray.sources.turtle import to_turtle_text

    tree = tree_rows_pipeline(triples_ds).materialize()
    return {
        "csv": sinks.to_csv_text(tree),
        "markdown": sinks.to_markdown_text(tree),
        "xml": sinks.to_xml_text(tree),
        "json": sinks.to_json_text(tree),
        "ntriples": to_ntriples_text(triples_ds),
        "turtle": to_turtle_text(triples_ds, extra_prefixes={"ex": EX}),
        "jsonld": to_jsonld_text(triples_ds),
    }


@pytest.fixture(scope="module")
def rendered():
    import ray.data as rd

    return render_all(rd.from_arrow(edge_fixture()))


@pytest.mark.parametrize("fmt", ["csv", "markdown", "xml", "json",
                                 "ntriples", "turtle", "jsonld"])
def test_writer_text_is_pinned(rendered, fmt):
    with open(GOLDEN, encoding="utf-8") as f:
        expected = json.load(f)[fmt]
    assert rendered[fmt] == expected


def test_csv_reads_back_eight_fields_per_row(rendered):
    """Fields holding ``\\r``/``\\n`` are quoted: ``csv.reader`` gets the
    header plus one 8-field record per tree row."""
    records = list(csv.reader(io.StringIO(rendered["csv"], newline="")))
    assert {len(r) for r in records} == {8}
    assert len(records) == 1 + len(json.loads(rendered["json"])
                                   ["vocabulary"]["concepts"]) + 3
    assert "carriage\r\nreturn" in [r[3] for r in records]


@pytest.mark.parametrize("writer", ["ntriples", "turtle"])
@pytest.mark.parametrize("bad", [("subj", EX + "a b"), ("obj", EX + "c1\n"),
                                 ("pred", EX + "p<q>"),
                                 ("obj", EX + "back\\slash")])
def test_rdf_writer_rejects_illegal_iri(ray_session, writer, bad):
    """An IRI holding a character an N-Triples IRI may not (space,
    newline, ``<>``, backslash, ...) raises ``ValueError`` naming it,
    instead of an invalid document or one that reads back as another
    IRI; the same text in a literal is written escaped."""
    import ray.data as rd

    from skosconverter_ray.sources.ntriples import to_ntriples_text
    from skosconverter_ray.sources.turtle import to_turtle_text

    write = {"ntriples": to_ntriples_text,
             "turtle": lambda ds: to_turtle_text(
                 ds, extra_prefixes={"ex": EX})}[writer]
    good = edge_fixture()
    col, iri = bad
    i = good.schema.get_field_index(col)
    vals = good[col].to_pylist()
    lit = good["obj_is_literal"].to_pylist()
    row = next(r for r in range(good.num_rows) if r > 3 and not lit[r])
    vals[row] = iri
    t = good.set_column(i, col, pa.array(vals, pa.string()))
    with pytest.raises(ValueError, match=re.escape(repr(iri))):
        write(rd.from_arrow(t))
    # as a literal value the same text is fine
    lit_row = lit.index(True)
    objs = good["obj"].to_pylist()
    objs[lit_row] = iri
    write(rd.from_arrow(good.set_column(
        good.schema.get_field_index("obj"), "obj", pa.array(objs))))
