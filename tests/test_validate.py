"""Validator suite against the pathology-laden generated vocabulary
(FIXTURES.md §2: one instance of each defect)."""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, seed, settings

from skosconverter_ray import vocab
from skosconverter_ray.stages.validate import gate, validate
from tests.test_property import _triples_table, edge_sets

NS = "http://example.org/vocab/"


@pytest.fixture(scope="module")
def issues():
    import ray.data as rd

    voc = vocab.generate_vocab(
        vocab.VocabSpec(n_schemes=2, n_concepts=30, seed=7, pathologies=True))
    ds = validate(rd.from_arrow(voc.triples))
    df = ds.to_pandas()
    return df


def _subjects(df, check):
    return set(df.loc[df["check"] == check, "subject"])


def test_onesided_topconcepts(issues):
    subs = _subjects(issues, "topconcept_onesided")
    assert NS + "path/onesided_htc" in subs
    assert NS + "path/onesided_tco" in subs


def test_multiple_pref_labels(issues):
    assert NS + "path/dup_pref" in _subjects(issues, "multiple_pref_labels")


def test_duplicate_label(issues):
    # min(subj) of the two sharers is reported
    assert NS + "path/shared_label_1" in _subjects(issues, "duplicate_label")


def test_polyhierarchy(issues):
    assert NS + "path/poly_child" in _subjects(issues, "polyhierarchy")


def test_cycles(issues):
    subs = _subjects(issues, "cycle")
    assert NS + "path/self_broader" in subs
    assert subs & {NS + f"path/cycle_{i}" for i in range(3)}


def test_orphans(issues):
    assert NS + "path/orphan_in_scheme" in _subjects(issues, "orphan_in_scheme")
    assert NS + "path/orphan_no_scheme" in _subjects(issues, "orphan_no_scheme")


def test_missing_label(issues):
    assert NS + "path/no_label" in _subjects(issues, "missing_label")


def test_depth_exceeded(issues):
    assert NS + "path/deep_0" in _subjects(issues, "depth_exceeded")


def test_gate(issues):
    import ray.data as rd

    voc = vocab.generate_vocab(
        vocab.VocabSpec(n_schemes=1, n_concepts=10, seed=3))
    clean = validate(rd.from_arrow(voc.triples))
    assert gate(clean)
    dirty = vocab.generate_vocab(
        vocab.VocabSpec(n_schemes=1, n_concepts=10, seed=3, pathologies=True))
    bad = validate(rd.from_arrow(dirty.triples))
    assert not gate(bad)
    assert gate(bad, force=True)


def test_golden_rows_pathology_fixture(issues):
    """Pin the exact issue-row set on the pathology fixture: the
    distributed set logic must reproduce the sequential semantics
    row for row (severity, check, subject, detail)."""
    P = NS + "path/"
    S0 = NS + "scheme/0"
    golden = {
        ("error", "cycle", P + "cycle_0", "broader cycle detected"),
        ("error", "cycle", P + "self_broader", "broader cycle detected"),
        ("error", "missing_label", P + "no_label", "concept has no prefLabel"),
        ("error", "multiple_pref_labels", P + "dup_pref",
         "2 prefLabels for lang 'en'"),
        ("warning", "depth_exceeded", P + "deep_0",
         "hierarchy depth 9 exceeds 7"),
        ("warning", "duplicate_label", P + "shared_label_1",
         "label 'Shared Label' used by 2 subjects"),
        ("warning", "orphan_in_scheme", P + "dup_pref",
         f"in scheme {S0} without broader"),
        ("warning", "orphan_in_scheme", P + "orphan_in_scheme",
         f"in scheme {S0} without broader"),
        ("warning", "orphan_in_scheme", P + "shared_label_1",
         f"in scheme {S0} without broader"),
        ("warning", "orphan_in_scheme", P + "shared_label_2",
         f"in scheme {S0} without broader"),
        ("warning", "orphan_no_scheme", P + "no_label",
         "concept not associated with any scheme"),
        ("warning", "orphan_no_scheme", P + "orphan_no_scheme",
         "concept not associated with any scheme"),
        ("warning", "polyhierarchy", P + "poly_child", "2 broader concepts"),
        ("warning", "topconcept_onesided", P + "onesided_htc",
         f"hasTopConcept from {S0} without topConceptOf"),
        ("warning", "topconcept_onesided", P + "onesided_tco",
         f"topConceptOf {S0} without hasTopConcept"),
    }
    got = set(map(tuple,
                  issues[["severity", "check", "subject", "detail"]].values))
    assert got == golden


def test_missing_label_accepts_rdfs_label(ray_session):
    """ref 145-148: rdfs:label satisfies the label requirement — a
    concept labeled only via rdfs:label must NOT be flagged."""
    import pyarrow as pa
    import ray.data as rd

    from skosconverter_ray import schemas
    from skosconverter_ray.config import RDF_TYPE, RDFS_LABEL, SKOS_CONCEPT

    A, B = NS + "rdfs_labeled", NS + "unlabeled"
    rows = [
        (A, RDF_TYPE, SKOS_CONCEPT, False, None),
        (A, RDFS_LABEL, "via rdfs", True, "en"),
        (B, RDF_TYPE, SKOS_CONCEPT, False, None),
    ]
    t = pa.table(
        {
            "subj": pa.array([r[0] for r in rows], pa.string()),
            "pred": pa.array([r[1] for r in rows], pa.string()),
            "obj": pa.array([r[2] for r in rows], pa.string()),
            "obj_is_literal": pa.array([r[3] for r in rows], pa.bool_()),
            "lang": pa.array([r[4] for r in rows], pa.string()),
            "source_doc": pa.array([None] * len(rows), pa.string()),
        },
        schema=schemas.TRIPLES,
    )
    df = validate(rd.from_arrow(t)).to_pandas()
    flagged = set(df.loc[df["check"] == "missing_label", "subject"])
    assert flagged == {B}


SET_SEMANTICS_TTL = """\
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix ex: <http://example.org/vocab/> .
ex:s a skos:ConceptScheme ; skos:prefLabel "S"@en ; skos:hasTopConcept ex:a .
ex:a a skos:Concept ; skos:prefLabel "A"@en ; skos:topConceptOf ex:s ;
    skos:inScheme ex:s .
ex:b a skos:Concept ; skos:prefLabel "B"@en ; skos:broader ex:a ;
    skos:inScheme ex:s .
ex:b skos:prefLabel "B"@en ; skos:broader ex:a .
"""


def test_triple_asserted_twice_is_one_triple(tmp_path, ray_session):
    """RDF set semantics: a Turtle file asserting the same prefLabel and
    broader twice holds one of each (as rdflib parses it), so it raises
    no multiple_pref_labels error, duplicate_label or polyhierarchy."""
    from skosconverter_ray.sources.turtle import read_turtle

    ttl = tmp_path / "twice.ttl"
    ttl.write_text(SET_SEMANTICS_TTL)
    triples = read_turtle([str(ttl)]).materialize()
    assert triples.count() == 13  # the reader keeps both copies
    issues = validate(triples)
    assert issues.take_all() == []
    assert gate(issues)


@pytest.mark.parametrize("above_gate", [False, True])
def test_duplicate_label_counts_subjects(ray_session, monkeypatch,
                                         above_gate):
    """One concept holding a prefLabel in two languages uses it once:
    ``duplicate_label`` counts the distinct subjects of a label, on
    both sides of the SKOS size gate."""
    import ray.data as rd

    from skosconverter_ray import schemas
    from skosconverter_ray.config import SKOS_PREF_LABEL
    from skosconverter_ray.stages import concepts

    if above_gate:
        monkeypatch.setattr(concepts, "DRIVER_MAX_TRIPLES", 0)
    A, B, C = NS + "a", NS + "b", NS + "c"
    rows = [(A, "Paris", "en"), (A, "Paris", "fr"), (B, "Lyon", "en"),
            (B, "Lyon", "fr"), (C, "Lyon", "en")]
    t = pa.Table.from_pylist(
        [{"subj": s, "pred": SKOS_PREF_LABEL, "obj": o,
          "obj_is_literal": True, "lang": lang, "source_doc": None}
         for s, o, lang in rows], schema=schemas.TRIPLES)
    df = validate(rd.from_arrow(t)).to_pandas()
    dup = df[df["check"] == "duplicate_label"]
    assert list(zip(dup["subject"], dup["detail"])) == [
        (B, "label 'Lyon' used by 2 subjects")]


def test_gate_flip_pathology_fixture(issues, monkeypatch):
    """Above the SKOS size gate (forced: DRIVER_MAX_TRIPLES = 0) the
    per-bucket checks plus the collected-skeleton walks give exactly
    the in-process row set that test_golden_rows_pathology_fixture
    pins."""
    import ray.data as rd

    from skosconverter_ray.stages import concepts

    monkeypatch.setattr(concepts, "DRIVER_MAX_TRIPLES", 0)
    voc = vocab.generate_vocab(
        vocab.VocabSpec(n_schemes=2, n_concepts=30, seed=7, pathologies=True))
    got = validate(rd.from_arrow(voc.triples)).to_pandas()
    cols = ["severity", "check", "subject", "detail"]
    assert sorted(map(tuple, got[cols].values)) == \
        sorted(map(tuple, issues[cols].values))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@seed(8)
@given(edge_sets())
def test_gate_flip_closure(ray_session, rows):
    """The dedup + inverse closure gives the same rows, witness
    ``source_doc`` included, in-process and per bucket, on the
    test_property edge sets with every edge asserted twice by two
    documents."""
    from unittest import mock

    import ray.data as rd

    from skosconverter_ray.stages import concepts
    from skosconverter_ray.stages.triples import inverse_consistency

    if not rows:
        return
    t = _triples_table(rows + rows[::-1])
    t = t.set_column(5, "source_doc", pa.array(
        [f"d{i % 3}" for i in range(t.num_rows)], pa.string()))

    def closed():
        return sorted(tuple(r.values()) for r in
                      inverse_consistency(rd.from_arrow(t)).take_all())

    driver = closed()
    with mock.patch.object(concepts, "DRIVER_MAX_TRIPLES", 0):
        assert closed() == driver
    assert len(driver) == len({r[:3] for r in driver})


def test_cycle_row_once_per_node():
    """A node closing two broader cycles (a→b→a and a→c→a) is one
    ``cycle`` error, not one per cycle, in first-seen order."""
    from skosconverter_ray.config import SKOS_BROADER
    from skosconverter_ray.stages.validate import walk_issues

    a, b, c, d = (NS + n for n in "abcd")
    t = _triples_table([(a, SKOS_BROADER, b), (a, SKOS_BROADER, c),
                        (b, SKOS_BROADER, a), (c, SKOS_BROADER, a),
                        (d, SKOS_BROADER, d)])
    got = walk_issues(t)
    assert got.filter(pa.compute.equal(got["check"], "cycle")) \
        ["subject"].to_pylist() == [a, d]
