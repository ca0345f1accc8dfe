"""Distributed DFS-preorder parity: build_tree_rows_distributed must
reproduce the driver-DFS ordering of build_tree_rows row for row
(titles, parents, schemes, levels, uris — sort_key encodings differ by
design: %010d sequence vs lexicographic path).

Fixtures are adversarial: multi-scheme, a top that is also a child of
another scheme's subtree (first-visit-wins), a cycle reachable from a
root, a detached cycle (must land in [UNASSIGNED CONCEPTS]), orphans,
and a chain deeper than max_hierarchy_depth (truncation parity).
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from skosconverter_ray import schemas
from skosconverter_ray.config import (
    EngineConfig,
    SKOS_BROADER,
    SKOS_CONCEPT,
    SKOS_CONCEPT_SCHEME,
    SKOS_IN_SCHEME,
    SKOS_TOP_CONCEPT_OF,
    SKOS_NARROWER,
    SKOS_PREF_LABEL,
)
from skosconverter_ray.stages.hierarchy import (
    build_tree_rows,
    build_tree_rows_distributed,
)

NS = "http://example.org/t/"


def _triples_table(rows):
    cols = {"subj": [], "pred": [], "obj": [], "obj_is_literal": [],
            "lang": [], "source_doc": []}
    for s, p, o, lit in rows:
        cols["subj"].append(NS + s if not s.startswith("http") else s)
        cols["pred"].append(p)
        cols["obj"].append(
            o if lit or o.startswith("http") else NS + o)
        cols["obj_is_literal"].append(lit)
        cols["lang"].append("en" if lit else None)
        cols["source_doc"].append("fixture")
    return pa.table(
        {
            "subj": pa.array(cols["subj"], pa.string()),
            "pred": pa.array(cols["pred"], pa.string()),
            "obj": pa.array(cols["obj"], pa.string()),
            "obj_is_literal": pa.array(cols["obj_is_literal"], pa.bool_()),
            "lang": pa.array(cols["lang"], pa.string()),
            "source_doc": pa.array(cols["source_doc"], pa.string()),
        },
        schema=schemas.TRIPLES,
    )


def scheme(name, label):
    return [(name, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
             SKOS_CONCEPT_SCHEME, False),
            (name, SKOS_PREF_LABEL, label, True)]


def concept(name, label, sch=None, top=False, broader=None):
    rows = [(name, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
             SKOS_CONCEPT, False),
            (name, SKOS_PREF_LABEL, label, True)]
    if sch:
        rows.append((name, SKOS_IN_SCHEME, sch, False))
    if top and sch:
        rows.append((name, SKOS_TOP_CONCEPT_OF, sch, False))
    if broader:
        rows.append((name, SKOS_BROADER, broader, False))
    return rows


def _rows(ds):
    return [(r["title"], r["parent"], r["scheme"], r["level"], r["uri"])
            for r in ds.take_all()]


def _assert_parity(table, cfg=None):
    import ray.data as rd

    a = _rows(build_tree_rows(rd.from_arrow(table), cfg))
    b = _rows(build_tree_rows_distributed(rd.from_arrow(table), cfg))
    assert a == b, (
        "order mismatch:\ndriver:\n " +
        "\n ".join(map(str, a)) + "\ndistributed:\n " +
        "\n ".join(map(str, b)))
    return a


def test_parity_basic_two_schemes(ray_session):
    rows = (scheme("s1", "Animals") + scheme("s2", "Plants")
            + concept("dog", "Dog", "s1", top=True)
            + concept("puppy", "Puppy", "s1", broader="dog")
            + concept("cat", "Cat", "s1", top=True)
            + concept("oak", "Oak", "s2", top=True)
            # narrower edge direction too
            + [("oak", SKOS_NARROWER, "acorn", False)]
            + concept("acorn", "Acorn", "s2"))
    order = _assert_parity(_triples_table(rows))
    titles = [t for t, *_ in order]
    assert titles == ["[SCHEME] Animals", "Cat", "Dog", "Puppy",
                      "[SCHEME] Plants", "Oak", "Acorn"]


def test_parity_orphans_and_unassigned(ray_session):
    rows = (scheme("s1", "Animals")
            + concept("dog", "Dog", "s1", top=True)
            + concept("loner", "Loner", "s1")          # orphan
            + concept("zed", "Zed", "s1")              # orphan
            + concept("ghost", "Ghost"))               # no scheme
    order = _assert_parity(_triples_table(rows))
    titles = [t for t, *_ in order]
    assert titles == ["[SCHEME] Animals", "Dog",
                      "[Other Concepts in Animals]", "Loner", "Zed",
                      "[UNASSIGNED CONCEPTS]", "Ghost"]


def test_parity_cross_scheme_first_visit_wins(ray_session):
    # 'shared' is a top of s2 but ALSO a child of s1's top; the driver
    # DFS reaches it first through scheme s1 (Animals < Plants), so it
    # renders inside s1's subtree and NOT under s2
    rows = (scheme("s1", "Animals") + scheme("s2", "Plants")
            + concept("ape", "Ape", "s1", top=True)
            + concept("shared", "Shared", "s2", top=True, broader="ape"))
    order = _assert_parity(_triples_table(rows))
    titles = [t for t, *_ in order]
    assert titles == ["[SCHEME] Animals", "Ape", "Shared",
                      "[SCHEME] Plants"]


def test_parity_cycle_reachable_and_detached(ray_session):
    rows = (scheme("s1", "S")
            + concept("a", "A", "s1", top=True)
            + concept("b", "B", "s1", broader="a")
            # cycle edge back to a (reachable cycle: placed once)
            + [("a", SKOS_BROADER, "b", False)]
            # detached 2-cycle: never reached -> unassigned, flat
            + concept("x", "X", "s1", broader="y")
            + concept("y", "Y", "s1", broader="x"))
    order = _assert_parity(_triples_table(rows))
    titles = [t for t, *_ in order]
    assert titles == ["[SCHEME] S", "A", "B",
                      "[UNASSIGNED CONCEPTS]", "X", "Y"]


def test_parity_depth_truncation(ray_session):
    cfg = EngineConfig(max_hierarchy_depth=4)
    rows = scheme("s1", "S") + concept("c0", "C0", "s1", top=True)
    for i in range(1, 8):
        rows += concept(f"c{i}", f"C{i}", "s1", broader=f"c{i-1}")
    order = _assert_parity(_triples_table(rows), cfg)
    titles = [t for t, *_ in order]
    # depth 1..4 placed in-tree; deeper fall to unassigned
    assert titles == ["[SCHEME] S", "C0", "C1", "C2", "C3",
                      "[UNASSIGNED CONCEPTS]", "C4", "C5", "C6", "C7"]


def test_parity_sibling_label_ties_break_on_uri(ray_session):
    rows = (scheme("s1", "S")
            + concept("r", "Root", "s1", top=True)
            + concept("k2", "Same", "s1", broader="r")
            + concept("k1", "Same", "s1", broader="r"))
    order = _assert_parity(_triples_table(rows))
    uris = [u for *_, u in order]
    assert uris.index(NS + "k1") < uris.index(NS + "k2")


def test_parity_pinned_generator_vocabulary(ray_session):
    """The skos_tree_rows / skos_tree_order_distributed vocabulary (the
    seed-42 generator's 3 schemes x 120 concepts, inverse-closed): the
    distributed orderer reproduces the driver DFS row for row."""
    import ray.data as rd

    from skosconverter_ray.queries import _tree_vocab_triples
    from skosconverter_ray.stages.triples import (dedup_triples,
                                                  inverse_consistency)

    closed = inverse_consistency(
        dedup_triples(rd.from_arrow(_tree_vocab_triples()))).materialize()
    a = _rows(build_tree_rows(closed))
    assert len(a) == 123
    assert _rows(build_tree_rows_distributed(closed)) == a
