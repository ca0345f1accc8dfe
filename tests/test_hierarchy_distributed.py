"""Tree order against an independent reference: both placements of
build_tree_rows (``engine="driver"``: every kernel in-process;
``engine="actors"``: per-bucket kernels plus min-path propagation on
shard actors) must reproduce, row for row (titles, parents, schemes,
levels, uris), a plain-Python transcription of the reference's
recursive DFS (skos_converter.py:764-888) over a skeleton built here
from the fixture triples. The two placements share kernels, so
comparing them only with each other would miss a kernel bug.

Fixtures are adversarial: multi-scheme, a top that is also a child of
another scheme's subtree (first-visit-wins), a cycle reachable from a
root, a detached cycle (must land in [UNASSIGNED CONCEPTS]), orphans,
a chain deeper than max_hierarchy_depth (truncation), a top that
another scheme's chain reaches at the depth cap, and seeded random
vocabularies.
"""

from __future__ import annotations

import pyarrow as pa

from skosconverter_ray import schemas
from skosconverter_ray.config import (
    EngineConfig,
    RDF_TYPE,
    RDFS_LABEL,
    SKOS_ALT_LABEL,
    SKOS_BROADER,
    SKOS_CONCEPT,
    SKOS_CONCEPT_SCHEME,
    SKOS_IN_SCHEME,
    SKOS_TOP_CONCEPT_OF,
    SKOS_NARROWER,
    SKOS_PREF_LABEL,
)
from skosconverter_ray.stages import concepts, hierarchy
from skosconverter_ray.stages.hierarchy import build_tree_rows

NS = "http://example.org/t/"
ENGINES = ("driver", "actors")


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


def _skeleton(table, cfg):
    """uri -> {label, scheme, is_top, is_concept, is_scheme, parent},
    one plain-Python pass over the triples: the label chain
    prefLabel (preferred > fallbacks > untagged > other) > altLabel >
    rdfs:label > URI tail, topConceptOf before inScheme, display
    parent = min over broader and inverted narrower."""
    facts = {}
    for s, p, o, lang in zip(*(table[c].to_pylist()
                               for c in ("subj", "pred", "obj", "lang"))):
        facts.setdefault(s, []).append((p, o, lang))
    parents = {}
    for s, rows in facts.items():
        for p, o, _ in rows:
            if p == SKOS_BROADER:
                parents.setdefault(s, []).append(o)
            elif p == SKOS_NARROWER:
                parents.setdefault(o, []).append(s)

    def rank(lang):
        if lang == cfg.preferred_language:
            return 0
        if lang in cfg.fallback_languages:
            return 1 + cfg.fallback_languages.index(lang)
        return 98 if not lang else 99

    skel = {}
    for s, rows in facts.items():
        vals = {}
        for p, o, lang in rows:
            vals.setdefault(p, []).append((rank(lang), o)
                                          if p == SKOS_PREF_LABEL else o)
        if SKOS_PREF_LABEL in vals:
            label = min(vals[SKOS_PREF_LABEL])[1]
        elif SKOS_ALT_LABEL in vals or RDFS_LABEL in vals:
            label = min(vals.get(SKOS_ALT_LABEL) or vals[RDFS_LABEL])
        else:
            label = s.rsplit("/", 1)[-1].rsplit("#", 1)[-1]
        sch = vals.get(SKOS_TOP_CONCEPT_OF) or vals.get(SKOS_IN_SCHEME)
        types = vals.get(RDF_TYPE, [])
        skel[s] = {"label": label, "scheme": min(sch) if sch else "",
                   "is_top": SKOS_TOP_CONCEPT_OF in vals,
                   "is_concept": SKOS_CONCEPT in types,
                   "is_scheme": SKOS_CONCEPT_SCHEME in types,
                   "parent": min(parents[s]) if s in parents else None}
    return skel


def _reference_order(skel, max_depth):
    """The reference DFS (skos_converter.py:764-888) -> ordered
    (title, parent, scheme, level, uri) rows: schemes by (label, uri),
    tops then the orphan container per scheme, siblings by
    (label, uri), first visit wins, recursion bounded by
    ``max_depth``, never-visited concepts flat under
    [UNASSIGNED CONCEPTS]."""
    children = {}
    for uri, rec in skel.items():
        if rec["is_concept"] and rec["parent"]:
            children.setdefault(rec["parent"], []).append(uri)

    def by_label(uris):
        return sorted(uris, key=lambda u: (skel[u]["label"] or "", u))

    visited, out = set(), []

    def place(uri, level, parent_title, scheme_label):
        visited.add(uri)
        out.append((skel[uri]["label"], parent_title, scheme_label, level,
                    uri))

    def dfs(uri, level, parent_title, scheme_label, depth):
        if uri in visited or depth > max_depth:
            return
        place(uri, level, parent_title, scheme_label)
        for ch in by_label(children.get(uri, [])):
            if ch not in visited:
                dfs(ch, level + 1, skel[uri]["label"], scheme_label,
                    depth + 1)

    for s_uri in by_label([u for u, r in skel.items() if r["is_scheme"]]):
        s_label = skel[s_uri]["label"]
        s_title = f"[SCHEME] {s_label}"
        out.append((s_title, "", s_label, 0, s_uri))
        for t in by_label([u for u, r in skel.items()
                           if r["is_concept"] and r["is_top"]
                           and r["scheme"] == s_uri and u not in visited]):
            dfs(t, 1, s_title, s_label, 1)
        orphans = by_label([u for u, r in skel.items()
                            if r["is_concept"] and r["scheme"] == s_uri
                            and u not in visited and not r["parent"]])
        if orphans:
            c_title = f"[Other Concepts in {s_label}]"
            out.append((c_title, s_title, s_label, 1, ""))
            for o in orphans:
                dfs(o, 2, c_title, s_label, 1)
    unassigned = by_label([u for u, r in skel.items()
                           if r["is_concept"] and u not in visited])
    if unassigned:
        out.append((hierarchy.UNASSIGNED_TITLE, "", "", 0, ""))
        for u in unassigned:
            place(u, 1, hierarchy.UNASSIGNED_TITLE, "")
    return out


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


def _assert_matches_reference(table, cfg=None):
    """Both engines vs the reference DFS, row for row."""
    import ray.data as rd

    cfg = cfg or EngineConfig()
    want = _reference_order(_skeleton(table, cfg), cfg.max_hierarchy_depth)
    for engine in ENGINES:
        got = _rows(build_tree_rows(rd.from_arrow(table), cfg,
                                    engine=engine))
        assert got == want, (
            f"engine={engine} differs from the reference DFS:\nwant:\n " +
            "\n ".join(map(str, want)) + "\ngot:\n " +
            "\n ".join(map(str, got)))
    return want


def test_parity_basic_two_schemes(ray_session):
    rows = (scheme("s1", "Animals") + scheme("s2", "Plants")
            + concept("dog", "Dog", "s1", top=True)
            + concept("puppy", "Puppy", "s1", broader="dog")
            + concept("cat", "Cat", "s1", top=True)
            + concept("oak", "Oak", "s2", top=True)
            # narrower edge direction too
            + [("oak", SKOS_NARROWER, "acorn", False)]
            + concept("acorn", "Acorn", "s2"))
    order = _assert_matches_reference(_triples_table(rows))
    titles = [t for t, *_ in order]
    assert titles == ["[SCHEME] Animals", "Cat", "Dog", "Puppy",
                      "[SCHEME] Plants", "Oak", "Acorn"]


def test_parity_orphans_and_unassigned(ray_session):
    rows = (scheme("s1", "Animals")
            + concept("dog", "Dog", "s1", top=True)
            + concept("loner", "Loner", "s1")          # orphan
            + concept("zed", "Zed", "s1")              # orphan
            + concept("ghost", "Ghost"))               # no scheme
    order = _assert_matches_reference(_triples_table(rows))
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
    order = _assert_matches_reference(_triples_table(rows))
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
    order = _assert_matches_reference(_triples_table(rows))
    titles = [t for t, *_ in order]
    assert titles == ["[SCHEME] S", "A", "B",
                      "[UNASSIGNED CONCEPTS]", "X", "Y"]


def test_parity_depth_truncation(ray_session):
    cfg = EngineConfig(max_hierarchy_depth=4)
    rows = scheme("s1", "S") + concept("c0", "C0", "s1", top=True)
    for i in range(1, 8):
        rows += concept(f"c{i}", f"C{i}", "s1", broader=f"c{i-1}")
    order = _assert_matches_reference(_triples_table(rows), cfg)
    titles = [t for t, *_ in order]
    # depth 1..4 placed in-tree; deeper fall to unassigned
    assert titles == ["[SCHEME] S", "C0", "C1", "C2", "C3",
                      "[UNASSIGNED CONCEPTS]", "C4", "C5", "C6", "C7"]


def test_parity_cross_scheme_top_at_depth_cap(ray_session):
    # r2 is a top of B but also the end of A's chain r1 -> c2 -> c3 ->
    # r2, which reaches it first, at the depth cap. Its children are
    # then cut off from r2: x is a top of C, so it renders as C's root
    # with its child y under it; w is no root and goes unassigned.
    # Neither may keep the placement it first got through r2 as B's
    # root.
    cfg = EngineConfig(max_hierarchy_depth=4)
    rows = (scheme("sa", "A") + scheme("sb", "B") + scheme("sc", "C")
            + concept("r1", "R1", "sa", top=True)
            + concept("c2", "C2", "sa", broader="r1")
            + concept("c3", "C3", "sa", broader="c2")
            + concept("r2", "R2", "sb", top=True, broader="c3")
            + concept("x", "X", "sc", top=True, broader="r2")
            + concept("y", "Y", "sc", broader="x")
            + concept("w", "W", "sb", broader="r2"))
    order = _assert_matches_reference(_triples_table(rows), cfg)
    assert [(t, lvl) for t, _, _, lvl, _ in order] == [
        ("[SCHEME] A", 0), ("R1", 1), ("C2", 2), ("C3", 3), ("R2", 4),
        ("[SCHEME] B", 0), ("[SCHEME] C", 0), ("X", 1), ("Y", 2),
        ("[UNASSIGNED CONCEPTS]", 0), ("W", 1)]


def test_parity_sibling_label_ties_break_on_uri(ray_session):
    rows = (scheme("s1", "S")
            + concept("r", "Root", "s1", top=True)
            + concept("k2", "Same", "s1", broader="r")
            + concept("k1", "Same", "s1", broader="r"))
    order = _assert_matches_reference(_triples_table(rows))
    uris = [u for *_, u in order]
    assert uris.index(NS + "k1") < uris.index(NS + "k2")


def _random_vocabulary(seed):
    """Up to 3 schemes with colliding labels, 4-40 concepts with random
    labels, schemes, tops and 0-2 broader edges each (so cycles,
    cross-scheme tops and chains past the cap all occur), and a depth
    cap of 2-4."""
    import random

    r = random.Random(seed)
    ns, nc = r.randint(1, 3), r.randint(4, 40)
    rows = []
    for i in range(ns):
        rows += scheme(f"s{i}", r.choice("ABC"))
    for i in range(nc):
        sch = f"s{r.randrange(ns)}" if r.random() < 0.85 else None
        rows += concept(f"c{i}", r.choice("PQRS"), sch, top=r.random() < 0.3)
        for _ in range(r.choice([0, 1, 1, 1, 1, 2])):
            rows.append((f"c{i}", SKOS_BROADER, f"c{r.randrange(nc)}", False))
    return (_triples_table(rows),
            EngineConfig(max_hierarchy_depth=r.randint(2, 4)))


def test_parity_random_vocabularies(ray_session):
    """Seeded random vocabularies against the reference DFS: every
    seed in-process, two of them on the shard actors too."""
    import ray.data as rd

    for seed in range(40):
        table, cfg = _random_vocabulary(seed)
        want = _reference_order(_skeleton(table, cfg),
                                cfg.max_hierarchy_depth)
        for engine in ENGINES if seed < 2 else ENGINES[:1]:
            got = _rows(build_tree_rows(rd.from_arrow(table), cfg,
                                        engine=engine))
            assert got == want, f"seed {seed}, engine={engine}"


def _pinned_closed():
    import ray.data as rd

    from skosconverter_ray.queries import _tree_vocab_triples
    from skosconverter_ray.stages.triples import (dedup_triples,
                                                  inverse_consistency)

    closed = inverse_consistency(
        dedup_triples(rd.from_arrow(_tree_vocab_triples()))).materialize()
    return pa.concat_tables(
        [t for t in closed.iter_batches(batch_format="pyarrow")
         if t.num_rows]).select(schemas.TRIPLES.names)


def test_parity_pinned_generator_vocabulary(ray_session):
    """The skos_tree_rows / skos_tree_order_distributed vocabulary (the
    seed-42 generator's 3 schemes x 120 concepts, inverse-closed): both
    engines reproduce the reference DFS row for row."""
    assert len(_assert_matches_reference(_pinned_closed())) == 123


def test_gate_flip_auto_takes_actor_placement(ray_session, monkeypatch):
    """With the SKOS size gate at 0 triples, engine="auto" must take
    the actor placement and still give the reference rows; the
    stand-alone pivot and display-parent stages must give their
    in-process kernels' rows."""
    import ray.data as rd

    table = _pinned_closed()
    cfg = EngineConfig()
    want = _reference_order(_skeleton(table, cfg), cfg.max_hierarchy_depth)
    calls = []
    on_actors = hierarchy._build_on_actors
    monkeypatch.setattr(concepts, "DRIVER_MAX_TRIPLES", 0)
    monkeypatch.setattr(hierarchy, "_build_on_actors",
                        lambda *a: calls.append(1) or on_actors(*a))
    assert _rows(build_tree_rows(rd.from_arrow(table))) == want
    assert calls == [1]

    # the stand-alone stages take the per-bucket path too
    def by_uri(ds, key):
        return sorted(ds.take_all(), key=lambda r: r[key])

    assert by_uri(concepts.pivot_concepts(rd.from_arrow(table)), "uri") \
        == concepts.pivot_table(table, cfg).to_pylist()
    assert by_uri(hierarchy.display_parents(rd.from_arrow(table)),
                  "child") == hierarchy.min_parent(
        hierarchy.edge_table(table)).sort_by("child").to_pylist()
