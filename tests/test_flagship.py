"""End-to-end flagship pipeline: corpus -> mentions -> canonical graph.

Correctness bars (BASELINE.json): linking P/R >= 0.95 against exact
generator ground truth; per-row span-sequence equality through any
document transform; inverse-consistency closure; canonicalization
equals a sequential union-find oracle.
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from skosconverter_ray import corpus, schemas, vocab
from skosconverter_ray.config import (
    INVERSE_PAIRS,
    OWL_SAME_AS,
    SKOS_BROADER,
    SKOS_EXACT_MATCH,
)
from skosconverter_ray.functions.text import normalize_surface
from skosconverter_ray.pipelines.flagship import link_plan, run_flagship
from skosconverter_ray.stages.concepts import table_of
from skosconverter_ray.stages.linker import LinkerStage, build_label_index

N_DOCS = 200


@pytest.fixture(scope="module")
def voc():
    return vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=40, seed=42))


@pytest.fixture(scope="module")
def docs_table(voc):
    return corpus.generate_documents_table(N_DOCS, voc, seed=42)


@pytest.fixture(scope="module")
def result(voc, docs_table):
    import ray.data as rd

    out = run_flagship(rd.from_arrow(docs_table), voc.triples,
                       preferred_ns="http://example.org/vocab/",
                       batch_size=64)
    return {
        "mentions": out["mentions"].to_pandas(),
        "graph": out["graph"].to_pandas(),
        "canon": out["canon_map"].to_pandas(),
    }


@pytest.mark.parametrize("n_entries,total_cpus,plan", [
    (1_000, 1, None),
    (1_000, 2, None),
    (1_000, 4, (2, 2)),
    (1_000, 16, None),
    (60_000, 16, (8, 14)),
])
def test_auto_link_plan(n_entries, total_cpus, plan):
    """A pool whose max would hold every CPU (1-2 cpus) falls back to
    tasks; 4 cpus and wide sessions keep their measured choices."""
    assert link_plan(n_entries, total_cpus) == plan


def test_linking_precision_recall(voc, result):
    gt = corpus.ground_truth_mentions(N_DOCS, voc, seed=42)
    truth = {
        (d, s, normalize_surface(surf), u)
        for d, s, surf, u in zip(
            gt["doc_id"].to_pylist(), gt["span_idx"].to_pylist(),
            gt["surface"].to_pylist(), gt["concept_uri"].to_pylist())
    }
    m = result["mentions"]
    found = set(zip(m["doc_id"], m["span_idx"].astype(int),
                    m["surface"], m["concept_uri"]))
    assert found, "no mentions found"
    tp = len(found & truth)
    precision = tp / len(found)
    recall = tp / len(truth)
    assert precision >= 0.95, f"precision {precision:.3f}"
    assert recall >= 0.95, f"recall {recall:.3f}"


def test_span_sequence_preserved(voc, docs_table):
    """Per-row invariant (input_hint): any doc-level transform keeps
    (kind, text, media_ref, order) intact. Round the table through the
    linker's batch path and re-read the input side."""
    import ray.data as rd

    ds = rd.from_arrow(docs_table)
    # identity map_batches in pyarrow format must be lossless
    out = ds.map_batches(lambda b: b, batch_format="pyarrow").to_pandas()
    orig = docs_table.to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    orig = orig.sort_values("doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == list(orig["doc_id"])
    for a, b in zip(out["spans"], orig["spans"]):
        seq_a = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in a]
        seq_b = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in b]
        assert seq_a == seq_b


def test_graph_no_duplicate_triples(result):
    g = result["graph"]
    keys = list(zip(g["subj"], g["pred"], g["obj"], g["lang"].fillna("")))
    assert len(keys) == len(set(keys))


def test_inverse_consistency_closure(result):
    g = result["graph"]
    triples = set(zip(g["subj"], g["pred"], g["obj"]))
    for s, p, o in triples:
        inv = INVERSE_PAIRS.get(p)
        if inv:
            assert (o, inv, s) in triples, f"missing inverse of {s} {p} {o}"


def test_canonicalization_matches_union_find_oracle(voc, result):
    # sequential oracle over the vocabulary's equivalence edges
    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def rank(u):
        return (0 if u.startswith("http://example.org/vocab/") else 1, u)

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=rank)
            parent[hi] = lo

    t = voc.triples
    for s, p, o, lit in zip(t["subj"].to_pylist(), t["pred"].to_pylist(),
                            t["obj"].to_pylist(),
                            t["obj_is_literal"].to_pylist()):
        if p in (OWL_SAME_AS, SKOS_EXACT_MATCH) and not lit:
            union(s, o)
    expected = {x: find(x) for x in list(parent) if find(x) != x}
    got = dict(zip(result["canon"]["uri"], result["canon"]["canonical_uri"]))
    assert got == expected


def test_canonical_uris_rewritten(result):
    """No canonicalized-away URI survives in the graph."""
    replaced = set(result["canon"]["uri"])
    g = result["graph"]
    assert not (set(g["subj"]) & replaced)
    lits = g["obj_is_literal"]
    assert not (set(g.loc[~lits, "obj"]) & replaced)


ALIAS_NS = "http://example.org/vocab/"
ALPHA, BRAVO, CHARLIE = (ALIAS_NS + c for c in ("alpha", "bravo", "charlie"))


def _alias_vocab() -> pa.Table:
    """Three concepts; bravo is an exactMatch alias of alpha, and both
    carry a broader edge to charlie. The standard generator masks the
    case (its aliases carry no hierarchy), so the vocab is by hand."""
    from skosconverter_ray.config import RDF_TYPE, SKOS_CONCEPT, SKOS_PREF_LABEL

    A, B, C = ALPHA, BRAVO, CHARLIE
    rows = [
        (A, RDF_TYPE, SKOS_CONCEPT, False, None),
        (B, RDF_TYPE, SKOS_CONCEPT, False, None),
        (C, RDF_TYPE, SKOS_CONCEPT, False, None),
        (A, SKOS_PREF_LABEL, "alpha tango", True, "en"),
        (B, SKOS_PREF_LABEL, "bravo tango", True, "en"),
        (C, SKOS_PREF_LABEL, "charlie", True, "en"),
        (B, SKOS_EXACT_MATCH, A, False, None),
        # the shared hierarchy that becomes a duplicate after B -> A
        (A, SKOS_BROADER, C, False, None),
        (B, SKOS_BROADER, C, False, None),
    ]
    return pa.table(
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


def test_merged_aliases_do_not_duplicate_triples():
    """Regression: when exactMatch aliases SHARE hierarchy (both carry a
    broader edge to the same parent), the canonicalization rewrite maps
    both edges onto one triple — the flagship must dedup downstream of
    the rewrite or the U4 set invariant breaks."""
    import ray.data as rd

    docs = corpus.from_flat_documents(rd.from_items(
        [{"doc_id": f"d{i}",
          "text": "we saw alpha tango and bravo tango together"}
         for i in range(3)]))
    out = run_flagship(docs, _alias_vocab(), preferred_ns=ALIAS_NS,
                       batch_size=16)
    g = out["graph"].to_pandas()
    keys = list(zip(g["subj"], g["pred"], g["obj"], g["lang"].fillna("")))
    assert len(keys) == len(set(keys)), "duplicate triples after canonicalization"
    # both alias mentions collapse onto A; the shared broader edge is one row
    assert ((g["subj"] == ALPHA) & (g["pred"] == SKOS_BROADER)).sum() == 1
    assert BRAVO not in set(g["subj"])


_TRIPLE_COLS = ["subj", "pred", "obj", "obj_is_literal", "lang",
                "source_doc"]


def _rows(t: pa.Table) -> list[tuple]:
    return list(zip(*(t[c].to_pylist() for c in _TRIPLE_COLS)))


def _written(out_dir: str) -> dict[str, list[tuple]]:
    """partition dir name -> the rows of its one graph file."""
    import glob
    import os

    import pyarrow.parquet as pq

    return {os.path.basename(os.path.dirname(f)): _rows(pq.read_table(f))
            for f in glob.glob(os.path.join(out_dir, "part=*",
                                            "graph.parquet"))}


def test_folded_write_matches_dedup_then_write(tmp_path):
    """The write dedups each subj partition in its own task; that must
    equal the separate dedup exchange, witnesses included. 5,000
    documents exceed one 4,096-row emission batch, so each batch emits
    alpha's subgraph with its own min document and the copies of
    (alpha broader charlie) come from different documents in different
    blocks; every document also mentions alpha twice."""
    import json
    import os
    import shutil

    import ray.data as rd

    def docs():
        return corpus.from_flat_documents(rd.from_items(
            [{"doc_id": f"d{i:05d}",
              "text": "alpha tango, bravo tango and alpha tango"}
             for i in range(5_000)], override_num_blocks=10))

    plan = dict(preferred_ns=ALIAS_NS, link_concurrency=None,
                batch_size=64)
    vt = _alias_vocab()

    def graph_rows(out):
        return _rows(table_of(out["graph"], schemas.TRIPLES))

    want = graph_rows(run_flagship(docs(), vt, **plan))  # dedup exchange
    full = str(tmp_path / "full")
    out = run_flagship(docs(), vt, out_dir=full, n_parts=8, **plan)
    files = _written(full)
    rows = [r for part in files.values() for r in part]
    assert len(files) > 1
    # no triple twice, and the same rows and witnesses as the exchange
    assert len({r[:5] for r in rows}) == len(rows)
    assert set(rows) == set(want)
    # graph is the written files: the same rows, each once
    assert sorted(graph_rows(out)) == sorted(rows)
    assert len(want) == len(set(want))
    witness = {r[:3]: r[5] for r in rows}
    assert witness[(ALPHA, SKOS_BROADER, CHARLIE)] == "d00000"

    def manifest(out_dir):
        with open(os.path.join(out_dir, "_manifest.jsonl")) as f:
            return [json.loads(line) for line in f]

    assert sum(r["row_count"] for r in manifest(full)) == len(rows)

    # resume: a run killed after writing (and recording) two partitions
    resumed = str(tmp_path / "resumed")
    kept = sorted(files)[:2]
    for part in kept:
        shutil.copytree(os.path.join(full, part),
                        os.path.join(resumed, part))
    with open(os.path.join(resumed, "_manifest.jsonl"), "w") as f:
        for rec in manifest(full):
            if f"part={rec['partition_id']}" in kept:
                f.write(json.dumps(rec) + "\n")
    out = run_flagship(docs(), vt, out_dir=resumed, n_parts=8, **plan)
    again = _written(resumed)
    assert {p: set(r) for p, r in again.items()} \
        == {p: set(r) for p, r in files.items()}
    assert sum(r["row_count"] for r in manifest(resumed)) == len(rows)
    assert sorted(graph_rows(out)) == sorted(
        r for part in again.values() for r in part) == sorted(rows)


def test_distributed_corpus_generation_matches_local(voc, docs_table):
    import ray.data as rd  # noqa: F401

    ds = corpus.documents_dataset(50, voc, seed=42, override_num_blocks=4)
    dist = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    local = corpus.generate_documents_table(50, voc, seed=42).to_pandas()
    assert list(dist["doc_id"]) == list(local["doc_id"])
    for a, b in zip(dist["spans"], local["spans"]):
        assert [tuple(s.values()) for s in a] == [tuple(s.values()) for s in b]


def test_vocab_closure_matches_inverse_pass(voc, docs_table):
    """The driver-side vocab closure must yield EXACTLY the fixpoint
    the corpus-wide inverse_consistency operator computes: applying
    the operator to the flagship graph adds nothing."""
    import ray.data as rd

    from skosconverter_ray.stages.triples import inverse_consistency

    out = run_flagship(rd.from_arrow(docs_table), voc.triples,
                       preferred_ns="http://example.org/vocab/",
                       batch_size=64)
    g = out["graph"].materialize()
    closed = inverse_consistency(g).to_pandas()
    base = g.to_pandas()

    def key(df):
        return set(zip(df["subj"], df["pred"], df["obj"],
                       df["lang"].fillna("")))

    assert key(closed) == key(base)
    assert len(base) == len(key(base))  # still duplicate-free


def test_flagship_graph_row_corpus_link_pr_and_inverse_fixpoint(sf001):
    """The flagship_graph query's corpus: linking P = R = 1.0 (to 4 dp)
    against exact generator ground truth on the pinned 300-doc /
    60-concept seed-42 corpus, and the sf0.01 flagship graph is an
    inverse-consistency fixpoint (re-applying the pass adds nothing)."""
    import ray

    from skosconverter_ray.queries import _flagship_graph_outputs
    from skosconverter_ray.stages.linker import link_documents
    from skosconverter_ray.stages.triples import inverse_consistency

    pinned = vocab.generate_vocab(
        vocab.VocabSpec(n_schemes=2, n_concepts=60, seed=42))
    gt = corpus.ground_truth_mentions(300, pinned, seed=42)
    truth = {
        (d, s, normalize_surface(t), u)
        for d, s, t, u in zip(
            gt["doc_id"].to_pylist(), gt["span_idx"].to_pylist(),
            gt["surface"].to_pylist(), gt["concept_uri"].to_pylist())
    }
    linked = link_documents(
        corpus.documents_dataset(300, pinned, seed=42,
                                 override_num_blocks=4),
        ray.put(build_label_index(pinned.triples)),
        concurrency=None, batch_size=128)
    found = {(r["doc_id"], r["span_idx"], r["surface"], r["concept_uri"])
             for r in linked.take_all()}
    tp = len(found & truth)
    assert round(tp / max(1, len(found)), 4) == 1.0
    assert round(tp / max(1, len(truth)), 4) == 1.0

    graph = _flagship_graph_outputs(sf001)["graph"].materialize()
    assert graph.count() > 0
    assert inverse_consistency(graph).count() == graph.count()


def _dict_subgraph(vocab_triples: pa.Table) -> dict[str, list[tuple]]:
    """The subgraph as a per-concept dict loop (the transcription the
    Arrow build must equal)."""
    from skosconverter_ray.config import SYMMETRIC_PREDS
    from skosconverter_ray.pipelines.flagship import EMITTED_PREDS

    keep, inv_map = set(EMITTED_PREDS), dict(INVERSE_PAIRS)
    out: dict[str, list[tuple]] = {}
    for subj, pred, obj, lit, lang in zip(
            *(vocab_triples[c].to_pylist() for c in
              ("subj", "pred", "obj", "obj_is_literal", "lang"))):
        if pred not in keep:
            continue
        entry = out.setdefault(subj, [])
        entry.append((subj, pred, obj, lit, lang))
        if not lit:
            flip = inv_map.get(pred) or (
                pred if pred in SYMMETRIC_PREDS else None)
            if flip is not None:
                entry.append((obj, flip, subj, lit, lang))
    return out


def _mixed_vocab() -> pa.Table:
    """Hierarchy, symmetric predicates, literal objects (one on a
    flippable predicate), a null ``obj_is_literal`` and a predicate the
    subgraph does not emit."""
    from skosconverter_ray.config import (
        SKOS_DEFINITION,
        SKOS_NARROWER,
        SKOS_NOTATION,
        SKOS_PREF_LABEL,
        SKOS_RELATED,
    )

    A, B, C, D = (ALIAS_NS + c for c in "abcd")
    rows = [
        (A, SKOS_BROADER, B, False, None),
        (A, SKOS_RELATED, C, False, None),
        (B, SKOS_EXACT_MATCH, D, None, None),
        (C, OWL_SAME_AS, A, False, None),
        (D, SKOS_NARROWER, A, False, None),
        (A, SKOS_NOTATION, "1.2", True, None),
        (A, SKOS_DEFINITION, "a thing", True, "en"),
        (B, SKOS_BROADER, "not an iri", True, None),
        (A, SKOS_PREF_LABEL, "alpha", True, "en"),
    ]
    return pa.table(
        [pa.array([r[i] for r in rows], f.type)
         for i, f in enumerate(list(schemas.TRIPLES)[:5])]
        + [pa.nulls(len(rows), pa.string())],
        schema=schemas.TRIPLES)


@pytest.mark.parametrize("which", ["mixed", "generated"])
def test_subgraph_table_and_emission_match_dict_loop(voc, which):
    """The Arrow subgraph table holds the dict loop's rows, and the
    emission's semi-join gives the per-concept loop's rows: each
    mentioned concept's subgraph once per batch, stamped with its
    batch-min document."""
    from collections import Counter

    from skosconverter_ray.pipelines.flagship import (
        PRED_MENTIONS,
        EmitTriples,
        _vocab_subgraph,
    )

    vt = _mixed_vocab() if which == "mixed" else voc.triples
    want = _dict_subgraph(vt)
    sub = _vocab_subgraph(vt)
    assert sub.column_names == ["key", "subj", "pred", "obj",
                                "obj_is_literal", "lang"]
    assert Counter(zip(*(sub[c].to_pylist() for c in sub.column_names))) \
        == Counter((k, *r) for k, rs in want.items() for r in rs)

    concepts = sorted(want)[:3] + [ALIAS_NS + "unknown"]
    mention_rows = [(f"d{i}", concepts[i % len(concepts)])
                    for i in (7, 2, 5, 0, 3, 1, 6)]
    batch = pa.table({"doc_id": [d for d, _ in mention_rows],
                      "concept_uri": [c for _, c in mention_rows]})
    doc_ns = "http://example.org/doc/"
    got = EmitTriples(sub, doc_ns)(batch)
    assert got.schema == schemas.TRIPLES
    first = {}
    for d, c in mention_rows:
        first[c] = min(first.get(c, d), d)
    expected = [(doc_ns + d, PRED_MENTIONS, c, False, None, d)
                for d, c in mention_rows]
    expected += [(*r, first[c]) for c in first for r in want.get(c, ())]
    assert Counter(_rows(got)) == Counter(expected)


def test_vocab_state_built_once_per_vocabulary(monkeypatch):
    """A second run_flagship on the same vocab table object builds and
    puts nothing and gives the same graph; an equal-content new table,
    another preferred_ns and another session each rebuild."""
    import sys

    import ray
    import ray.data as rd

    from skosconverter_ray.pipelines import flagship
    from skosconverter_ray.stages import canonicalize

    monkeypatch.setattr(flagship, "_VOCAB", None)
    builds, puts = [], []
    for name in ("build_label_index", "_vocab_subgraph",
                 "canonical_map_table", "canonical_map_ref"):
        real = getattr(flagship, name)
        monkeypatch.setattr(
            flagship, name,
            lambda *a, _real=real, _name=name, **k:
                builds.append(_name) or _real(*a, **k))
    real_put = ray.put

    def put(*a, **k):
        # the vocabulary's puts (Ray Data puts its own map functions)
        caller = sys._getframe(1).f_globals["__name__"]
        if caller in (flagship.__name__, canonicalize.__name__):
            puts.append(caller)
        return real_put(*a, **k)

    monkeypatch.setattr(ray, "put", put)

    docs = corpus.from_flat_documents(rd.from_items(
        [{"doc_id": f"d{i}", "text": "alpha tango met bravo tango"}
         for i in range(4)]))
    vt = _alias_vocab()

    def run(table, ns=ALIAS_NS):
        builds.clear()
        puts.clear()
        out = flagship.run_flagship(docs, table, preferred_ns=ns,
                                    link_concurrency=None, batch_size=16)
        return sorted(_rows(table_of(out["graph"], schemas.TRIPLES)))

    first = run(vt)
    assert len(builds) == 4 and len(puts) == 4
    assert run(vt) == first
    assert builds == [] and puts == []
    assert run(_alias_vocab()) == first
    assert len(builds) == 4
    run(vt)
    run(vt, ns=None)
    assert len(builds) == 4
    assert run(vt, ns=None) and builds == []
    monkeypatch.setattr(flagship, "_session_key", lambda: ("other", "job"))
    run(vt, ns=None)
    assert len(builds) == 4


def test_graph_read_back_puts_nothing_per_file(tmp_path, monkeypatch):
    """A warm run_flagship writing 32 partitions makes as many driver
    puts as one writing 4: the graph read-back puts nothing per file.
    Its graph is the written files' rows, and a run that writes no
    file reads back the empty TRIPLES table."""
    import ray.data as rd
    from ray._private.worker import Worker

    docs = corpus.from_flat_documents(rd.from_items(
        [{"doc_id": f"d{i:03d}", "text": "alpha tango met charlie"}
         for i in range(200)])).materialize()
    vt = _alias_vocab()

    def run(name, n_parts, ds=docs):
        return run_flagship(ds, vt, preferred_ns=ALIAS_NS,
                            link_concurrency=None, batch_size=64,
                            out_dir=str(tmp_path / name), n_parts=n_parts)

    run("warm", 4)
    real, puts = Worker.put_object, []
    monkeypatch.setattr(
        Worker, "put_object",
        lambda self, *a, **k: puts.append(n) or real(self, *a, **k))
    graphs = {}
    for n in (4, 32):
        graphs[n] = run(f"p{n}", n)["graph"]
    assert puts.count(4) == puts.count(32)
    monkeypatch.setattr(Worker, "put_object", real)
    for n, graph in graphs.items():
        files = _written(str(tmp_path / f"p{n}"))
        assert len(files) > n // 2
        assert sorted(_rows(table_of(graph, schemas.TRIPLES))) == sorted(
            r for part in files.values() for r in part)
    none = corpus.from_flat_documents(rd.from_items(
        [{"doc_id": "d", "text": "nothing to link"}]))
    graph = run("none", 4, none)["graph"]
    assert _written(str(tmp_path / "none")) == {}
    assert table_of(graph, schemas.TRIPLES).equals(
        schemas.TRIPLES.empty_table())
