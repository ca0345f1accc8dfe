"""Aho-Corasick linker core: greedy longest-match semantics.

The automaton (stages/linker.py `_TokenAC`) must reproduce exactly the
reference-derived matching contract: at each token position take the
longest label starting there, consume its tokens, never re-match
inside a consumed window (ref analogue: the exact-string label memo,
skos_converter.py:70).
"""

from __future__ import annotations

from skosconverter_ray.stages.linker import LinkerStage


def _matches(index: dict, text: str):
    st = LinkerStage(index)
    st._resolve()
    return st._match_span(text)[0]


def test_longest_match_wins():
    idx = {"new york": ("uri:ny", "pref"), "new york city": ("uri:nyc", "pref")}
    assert _matches(idx, "in New   York City today") == [
        ("new york city", "uri:nyc", "pref")
    ]
    # shorter label still matches when the longer one can't complete
    assert _matches(idx, "in new york today") == [
        ("new york", "uri:ny", "pref")
    ]


def test_consumed_tokens_not_rematched():
    idx = {"a b": ("uri:ab", "pref"), "b c": ("uri:bc", "pref")}
    assert _matches(idx, "a b c") == [("a b", "uri:ab", "pref")]


def test_fail_link_suffix_match():
    # 'a b x' never completes, but its suffix 'b' is a label reached
    # via the fail transition mid-path
    idx = {"a b x": ("uri:abx", "pref"), "b": ("uri:b", "alt")}
    assert _matches(idx, "a b c") == [("b", "uri:b", "alt")]


def test_adjacent_and_repeated_matches():
    idx = {"x y": ("uri:xy", "pref"), "z": ("uri:z", "hidden")}
    assert _matches(idx, "x y z x y") == [
        ("x y", "uri:xy", "pref"),
        ("z", "uri:z", "hidden"),
        ("x y", "uri:xy", "pref"),
    ]


def test_empty_and_no_match():
    idx = {"q": ("uri:q", "pref")}
    assert _matches(idx, "") == []
    assert _matches(idx, "   ") == []
    assert _matches(idx, "nothing here") == []


def test_normalization_applied():
    idx = {"big apple": ("uri:ba", "pref")}
    assert _matches(idx, "  BIG\t\tApple  ") == [("big apple", "uri:ba", "pref")]


def test_mention_scorer_artifact():
    """T3 stateful scorer: the committed numpy-MLP artifact loads,
    scores are calibrated probabilities, and true-mention-shaped
    candidates outscore random non-label windows (the discrimination
    the trainer reports ~0.81 AUC for)."""
    import numpy as np

    from skosconverter_ray.models import MentionScorer, mention_features

    sc = MentionScorer()
    # true-shaped: multi-token pref label covering a chunk of its span
    pos = mention_features(["pref", "alt"],
                           ["data lake", "feature store"],
                           [40, 50])
    # negative-shaped: 1-token fragment lost in a long span
    neg = mention_features(["hidden", "hidden"],
                           ["of", "x"],
                           [200, 250])
    sp, sn = sc.predict(pos), sc.predict(neg)
    assert ((0 < sp) & (sp < 1)).all() and ((0 < sn) & (sn < 1)).all()
    assert float(sp.mean()) > float(sn.mean())
    assert sc.predict(np.zeros((0, 6))).shape == (0,)


def test_linker_stage_scores_from_model():
    """The stage's score column comes from the scorer (one value per
    mention, in (0,1)), and the mention tuples are unchanged."""
    import pyarrow as pa

    from skosconverter_ray import schemas

    idx = {"new york": ("uri:ny", "pref"), "z": ("uri:z", "hidden")}
    st = LinkerStage(idx)
    batch = pa.table({
        "doc_id": pa.array(["d1"], pa.string()),
        "spans": pa.array([[{"kind": "text", "text": "in New York z",
                             "media_ref": "", "offset": 0}]],
                          pa.list_(schemas.SPAN_STRUCT)),
    }, schema=schemas.DOCUMENTS)
    out = st(batch)
    assert out["concept_uri"].to_pylist() == ["uri:ny", "uri:z"]
    s = out["score"].to_pylist()
    assert all(0 < v < 1 for v in s)


def test_automaton_built_once_per_process_per_ref(monkeypatch):
    """A linker task gets a pickled copy of the stage (the ref only);
    copies in one process build the automaton once per index ref, and
    a new ref builds it again."""
    import pickle

    import pyarrow as pa
    import ray

    from skosconverter_ray import schemas
    from skosconverter_ray.stages import linker

    built = []
    real = linker._TokenAC
    monkeypatch.setattr(linker, "_TokenAC",
                        lambda idx: built.append(idx) or real(idx))
    monkeypatch.setattr(linker, "_BUILT", {})
    batch = pa.table({
        "doc_id": ["d1"],
        "spans": pa.array([[{"kind": "text", "text": "New York",
                             "media_ref": "", "offset": 0}]],
                          pa.list_(schemas.SPAN_STRUCT)),
    }, schema=schemas.DOCUMENTS)
    idx = {"new york": ("uri:ny", "pref")}
    for ref in (ray.put(idx), ray.put(dict(idx))):
        blob = pickle.dumps(LinkerStage(ref))
        for _ in range(3):
            out = pickle.loads(blob)(batch)
            assert out["concept_uri"].to_pylist() == ["uri:ny"]
    assert len(built) == 2


def _row_loop_mentions(stage: LinkerStage, batch) -> list[tuple]:
    """Mention tuples from the per-row ``spans.to_pylist()`` loop (the
    transcription the flattened read must equal)."""
    out = []
    for doc_id, spans in zip(batch["doc_id"].to_pylist(),
                             batch["spans"].to_pylist()):
        for si, span in enumerate(spans or []):
            if not span["text"]:
                continue
            for surface, uri, kind in stage._match_span(span["text"])[0]:
                out.append((doc_id, si, surface, uri, kind))
    return out


def test_flattened_spans_match_row_loop():
    """The flattened span read gives the row loop's mentions, span
    indices and order on a sliced, two-chunk batch with null span
    lists, empty lists and empty or null texts."""
    import pyarrow as pa

    from skosconverter_ray import schemas

    def span(text):
        return {"kind": "text", "text": text, "media_ref": "", "offset": 0}

    docs = [
        ("d0", [span("new york")]),
        ("d1", [span(""), span("z new york city z")]),
        ("d2", None),
        ("d3", []),
        ("d4", [span(None), span("nothing"), span("z z")]),
        ("d5", [span("new york"), span("NEW YORK CITY")]),
        ("d6", None),
        ("d7", [span("z")]),
    ]

    def table(rows):
        return pa.table({
            "doc_id": [d for d, _ in rows],
            "spans": pa.array([s for _, s in rows],
                              pa.list_(schemas.SPAN_STRUCT)),
        }, schema=schemas.DOCUMENTS)

    idx = {"new york": ("uri:ny", "pref"),
           "new york city": ("uri:nyc", "alt"), "z": ("uri:z", "hidden")}
    st = LinkerStage(idx)
    whole = pa.concat_tables([table(docs[:5]), table(docs[5:])])
    for batch in (whole, whole.slice(1), whole.slice(2, 5),
                  table(docs).slice(3, 4), whole.slice(8)):
        out = st(batch)
        want = _row_loop_mentions(st, batch)
        assert list(zip(*(out[c].to_pylist() for c in
                          ("doc_id", "span_idx", "surface", "concept_uri",
                           "label_kind")))) == want
    assert len(_row_loop_mentions(st, whole)) == 9
