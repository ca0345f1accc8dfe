"""Linker core: greedy longest-match semantics.

The batch linker (stages/linker.py: ``_span_tokens``, the ``_LabelTrie``
walk and the greedy consume) must reproduce exactly the
reference-derived matching contract: at each token position take the
longest label starting there, consume its tokens, never re-match
inside a consumed window (ref analogue: the exact-string label memo,
skos_converter.py:70). ``_oracle`` states that contract directly, one
span at a time, and every test compares the stage with it.
"""

from __future__ import annotations

import pyarrow as pa

from skosconverter_ray import schemas
from skosconverter_ray.functions.text import normalize_surface
from skosconverter_ray.stages.linker import LinkerStage

_MENTION = ("surface", "concept_uri", "label_kind")


def _oracle(index: dict, text: str) -> tuple[list[tuple], int]:
    """(surface, uri, kind) of the greedy longest-match labels of one
    span text, and its normalized length: at each token, the longest
    ``" ".join(tokens[i:i + n])`` in the index is taken and its tokens
    consumed."""
    norm = normalize_surface(text)
    tokens = norm.split(" ") if norm else []
    longest = max((s.count(" ") + 1 for s in index), default=0)
    out, i = [], 0
    while i < len(tokens):
        for n in range(min(longest, len(tokens) - i), 0, -1):
            surface = " ".join(tokens[i:i + n])
            if surface in index:
                out.append((surface, *index[surface]))
                i += n
                break
        else:
            i += 1
    return out, len(norm)


def _span(text):
    return {"kind": "text", "text": text, "media_ref": "", "offset": 0}


def _docs(rows) -> pa.Table:
    return pa.table({
        "doc_id": pa.array([d for d, _ in rows], pa.string()),
        "spans": pa.array([s for _, s in rows],
                          pa.list_(schemas.SPAN_STRUCT)),
    }, schema=schemas.DOCUMENTS)


def _matches(index: dict, text: str) -> list[tuple]:
    """The stage's mentions of a one-span document, checked against
    the oracle."""
    out = LinkerStage(index)(_docs([("d", [_span(text)])]))
    got = list(zip(*(out[c].to_pylist() for c in _MENTION)))
    assert got == _oracle(index, text)[0]
    return got


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
    # 'a b x' never completes, but its suffix 'b' is a label that
    # starts inside the broken path
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
    copies in one process build the label trie once per index ref, and
    a new ref builds it again."""
    import pickle

    import pyarrow as pa
    import ray

    from skosconverter_ray import schemas
    from skosconverter_ray.stages import linker

    built = []
    real = linker._LabelTrie
    monkeypatch.setattr(linker, "_LabelTrie",
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


def _row_loop_mentions(index: dict, batch) -> list[tuple]:
    """Mention tuples of the oracle over the per-row
    ``spans.to_pylist()`` loop, each with its span's normalized
    length."""
    out = []
    for doc_id, spans in zip(batch["doc_id"].to_pylist(),
                             batch["spans"].to_pylist()):
        for si, span in enumerate(spans or []):
            if not span["text"]:
                continue
            found, norm_len = _oracle(index, span["text"])
            out += [(doc_id, si, *m, norm_len) for m in found]
    return out


def test_flattened_spans_match_row_loop():
    """The flattened span read gives the row loop's mentions, span
    indices and order on a sliced, two-chunk batch with null span
    lists, empty lists and empty or null texts."""
    docs = [
        ("d0", [_span("new york")]),
        ("d1", [_span(""), _span("z new york city z")]),
        ("d2", None),
        ("d3", []),
        ("d4", [_span(None), _span("nothing"), _span("z z")]),
        ("d5", [_span("new york"), _span("NEW YORK CITY")]),
        ("d6", None),
        ("d7", [_span("z")]),
    ]

    idx = {"new york": ("uri:ny", "pref"),
           "new york city": ("uri:nyc", "alt"), "z": ("uri:z", "hidden")}
    st = LinkerStage(idx)
    whole = pa.concat_tables([_docs(docs[:5]), _docs(docs[5:])])
    for batch in (whole, whole.slice(1), whole.slice(2, 5),
                  _docs(docs).slice(3, 4), whole.slice(8)):
        out = st(batch)
        want = [m[:-1] for m in _row_loop_mentions(idx, batch)]
        assert list(zip(*(out[c].to_pylist() for c in
                          ("doc_id", "span_idx", *_MENTION)))) == want
    assert len(_row_loop_mentions(idx, whole)) == 9


# label and text pieces: ASCII case, Python-only whitespace (\x1c,
# \x85, NBSP, ideographic space) inside and between words, and letters
# whose lower case is longer or non-ASCII (İ -> i̇, ß, É)
_PIECES = ["a", "B", "c", "d", "İ", "ß", "É", "é", "x\x1cy", "q\x85r"]
_SEPS = [" ", "  ", "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
         "\xa0", "\u3000"]


def _random_case(seed: int) -> tuple[dict, pa.Table]:
    """A random label index and a documents table over shared words."""
    import random

    r = random.Random(seed)

    def text(words):
        sep = [r.choice(_SEPS) for _ in words]
        body = "".join(w + s for w, s in zip(words, sep))
        edge = r.choice(["", r.choice(_SEPS)])
        return edge + (body[:-len(sep[-1])] if words else "") + edge

    words = ["".join(r.choices(_PIECES, k=r.randint(1, 2)))
             for _ in range(r.randint(1, 8))]
    index = {}
    for _ in range(r.randint(0, 10)):
        norm = normalize_surface(text(r.choices(words, k=r.randint(1, 4))))
        index.setdefault(norm, (f"uri:{seed}:{len(index)}",
                                r.choice(["pref", "alt", "hidden"])))
    rows = []
    for d in range(r.randint(1, 7)):
        if r.random() < 0.15:
            rows.append((f"d{d}", None))
            continue
        spans = []
        for _ in range(r.randint(0, 6)):
            kind = r.random()
            if kind < 0.1:
                spans.append(_span(None))
            elif kind < 0.2:
                spans.append(_span(r.choice(["", " ", "\x1c", "\r\n"])))
            else:
                ws = [w.upper() if r.random() < 0.2 else w
                      for w in r.choices(words + ["z"], k=r.randint(1, 9))]
                spans.append(_span(text(ws)))
        rows.append((f"d{d}", spans))
    return index, _docs(rows)


def test_random_batches_match_oracle():
    """Seeded random indexes and documents: the stage gives the
    oracle's mentions row for row, and its scores are the scorer's on
    the oracle's rows (``mention_features`` over the surfaces and
    normalized span lengths), on two-chunk and sliced batches."""
    import numpy as np

    from skosconverter_ray.models import MentionScorer, mention_features

    scorer = MentionScorer()
    rows = 0
    for seed in range(300):
        index, docs = _random_case(seed)
        cut = docs.num_rows // 2
        two = pa.concat_tables([docs.slice(0, cut), docs.slice(cut)])
        for batch in (two, two.slice(seed % 3), docs.slice(1, 3)):
            out = LinkerStage(index)(batch)
            want = _row_loop_mentions(index, batch)
            assert list(zip(*(out[c].to_pylist() for c in
                              ("doc_id", "span_idx", *_MENTION)))) \
                == [m[:-1] for m in want], seed
            scores = scorer.predict(mention_features(
                [m[4] for m in want], [m[2] for m in want],
                [m[5] for m in want]))
            assert np.array_equal(out["score"].to_numpy(), scores), seed
            rows += len(want)
    assert rows > 5_000
