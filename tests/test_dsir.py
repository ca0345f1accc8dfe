"""DSIR-style importance selection: the integer surprisal-difference
weights must match a sequential oracle exactly, and on a corpus whose
target slice has a distinctive vocabulary the selection must pick the
target-looking documents (including a non-target-tagged doc written in
the target vocabulary — the whole point of importance resampling)."""

import re
from collections import Counter

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from skosconverter_ray.queries import doc_dsir_selection

# target (en) vocabulary: science-y; non-target: cooking-y.
_ROWS = [
    (0, "en", "proton neutron electron quark boson proton lepton"),
    (1, "en", "quark boson lepton photon proton neutron electron photon"),
    (2, "de", "butter flour sugar yeast salt butter dough oven"),
    (3, "de", "dough oven salt sugar flour yeast butter sugar"),
    # de-tagged but written in the target vocabulary: DSIR should
    # select it anyway (weights depend on text, not the tag)
    (4, "de", "proton electron quark photon boson lepton neutron"),
    # en-tagged but cooking vocabulary: should be rejected
    (5, "en", "butter dough yeast oven flour salt sugar oven"),
    # mixed: half target tokens, half not
    (6, "fr", "proton butter quark flour boson sugar lepton yeast"),
]


def _seq_oracle(rows):
    tok = [(d, lang, t) for d, lang, text in rows
           for t in re.findall(r"[a-z0-9]+", text.lower())]
    c_raw = Counter(t for _, _, t in tok)
    c_tgt = Counter(t for _, lang, t in tok if lang == "en")
    v = len(c_raw)
    n_raw = sum(c_raw.values()) + v
    n_tgt = sum(c_tgt.values()) + v
    out = {}
    for d, _, t in tok:
        w = ((n_raw // (c_raw[t] + 1)).bit_length()
             - (n_tgt // (c_tgt.get(t, 0) + 1)).bit_length())
        n, bits = out.get(d, (0, 0))
        out[d] = (n + 1, bits + w)
    return {d: (n, bits, bits >= 0) for d, (n, bits) in out.items()}


def test_dsir_matches_sequential_oracle_and_selects_by_text(
        ray_session, tmp_path):
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in _ROWS], pa.int64()),
        "lang": pa.array([r[1] for r in _ROWS], pa.string()),
        "text": pa.array([r[2] for r in _ROWS], pa.string()),
    }), tmp_path / "documents.parquet")

    got = {r["doc_id"]: (r["n_tokens"], r["dsir_bits"], r["selected"])
           for r in doc_dsir_selection(str(tmp_path)).to_pylist()}
    assert got == _seq_oracle(_ROWS)

    sel = {d for d, (_, _, s) in got.items() if s}
    # target-vocab docs selected regardless of tag; cooking docs not
    assert {0, 1, 4} <= sel
    assert not sel & {2, 3, 5}

def test_budget_threshold_matches_sorted_plan(ray_session):
    """The histogram-threshold budget cut selects the same docs with the
    same cum_tokens as an in-test numpy cut: sort on (-dsir_bits,
    doc_id), cumsum n_tokens, keep cum <= total // 10. Tie-heavy,
    skewed and single-score distributions, and one with equal token
    counts whose cut lands exactly on the budget."""
    import numpy as np
    import ray.data as rd

    from skosconverter_ray.queries import _budget_selection_threshold

    rng = np.random.default_rng(11)
    for trial, (n, n_scores, tok_lo) in enumerate(
            [(500, 7, 0), (800, 200, 0), (300, 1, 0), (400, 30, 10)]):
        doc = rng.permutation(n)
        toks = rng.integers(tok_lo, 50 if tok_lo == 0 else tok_lo + 1, n)
        bits = rng.integers(-n_scores, n_scores + 1, n)
        dsr = rd.from_arrow(pa.table({
            "doc_id": pa.array(doc, pa.int64()),
            "n_tokens": pa.array(toks, pa.int64()),
            "dsir_bits": pa.array(bits, pa.int64()),
        })).repartition(6).materialize()
        got = _budget_selection_threshold(dsr).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        order = np.lexsort((doc, -bits))
        cum = np.cumsum(toks[order])
        keep = cum <= int(toks.sum()) // 10
        want = pd.DataFrame({
            "doc_id": doc[order][keep], "n_tokens": toks[order][keep],
            "dsir_bits": bits[order][keep], "cum_tokens": cum[keep],
        }).astype("int64").sort_values("doc_id").reset_index(drop=True)
        assert got.equals(want), f"trial {trial}: threshold != numpy cut"
        assert len(got) > 0, f"trial {trial}: empty selection"
    assert cum[keep][-1] == int(toks.sum()) // 10
