"""Batched mention detection + SKOS-aware entity linking (graft T2/J6).

Reference analogue: the exact-string ``label_to_uri`` memo
(skos_converter.py:70, 83-92) and the label getter chain (420-451),
generalized to prefLabel / altLabel / hiddenLabel lexical matching over
document span text.

Ray shape: the label index is the *small side* — built once from the
vocabulary triples, ``ray.put`` into the object store (broadcast join,
never a shuffle), and resolved once per worker process per ref
(``built_once``): the first batch a process links against a ref gets
the index and builds the automaton, later tasks and actors of that
process reuse them. Matching is a token-alphabet Aho-Corasick
automaton over the index: one amortized goto/fail transition per
document token, with terminal-output chains yielding every label
match — O(tokens) instead of the earlier O(tokens × max_label_tokens)
window-probe scan.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import (
    SKOS_ALT_LABEL,
    SKOS_HIDDEN_LABEL,
    SKOS_PREF_LABEL,
)
from ..functions.text import normalize_surface

_LABEL_KIND = {
    SKOS_PREF_LABEL: "pref",
    SKOS_ALT_LABEL: "alt",
    SKOS_HIDDEN_LABEL: "hidden",
}
# precedence when one surface maps to several (uri, kind) entries:
# pref > alt > hidden, then lexicographic uri (deterministic, D5-style)
_KIND_RANK = {"pref": 0, "alt": 1, "hidden": 2}


# per worker process: slot -> (ref hex, object built from that ref)
_BUILT: dict[str, tuple[str, object]] = {}


def built_once(slot: str, ref, build):
    """``build(ray.get(ref))``, built once per process for the latest
    ref of ``slot``: a task that gets the broadcast ref the process's
    previous task got reuses its object, and a new ref replaces it (the
    slot keeps one). A plain value (tests) is built on every call."""
    import ray

    if not isinstance(ref, ray.ObjectRef):
        return build(ref)
    key = ref.hex()
    hit = _BUILT.get(slot)
    if hit is None or hit[0] != key:
        hit = _BUILT[slot] = (key, build(ray.get(ref)))
    return hit[1]


def build_label_index(vocab_triples: pa.Table) -> dict[str, tuple[str, str]]:
    """norm_surface -> (concept_uri, label_kind), highest-precedence wins.

    The vocabulary is dimension-sized (≪ corpus); this runs on the
    driver over an Arrow table and the result is broadcast via
    ``ray.put``. For a vocabulary too big for one machine, shard this
    dict by ``hash(surface) % n_shards`` and give each actor its shard.
    """
    best: dict[str, tuple[int, str, str]] = {}
    preds = vocab_triples["pred"].to_pylist()
    subjs = vocab_triples["subj"].to_pylist()
    objs = vocab_triples["obj"].to_pylist()
    for subj, pred, obj in zip(subjs, preds, objs):
        kind = _LABEL_KIND.get(pred)
        if kind is None or not obj:
            continue
        norm = normalize_surface(obj)
        rank = _KIND_RANK[kind]
        cur = best.get(norm)
        if cur is None or (rank, subj) < (cur[0], cur[1]):
            best[norm] = (rank, subj, kind)
    return {norm: (uri, kind) for norm, (_r, uri, kind) in best.items()}


class _TokenAC:
    """Aho-Corasick automaton over a *token* alphabet.

    Patterns are normalized label surfaces (single-space separated, so
    their tokens are exactly ``surface.split(" ")``). ``scan_best``
    returns, for each token position, the longest pattern starting
    there — which is exactly what the greedy longest-match-first
    linking semantics consume. Pure stdlib dict-of-dicts goto/fail;
    built once per process per index ref in ``LinkerStage._resolve``.
    """

    __slots__ = ("goto", "fail", "term", "out_link", "patterns")

    def __init__(self, index: dict[str, tuple[str, str]]):
        goto: list[dict[str, int]] = [{}]
        term: list[int] = [-1]
        # patterns[pid] = (surface, uri, kind, n_tokens)
        patterns: list[tuple[str, str, str, int]] = []
        for surface, (uri, kind) in index.items():
            toks = surface.split(" ")
            node = 0
            for t in toks:
                nxt = goto[node].get(t)
                if nxt is None:
                    nxt = len(goto)
                    goto[node][t] = nxt
                    goto.append({})
                    term.append(-1)
                node = nxt
            term[node] = len(patterns)
            patterns.append((surface, uri, kind, len(toks)))
        fail = [0] * len(goto)
        # nearest proper-suffix state that is terminal (-1 if none)
        out_link = [-1] * len(goto)
        q = deque(goto[0].values())
        while q:
            u = q.popleft()
            fu = fail[u]
            out_link[u] = fu if term[fu] >= 0 else out_link[fu]
            for tok, v in goto[u].items():
                f = fu
                while f and tok not in goto[f]:
                    f = fail[f]
                fail[v] = goto[f].get(tok, 0)
                q.append(v)
        self.goto = goto
        self.fail = fail
        self.term = term
        self.out_link = out_link
        self.patterns = patterns

    def scan_best(self, tokens: list[str]) -> dict[int, int]:
        """start token index -> pattern id of the LONGEST match there."""
        goto, fail, term, out_link, patterns = (
            self.goto, self.fail, self.term, self.out_link, self.patterns)
        best: dict[int, int] = {}
        node = 0
        for j, tok in enumerate(tokens):
            while node and tok not in goto[node]:
                node = fail[node]
            node = goto[node].get(tok, 0)
            u = node if term[node] >= 0 else out_link[node]
            while u >= 0:
                pid = term[u]
                start = j - patterns[pid][3] + 1
                cur = best.get(start)
                if cur is None or patterns[pid][3] > patterns[cur][3]:
                    best[start] = pid
                u = out_link[u]
        return best


def _linker_state(index: dict[str, tuple[str, str]]) -> tuple:
    """A resolved label index -> (automaton, scorer): the automaton
    build is O(total label tokens), and the T3 stateful
    scorer's numpy-MLP artifact loads here too (the
    model-load-per-actor slot; per batch it is one matmul over the
    candidate feature matrix)."""
    from ..models import MentionScorer

    return _TokenAC(index), MentionScorer()


class LinkerStage:
    """Actor-pool stage: documents batch -> mentions batch.

    Use as ``docs.map_batches(LinkerStage, fn_constructor_args=(index_ref,),
    batch_format="pyarrow", concurrency=N, batch_size=B)``.
    ``index_ref`` may be a ``ray.ObjectRef`` (broadcast) or a plain dict
    (tests). A pickled copy (task use) carries only the ref; the
    index's automaton and the scorer come from the process's
    ``built_once`` slot, so they are built once per process per ref.
    """

    def __init__(self, index_ref):
        self._ref = index_ref
        self._resolved = False

    def _resolve(self):
        self.ac, self.scorer = built_once(
            "linker", self._ref, _linker_state)
        self._resolved = True

    def __getstate__(self):
        # task-based use: ship only the ObjectRef, resolve per worker
        return {"_ref": self._ref, "_resolved": False}

    def _match_span(self, text: str):
        """All non-overlapping label matches in one span's text.

        Greedy longest-match-first at each token position (a linked
        'New York City' does not also yield 'New York'): one automaton
        pass records the longest pattern starting at every token, then
        a left-to-right walk consumes matched tokens."""
        norm = normalize_surface(text)
        if not norm:
            return [], 0
        tokens = norm.split(" ")
        best = self.ac.scan_best(tokens)
        if not best:
            return [], len(norm)
        patterns = self.ac.patterns
        out = []
        i, n = 0, len(tokens)
        while i < n:
            pid = best.get(i)
            if pid is None:
                i += 1
                continue
            surface, uri, kind, ln = patterns[pid]
            out.append((surface, uri, kind))
            i += ln
        return out, len(norm)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self._resolved:
            self._resolve()
        doc_ids = batch["doc_id"].to_pylist()
        # span texts straight from the flattened list column: null span
        # lists add no rows, and a span's index is its position in its
        # document's run of the (document-ordered) parent indices
        spans = batch["spans"].combine_chunks()
        texts = pc.struct_field(pc.list_flatten(spans), "text").to_pylist()
        parents = pc.list_parent_indices(spans).to_numpy()
        span_idx = np.arange(len(parents)) - np.searchsorted(parents,
                                                             parents)
        rows = {"doc_id": [], "span_idx": [], "surface": [],
                "concept_uri": [], "label_kind": [], "span_len": []}
        for doc, si, text in zip(parents.tolist(), span_idx.tolist(),
                                 texts):
            if not text:
                continue
            matches, norm_len = self._match_span(text)
            for surface, uri, kind in matches:
                rows["doc_id"].append(doc_ids[doc])
                rows["span_idx"].append(si)
                rows["surface"].append(surface)
                rows["concept_uri"].append(uri)
                rows["label_kind"].append(kind)
                rows["span_len"].append(norm_len)
        from .. import schemas
        from ..models import mention_features

        scores = self.scorer.predict(mention_features(
            rows["label_kind"], rows["surface"], rows["span_len"]))
        return pa.table(
            {
                "doc_id": pa.array(rows["doc_id"], pa.string()),
                "span_idx": pa.array(rows["span_idx"], pa.int32()),
                "surface": pa.array(rows["surface"], pa.string()),
                "concept_uri": pa.array(rows["concept_uri"], pa.string()),
                "label_kind": pa.array(rows["label_kind"], pa.string()),
                "score": pa.array(scores, pa.float32()),
            },
            schema=schemas.MENTIONS,
        )


def link_documents(docs_ds, index_ref, *, concurrency=4,
                   batch_size: int = 1024):
    """documents Dataset -> mentions Dataset.

    ``concurrency=None`` runs the linker as elastic TASKS: the index
    rides as an ObjectRef, and each worker process resolves it and
    builds its automaton once (``built_once``), not once per task —
    right when the index is broadcast-cheap (small vocabularies), and lets
    the streaming executor use every CPU (a fixed/autoscaling actor
    pool measurably underutilizes: 9 of 16 cores busy in the scaling
    trace). An int/tuple keeps the classic actor pool — right when
    index build/deserialization is expensive (multi-GB label shards).
    """
    if concurrency is None:
        return docs_ds.map_batches(
            LinkerStage(index_ref),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return docs_ds.map_batches(
        LinkerStage,
        fn_constructor_args=(index_ref,),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
