"""Batched mention detection + SKOS-aware entity linking (graft T2/J6).

Reference analogue: the exact-string ``label_to_uri`` memo
(skos_converter.py:70, 83-92) and the label getter chain (420-451),
generalized to prefLabel / altLabel / hiddenLabel lexical matching over
document span text.

Ray shape: the label index is the *small side* — built once from the
vocabulary triples, ``ray.put`` into the object store (broadcast join,
never a shuffle), and resolved once per worker process per ref
(``built_once``): the first batch a process links against a ref gets
the index and builds its token trie (``_LabelTrie``), later tasks and
actors of that process reuse them.

Matching runs on a whole batch as array kernels, not per token:
- tokens: span texts that are ASCII and free of the separators
  ``\\x1c``-``\\x1f`` are lowered and split by Arrow kernels; the
  rest (non-ASCII text, whose ``lower()`` and ``\\s`` Arrow's ASCII
  kernels do not match) go through ``normalize_surface`` one span at a
  time;
- token ids: one ``index_in`` of the flat tokens against the labels'
  token vocabulary;
- trie walk: level ``n`` advances every live start position by one
  ``np.searchsorted`` over the trie's packed ``node * V + token`` edge
  keys, for at most the longest label's token count, giving the
  longest label that starts at each token;
- greedy pass: a left-to-right walk over the match starts keeps each
  match that no kept one covers.
"""

from __future__ import annotations

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


class _LabelTrie:
    """The label index as a token trie of sorted packed int64 keys.

    Patterns are the index's normalized surfaces, whose tokens are
    exactly ``surface.split(" ")``; ``vocab`` holds their distinct
    tokens, and a token's id is its position there. The edge from
    ``node`` on token id ``t`` is the key ``node * V + t`` (``V`` =
    ``len(vocab)``): ``keys`` is sorted and ``child[k]`` is the node
    key ``keys[k]`` leads to, so one ``np.searchsorted`` advances any
    number of walks by a token. ``term[node]`` is the pattern ending at
    ``node`` (-1 if none); pattern ``p`` is ``surface[p]`` with
    ``n_tokens[p]`` tokens, linking ``uri[p]`` as ``kind[p]``. The
    empty surface (a label that normalizes to nothing) is skipped: no
    span token is empty. Built once per process per index ref
    (``built_once``)."""

    __slots__ = ("vocab", "keys", "child", "term", "n_tokens", "depth",
                 "surface", "uri", "kind")

    def __init__(self, index: dict[str, tuple[str, str]]):
        token_id: dict[str, int] = {}
        edges: dict[tuple[int, int], int] = {}
        term = [-1]
        surface, uri, kind, n_tokens = [], [], [], []
        for text, (u, k) in index.items():
            if not text:
                continue
            toks = text.split(" ")
            node = 0
            for tok in toks:
                edge = (node, token_id.setdefault(tok, len(token_id)))
                node = edges.setdefault(edge, len(term))
                if node == len(term):
                    term.append(-1)
            term[node] = len(surface)
            surface.append(text)
            uri.append(u)
            kind.append(k)
            n_tokens.append(len(toks))
        v = max(len(token_id), 1)
        if len(term) * v > np.iinfo(np.int64).max:
            raise OverflowError(
                f"label trie of {len(term)} nodes over {v} tokens "
                "overflows its int64 edge keys")
        pairs = np.array(list(edges), np.int64).reshape(-1, 2)
        keys = pairs[:, 0] * v + pairs[:, 1]
        order = np.argsort(keys)
        self.vocab = pa.array(list(token_id), pa.string())
        self.keys = keys[order]
        self.child = np.fromiter(edges.values(), np.int64,
                                 len(edges))[order]
        self.term = np.array(term, np.int64)
        self.n_tokens = np.array(n_tokens, np.int64)
        self.depth = max(n_tokens, default=0)
        # object arrays: a take by pattern ids feeds mention_features
        self.surface = np.array(surface, object)
        self.uri = np.array(uri, object)
        self.kind = np.array(kind, object)

    def longest_at(self, tok: np.ndarray, span: np.ndarray) -> np.ndarray:
        """Token ids (-1: in no label) and their span ids -> the
        pattern id of the longest label starting at each token (-1 if
        none). Level ``n`` advances every live start by its ``n``-th
        token in one ``searchsorted``; a start stays live while its
        n-gram stays inside one span and on a trie path, so the loop
        runs at most ``depth`` times over a shrinking set, and a deeper
        terminal overwrites a shallower one."""
        best = np.full(len(tok), -1, np.int64)
        pos = np.flatnonzero(tok >= 0)
        node = np.zeros(len(pos), np.int64)
        v = max(len(self.vocab), 1)
        for n in range(self.depth):
            at = pos + n
            if n:
                live = at < len(tok)
                pos, node, at = pos[live], node[live], at[live]
                live = (span[at] == span[pos]) & (tok[at] >= 0)
                pos, node, at = pos[live], node[live], at[live]
            key = node * v + tok[at]
            k = np.minimum(np.searchsorted(self.keys, key),
                           len(self.keys) - 1)
            live = self.keys[k] == key
            pos, node = pos[live], self.child[k[live]]
            if not len(pos):
                break
            pid = self.term[node]
            done = pid >= 0
            best[pos[done]] = pid[done]
        return best


# a text holding a match takes the Python path: a non-ASCII character,
# or one of the ASCII separators \x1c-\x1f, which Python's ``\s`` and
# ``str.strip`` take as whitespace and Arrow's ASCII split does not
_PYTHON_ONLY = "[^\x00-\x1b\x20-\x7f]"


def _span_tokens(texts: pa.Array) -> tuple[pa.Array, np.ndarray,
                                            np.ndarray]:
    """Span texts -> (flat tokens, span id of each token, code points
    of each token): the tokens of span ``i`` are
    ``normalize_surface(texts[i]).split(" ")`` in order, none for a
    null, empty or blank text. ASCII texts without the separators take
    Arrow's ``ascii_lower`` and whitespace split (dropping the empty
    tokens an edge run leaves), the rest ``normalize_surface`` one
    text at a time."""
    has_text = pc.fill_null(pc.greater(pc.binary_length(texts), 0), False)
    python_only = pc.match_substring_regex(texts, _PYTHON_ONLY)
    fast = pc.and_kleene(has_text, pc.invert(python_only))
    split = pc.ascii_split_whitespace(pc.ascii_lower(texts.filter(fast)))
    tokens = pc.list_flatten(split)
    size = pc.binary_length(tokens).to_numpy()
    span = np.flatnonzero(fast.to_numpy(zero_copy_only=False))[
        pc.list_parent_indices(split).to_numpy()]
    keep = size > 0
    tokens, span, size = tokens.filter(pa.array(keep)), span[keep], size[keep]
    slow = pc.and_kleene(has_text, python_only)
    if not pc.any(slow).as_py():
        return tokens, span, size
    rest, rest_span = [], []
    for i, text in zip(np.flatnonzero(slow.to_numpy(zero_copy_only=False)),
                       texts.filter(slow).to_pylist()):
        norm = normalize_surface(text)
        if norm:
            toks = norm.split(" ")
            rest += toks
            rest_span += [i] * len(toks)
    span = np.concatenate([span, np.array(rest_span, np.int64)])
    size = np.concatenate([size, np.fromiter(map(len, rest), size.dtype,
                                             len(rest))])
    order = np.argsort(span, kind="stable")
    return (pa.concat_arrays([tokens, pa.array(rest, pa.string())])
            .take(order), span[order], size[order])


def _linker_state(index: dict[str, tuple[str, str]]) -> tuple:
    """A resolved label index -> (trie, scorer): the trie build is
    O(total label tokens), and the T3 stateful
    scorer's numpy-MLP artifact loads here too (the
    model-load-per-actor slot; per batch it is one matmul over the
    candidate feature matrix)."""
    from ..models import MentionScorer

    return _LabelTrie(index), MentionScorer()


class LinkerStage:
    """Actor-pool stage: documents batch -> mentions batch.

    Use as ``docs.map_batches(LinkerStage, fn_constructor_args=(index_ref,),
    batch_format="pyarrow", concurrency=N, batch_size=B)``.
    ``index_ref`` may be a ``ray.ObjectRef`` (broadcast) or a plain dict
    (tests). A pickled copy (task use) carries only the ref; the
    index's trie and the scorer come from the process's ``built_once``
    slot, so they are built once per process per ref.

    A batch is linked as whole arrays: its span texts are tokenized at
    once (``_span_tokens``: Arrow kernels for ASCII text, a Python
    ``normalize_surface`` fallback for the rest), the tokens become
    trie token ids in one ``index_in``, ``_LabelTrie.longest_at`` finds
    the longest label at every token, and a greedy left-to-right pass
    over the match starts keeps the non-overlapping ones, longest
    first (a linked 'New York City' does not also yield 'New York').
    """

    def __init__(self, index_ref):
        self._ref = index_ref
        self._resolved = False

    def _resolve(self):
        self.trie, self.scorer = built_once(
            "linker", self._ref, _linker_state)
        self._resolved = True

    def __getstate__(self):
        # task-based use: ship only the ObjectRef, resolve per worker
        return {"_ref": self._ref, "_resolved": False}

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self._resolved:
            self._resolve()
        trie = self.trie
        # span texts straight from the flattened list column: null span
        # lists add no rows, and a span's index is its position in its
        # document's run of the (document-ordered) parent indices
        spans = batch["spans"].combine_chunks()
        texts = pc.struct_field(pc.list_flatten(spans), "text")
        parents = pc.list_parent_indices(spans).to_numpy()
        span_idx = np.arange(len(parents)) - np.searchsorted(parents,
                                                             parents)
        tokens, span, size = _span_tokens(texts)
        tok = pc.index_in(tokens, value_set=trie.vocab).fill_null(-1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        best = trie.longest_at(tok, span)
        # greedy consume: a match is kept unless a kept one covers it
        # (matches never cross a span, so neither does a consume)
        starts = np.flatnonzero(best >= 0)
        ends = starts + trie.n_tokens[best[starts]]
        kept, free = [], 0
        for i, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            if s >= free:
                kept.append(i)
                free = e
        starts = starts[kept]
        pid, sp = best[starts], span[starts]
        # the normalized span's length: its tokens plus single spaces
        n = len(texts)
        span_len = (np.bincount(span, weights=size, minlength=n)
                    + np.bincount(span, minlength=n) - 1)[sp]
        from .. import schemas
        from ..models import mention_features

        scores = self.scorer.predict(mention_features(
            trie.kind[pid], trie.surface[pid], span_len))
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(parents[sp]),
                "span_idx": pa.array(span_idx[sp], pa.int32()),
                "surface": pa.array(trie.surface[pid], pa.string()),
                "concept_uri": pa.array(trie.uri[pid], pa.string()),
                "label_kind": pa.array(trie.kind[pid], pa.string()),
                "score": pa.array(scores, pa.float32()),
            },
            schema=schemas.MENTIONS,
        )


def link_documents(docs_ds, index_ref, *, concurrency=4,
                   batch_size: int = 1024):
    """documents Dataset -> mentions Dataset.

    ``concurrency=None`` runs the linker as elastic TASKS: the index
    rides as an ObjectRef, and each worker process resolves it and
    builds its label trie once (``built_once``), not once per task —
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
