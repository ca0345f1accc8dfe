"""JSON-LD subset reader and writer (SURVEY.md S2/S8; no rdflib, §4.3).

Covers the expanded/compacted shapes SKOS vocabularies ship in
(reference loads via rdflib ``format='json-ld'``,
skos_converter.py:566-582): a top-level node object, a list of nodes,
or ``{"@context": ..., "@graph": [...]}``. Supported term forms:

- ``@context``: prefix -> IRI strings, ``@vocab``, and term
  definitions ``{"@id": ..., "@type": "@id", "@language": ...,
  "@container": "@list", "@context": {...}}`` (scoped contexts merge
  into the active context while processing that term's values)
- node objects: ``@id`` (IRI, curie, or ``_:label`` blank node;
  anonymous nodes get synthesized ``_:genN`` labels), ``@type``
  (string or list), ``@reverse`` maps, property keys (absolute IRI,
  prefixed name, context term, or @vocab-relative term)
- values: plain strings, ``{"@id": ...}`` refs, ``{"@value": ...,
  "@language": ...}`` literals, ``{"@list": [...]}`` collections
  (desugared to rdf:first/rest/nil chains, matching the Turtle
  reader), lists of any of these, and nested node objects (recursed)

Per-document parse, file-parallel — same shape as the Turtle reader.

The writer, ``to_jsonld_text``, is one table kernel over the whole
triples table, fetched once: every object value is encoded as JSON text
with Arrow string kernels, one sort orders the values by (subject, key,
ASCII JSON text), and runs of equal keys are joined into node members,
then into nodes. The result is the document ``json.dumps`` writes for
the expanded-form nodes with sorted keys.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..functions.text import (
    concat_array,
    join_text,
    json_string_array,
    nonempty_array,
)
from ..stages.concepts import table_of

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDF_TYPE = _RDF_NS + "type"
_RDF_FIRST, _RDF_REST, _RDF_NIL = (_RDF_NS + "first", _RDF_NS + "rest",
                                   _RDF_NS + "nil")


def _build_context(ctx) -> dict:
    """context -> {term: (iri, is_ref, scoped_ctx_or_None)} plus the
    special key ``"@vocab"`` -> (iri, False, None)."""
    out: dict[str, tuple[str, bool, dict | None]] = {}
    if isinstance(ctx, list):
        for c in ctx:
            out.update(_build_context(c))
        return out
    if not isinstance(ctx, dict):
        return out
    for term, spec in ctx.items():
        if term == "@vocab" and isinstance(spec, str):
            out["@vocab"] = (spec, False, None)
            continue
        if term.startswith("@"):
            continue
        if isinstance(spec, str):
            out[term] = (spec, False, None)
        elif isinstance(spec, dict) and ("@id" in spec or "@context" in spec):
            iri = spec.get("@id", term)
            out[term] = (iri, spec.get("@type") == "@id",
                         spec.get("@context"))
    return out


def _expand_key(key: str, ctx: dict) -> str | None:
    if key.startswith("@"):
        return None
    if key in ctx:
        return _expand_ref(ctx[key][0], ctx) if ":" in ctx[key][0] \
            else ctx[key][0]
    if ":" in key:
        pfx, local = key.split(":", 1)
        if pfx in ctx and not local.startswith("//"):
            return ctx[pfx][0] + local
        return key  # absolute IRI (http://...) or unknown curie as-is
    vocab = ctx.get("@vocab")
    if vocab is not None:
        return vocab[0] + key
    return None  # bare term with no context entry: skip


def _expand_ref(val: str, ctx: dict) -> str:
    if ":" in val:
        pfx, local = val.split(":", 1)
        if pfx in ctx and not local.startswith("//"):
            return ctx[pfx][0] + local
    return val


class _Parser:
    """One document's parse state: blank-node counter + triple sink."""

    def __init__(self, bnode_prefix: str):
        self.bnode_prefix = bnode_prefix
        self.triples: list[tuple] = []
        self._gen = iter(range(1 << 30))

    def new_bnode(self) -> str:
        return f"{self.bnode_prefix}gen{next(self._gen)}"

    def node_id(self, raw: str | None, ctx: dict) -> str:
        if raw is None:
            return self.new_bnode()
        if raw.startswith("_:"):
            return self.bnode_prefix + raw[2:]
        return _expand_ref(raw, ctx)

    def value_term(self, v, ctx: dict, is_ref_term: bool):
        """One (non-@list) value -> (obj, is_literal, lang) or None."""
        if isinstance(v, dict):
            if "@value" in v:
                return (str(v["@value"]), True, v.get("@language"))
            if "@id" in v and len(v) == 1:
                return (self.node_id(v["@id"], ctx), False, None)
            if "@list" in v:
                return (self.emit_list(v["@list"], ctx, is_ref_term),
                        False, None)
            child = self.walk_node(v, ctx)  # nested node object
            return (child, False, None) if child is not None else None
        if isinstance(v, str):
            if is_ref_term:
                return (self.node_id(v, ctx), False, None)
            return (v, True, None)
        if isinstance(v, (int, float, bool)):
            return (json.dumps(v), True, None)
        return None

    def emit_list(self, items: list, ctx: dict, is_ref_term: bool) -> str:
        """@list -> rdf:first/rest chain; returns the head term
        (rdf:nil for the empty list) — same desugaring as the Turtle
        reader's ``(...)`` collections (sources/turtle.py:203-209)."""
        terms = [t for t in (self.value_term(i, ctx, is_ref_term)
                             for i in items) if t is not None]
        if not terms:
            return _RDF_NIL
        cells = [self.new_bnode() for _ in terms]
        for i, (obj, is_lit, lang) in enumerate(terms):
            self.triples.append((cells[i], _RDF_FIRST, obj, is_lit, lang))
            rest = cells[i + 1] if i + 1 < len(terms) else _RDF_NIL
            self.triples.append((cells[i], _RDF_REST, rest, False, None))
        return cells[0]

    def walk_node(self, node: dict, ctx: dict) -> str | None:
        if "@context" in node:  # node-level nested context
            ctx = {**ctx, **_build_context(node["@context"])}
        subj = self.node_id(node.get("@id"), ctx)
        for key, val in node.items():
            if key == "@type":
                for t in (val if isinstance(val, list) else [val]):
                    self.triples.append(
                        (subj, _RDF_TYPE, _expand_ref(t, ctx), False, None))
                continue
            if key == "@reverse":
                if isinstance(val, dict):
                    self.walk_reverse(subj, val, ctx)
                continue
            pred = _expand_key(key, ctx)
            if pred is None:
                continue
            entry = ctx.get(key)
            is_ref_term = entry is not None and entry[1]
            # scoped context: active while processing this term's values
            vctx = ({**ctx, **_build_context(entry[2])}
                    if entry is not None and entry[2] else ctx)
            for v in (val if isinstance(val, list) else [val]):
                term = self.value_term(v, vctx, is_ref_term)
                if term is not None:
                    self.triples.append((subj, pred) + term)
        return subj

    def walk_reverse(self, subj: str, rev: dict, ctx: dict):
        """@reverse: {pred: nodes} emits (node, pred, subj)."""
        for key, val in rev.items():
            pred = _expand_key(key, ctx)
            if pred is None:
                continue
            for v in (val if isinstance(val, list) else [val]):
                if isinstance(v, dict):
                    other = (self.node_id(v["@id"], ctx)
                             if set(v) == {"@id"} else self.walk_node(v, ctx))
                elif isinstance(v, str):
                    other = self.node_id(v, ctx)
                else:
                    other = None
                if other is not None:
                    self.triples.append((other, pred, subj, False, None))


def parse_jsonld_doc(text: str, *, bnode_prefix: str = "_:") -> list[tuple]:
    """One JSON-LD document -> [(subj, pred, obj, is_literal, lang)].

    Blank nodes (explicit ``_:label`` and synthesized anonymous-node /
    @list cells) get ``bnode_prefix`` prepended — callers that union
    many files pass a per-document prefix so labels never collide."""
    data = json.loads(text)
    ctx: dict = {}
    nodes: list
    if isinstance(data, dict):
        ctx = _build_context(data.get("@context"))
        if "@graph" in data:
            nodes = data["@graph"]
        else:
            nodes = [data]
    elif isinstance(data, list):
        nodes = data
    else:
        raise ValueError("top-level JSON-LD must be object or array")
    p = _Parser(bnode_prefix)
    for node in nodes:
        if isinstance(node, dict):
            p.walk_node(node, ctx)
    return p.triples


def parse_jsonld_dataset(docs_ds, *, text_col: str = "text",
                         id_col: str = "doc_id"):
    """(doc_id, text) Dataset of JSON-LD docs -> triples Dataset
    (per-file continue-on-error, like the Turtle reader)."""

    def parse(batch: pa.Table) -> pa.Table:
        import logging

        tables = []
        for doc_id, text in zip(batch[id_col].to_pylist(),
                                batch[text_col].to_pylist()):
            try:
                tables.append(schemas.triples_table(
                    parse_jsonld_doc(text or "",
                                     bnode_prefix=f"_:{doc_id}#"),
                    doc_id))
            except (ValueError, json.JSONDecodeError) as e:
                logging.getLogger(__name__).warning(
                    "json-ld parse failed for %s: %s", doc_id, e)
        if not tables:
            return schemas.TRIPLES.empty_table()
        return pa.concat_tables(tables)

    return docs_ds.map_batches(parse, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# JSON-LD writer (S8 symmetry: the engine reads AND writes every RDF
# format it supports; reference serializes via rdflib,
# skos_converter.py:566-582)
# ---------------------------------------------------------------------------

def _joined(t: pa.Table, keys: list[str], text: str) -> pa.Table:
    """Rows sorted by ``keys`` -> one row per run of equal ``keys``,
    holding the run's ``text`` values joined by ", " as ``joined``."""
    starts = np.zeros(t.num_rows, bool)
    starts[:1] = True
    for k in keys:
        starts[1:] |= pc.not_equal(t[k][1:], t[k][:-1]).to_numpy()
    first = np.flatnonzero(starts)
    runs = pa.ListArray.from_arrays(
        pa.array(np.append(first, t.num_rows), pa.int32()),
        t[text].combine_chunks())
    return t.select(keys).take(first).append_column(
        "joined", pc.binary_join(runs, ", "))


def _value_json(is_type, tagged, lit, obj, lang, *, ascii_order: bool):
    """JSON text of each object value: the bare IRI string for @type,
    else ``{"@id": ...}`` / ``{"@value": ...[, "@language": ...]}``.
    Written with sorted keys; ``ascii_order`` gives the text the
    values are ordered by instead (ASCII escapes, insertion order)."""
    cat = concat_array
    with_lang = (cat('{"@value": ', obj, ', "@language": ', lang, "}")
                 if ascii_order else
                 cat('{"@language": ', lang, ', "@value": ', obj, "}"))
    return pc.if_else(is_type, obj, pc.if_else(tagged, with_lang, pc.if_else(
        lit, cat('{"@value": ', obj, "}"), cat('{"@id": ', obj, "}"))))


def to_jsonld_text(triples_ds) -> str:
    """triples Dataset -> one expanded-form JSON-LD document string
    (``{"@graph": [...]}``) as one table kernel: one node per subject,
    nodes ordered by @id, a node's keys sorted, each key's values in
    the order of their ASCII JSON text, duplicates kept. Non-literal
    rdf:type objects form ``@type``."""
    t = table_of(triples_ds, schemas.TRIPLE_TERMS)
    lit = pc.fill_null(t["obj_is_literal"], False)
    tagged = pc.and_(lit, nonempty_array(t["lang"]))
    is_type = pc.and_(pc.equal(t["pred"], _RDF_TYPE), pc.invert(lit))
    value, order = (
        _value_json(is_type, tagged, lit,
                    json_string_array(t["obj"], ensure_ascii=a),
                    json_string_array(t["lang"], ensure_ascii=a),
                    ascii_order=a)
        for a in (False, True))
    rows = pa.table({"subj": t["subj"],
                     "key": pc.if_else(is_type, "@type", t["pred"]),
                     "order": order, "value": value}).sort_by(
        [("subj", "ascending"), ("key", "ascending"), ("order", "ascending")])
    keyed = _joined(rows, ["subj", "key"], "value")
    subjects = pc.unique(rows["subj"])
    members = pa.concat_tables([
        pa.table({"subj": keyed["subj"], "key": keyed["key"],
                  "member": concat_array(json_string_array(keyed["key"]),
                                         ": [", keyed["joined"], "]")}),
        pa.table({"subj": subjects,
                  "key": pa.array(["@id"] * len(subjects), pa.string()),
                  "member": concat_array('"@id": ',
                                         json_string_array(subjects))}),
    ]).sort_by([("subj", "ascending"), ("key", "ascending")])
    nodes = _joined(members, ["subj"], "member")
    body = join_text(concat_array("{", nodes["joined"], "}"), ",\n")
    return '{"@graph": [\n' + body + "\n]}\n"
