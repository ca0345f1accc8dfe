"""Notion-markdown -> SKOS triples parser (SURVEY.md S3/M3-M7;
reference ``parse_markdown`` + helpers skos_converter.py:1296-1549).

Implements the reference's *documented* reverse semantics — H1 scheme,
H2 top concept (hasTopConcept⇔topConceptOf pair), H3+ child
(broader⇔narrower pair to the heading-stack parent), printed contract
at skos_converter.py:1958-1967 — NOT its shipped behavior, which drops
every concept (defect D2: the ``current_scheme`` rebind at 1373 never
propagates past 1326). Divergences recorded here and in tests:

- D2 fix: concepts attach to the current scheme as documented.
- D3 fix: all three URI spellings parse (``<sub>URI:`` / ``**URI:**``
  accepted by the reference at 1443-1447, plus the writer's own
  ``_URI:_`` form at 995) and parsed URIs are preserved instead of
  minting fresh ones.
- uuid4 minting (90) replaced by deterministic content-addressed
  minting (functions/text.mint_uri) so distributed retries agree.
- Engine extension: ``_Same as:_`` / ``_Related:_`` metadata lines
  (which the reference writes at 996-1002 but never parses back) are
  parsed, so owl:sameAs / skos:related survive a round-trip.
- Engine extension: titles, definitions, alt labels and notations
  read back the writer's line breaks (``<br>`` for LF, ``&#13;`` for
  CR; ``functions.text.md_unescape``), so a multi-line value
  round-trips whole where the reference keeps its first line. Other
  text, backslashes included, reads as written.
- Engine extension: alt labels are split on ``,`` and each read back
  with ``md_unescape``, so a label holding a comma (written
  ``&#44;``) stays one label.
- A bare ``#``-run heading (the writer's ``### `` for an empty title)
  is a heading: it ends the previous concept's metadata, so its
  ``_URI:_`` line cannot replace that concept's URI. With a URI it is
  a concept whose prefLabel is ``""``; without one it names nothing a
  URI could be minted from, and it and its metadata are skipped.

Parser state (the heading stack) is local to ONE document, so parsing
is an embarrassingly parallel ``map_batches`` over (doc_id, text) rows.
"""

from __future__ import annotations

import re

import pyarrow as pa

from .. import schemas
from ..config import (
    OWL_SAME_AS,
    RDF_TYPE,
    SKOS_ALT_LABEL,
    SKOS_BROADER,
    SKOS_CONCEPT,
    SKOS_CONCEPT_SCHEME,
    SKOS_DEFINITION,
    SKOS_HAS_TOP_CONCEPT,
    SKOS_IN_SCHEME,
    SKOS_NARROWER,
    SKOS_NOTATION,
    SKOS_PREF_LABEL,
    SKOS_RELATED,
    SKOS_TOP_CONCEPT_OF,
)
from ..functions.text import is_valid_uri, md_unescape, mint_uri

# provenance predicate recording a rejected source URI (M7): the
# reference logs "Skipping invalid URI" (1453) and mints; the engine
# keeps the evidence as a queryable triple on the minted subject
PRED_INVALID_SOURCE_URI = \
    "http://skosconverter-ray.example.org/ns#invalidSourceUri"

_HEADING_RE = re.compile(r"^(#+)(?:\s+(.*?))?\s*$")
_TITLE_PREFIX_RE = re.compile(r"^[\s▸▹◦📂📁📄]+")
_URI_FORMS = (
    re.compile(r"^_URI:_\s*<?([^>\s]+)>?"),
    re.compile(r"^\*\*URI:\*\*\s*<?([^>\s]+)>?"),
    re.compile(r"^<sub>URI:\s*<?([^<>\s]+)>?"),
)
_META_RE = re.compile(r"^(?:_([^_]+):_|\*\*([^*]+):\*\*)\s*(.*?)\s*$")
_URI_LIST_RE = re.compile(r"<([^>]+)>")

# placeholder definition injected by the reference (1520-1522)
LOREM = "Lorem ipsum"


def _clean_title(t: str) -> str:
    return _TITLE_PREFIX_RE.sub("", t).strip()


def _skip_section(t: str) -> bool:
    return (t.startswith("[") and t.endswith("]")) or \
        t.startswith("Other Concepts") or t.startswith("Unassigned Concepts")


def parse_markdown_doc(text: str, namespace: str) -> list[tuple]:
    """One markdown document -> list of triple tuples
    (subj, pred, obj, obj_is_literal, lang)."""
    out: list[tuple] = []

    def add(s, p, o, lit=False, lang=None):
        out.append((s, p, o, lit, lang))

    lines = text.splitlines()
    scheme_uri = None
    # stack of (heading_level, uri) for broader/narrower attachment
    stack: list[tuple[int, str]] = []
    i, n = 0, len(lines)
    while i < n:
        m = _HEADING_RE.match(lines[i])
        if not m:
            i += 1
            continue
        level = len(m.group(1))
        title = md_unescape(_clean_title(m.group(2) or ""))
        if _skip_section(title):
            i += 1
            continue
        # look-ahead metadata scan until the next heading (ref 1397-1462)
        meta = {"definition": None, "alt": [], "notation": None,
                "uri": None, "invalid_uri": None,
                "same_as": [], "related": []}
        j = i + 1
        while j < n and not _HEADING_RE.match(lines[j]):
            line = lines[j].strip()
            for rx in _URI_FORMS:
                um = rx.match(line)
                if um:
                    cand = um.group(1)
                    # M7 (ref 1450-1453): malformed URIs never enter
                    # the graph — fall through to deterministic mint
                    # and record the rejected text as provenance
                    if cand and cand != "None" and is_valid_uri(cand):
                        meta["uri"] = cand
                    elif cand and cand != "None":
                        meta["invalid_uri"] = cand
                    break
            else:
                mm = _META_RE.match(line)
                if mm:
                    field = (mm.group(1) or mm.group(2)).strip().lower()
                    val = mm.group(3).strip()
                    if field == "definition":
                        meta["definition"] = md_unescape(val)
                    elif field == "alternative labels":
                        meta["alt"] = [md_unescape(a.strip())
                                       for a in val.split(",")
                                       if a.strip() and a.strip() != "None"]
                    elif field == "notation":
                        meta["notation"] = md_unescape(
                            val.strip("`").strip())
                    elif field == "same as":
                        meta["same_as"] = _URI_LIST_RE.findall(val)
                    elif field == "related":
                        meta["related"] = _URI_LIST_RE.findall(val)
            j += 1

        if not title and meta["uri"] is None:
            i = j
            continue
        if level == 1:
            # scheme (ref _process_concept_scheme 1484-1502)
            scheme_uri = meta["uri"] or mint_uri(namespace, title)
            add(scheme_uri, RDF_TYPE, SKOS_CONCEPT_SCHEME)
            add(scheme_uri, SKOS_PREF_LABEL, title, True, "en")
            if meta["invalid_uri"]:
                add(scheme_uri, PRED_INVALID_SOURCE_URI,
                    meta["invalid_uri"], True)
            stack = []
        elif scheme_uri is not None:
            # concept (ref _process_concept 1504-1549, D2-fixed)
            uri = meta["uri"] or mint_uri(namespace, title)
            add(uri, RDF_TYPE, SKOS_CONCEPT)
            add(uri, SKOS_PREF_LABEL, title, True, "en")
            if meta["invalid_uri"]:
                add(uri, PRED_INVALID_SOURCE_URI, meta["invalid_uri"], True)
            add(uri, SKOS_IN_SCHEME, scheme_uri)
            add(uri, SKOS_DEFINITION, meta["definition"] or LOREM, True, "en")
            for a in meta["alt"]:
                add(uri, SKOS_ALT_LABEL, a, True, "en")
            if meta["notation"]:
                add(uri, SKOS_NOTATION, meta["notation"], True)
            for sa in meta["same_as"]:
                add(uri, OWL_SAME_AS, sa)
            for rel in meta["related"]:
                add(uri, SKOS_RELATED, rel)
            while stack and stack[-1][0] >= level:
                stack.pop()
            if level == 2 or not stack:
                # top concept: inverse pair (ref 1540-1541)
                add(scheme_uri, SKOS_HAS_TOP_CONCEPT, uri)
                add(uri, SKOS_TOP_CONCEPT_OF, scheme_uri)
            else:
                parent = stack[-1][1]
                add(uri, SKOS_BROADER, parent)
                add(parent, SKOS_NARROWER, uri)
            stack.append((level, uri))
        # else: concept before any scheme -> skipped (warn branch
        # 1378-1381; the one reference behavior D2 makes universal)
        i = j
    return out


def parse_markdown_dataset(docs_ds, namespace: str,
                           id_col: str = "doc_id", text_col: str = "text"):
    """Dataset of (doc_id, markdown text) -> triples Dataset."""

    def parse(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            schemas.triples_table(parse_markdown_doc(text or "", namespace),
                                  str(doc_id))
            for doc_id, text in zip(batch[id_col].to_pylist(),
                                    batch[text_col].to_pylist())
        ] + [schemas.TRIPLES.empty_table()])

    return docs_ds.map_batches(parse, batch_format="pyarrow")
