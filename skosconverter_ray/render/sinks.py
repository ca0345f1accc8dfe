"""The four reference sinks — CSV, Markdown, Confluence XML, JSON — as
table kernels over the ordered ``tree_rows`` IR (reference writers:
to_notion_csv 764-888, to_notion_markdown 890-1041, to_xml 1043-1170,
to_notion_json 1172-1280 in skos_converter.py).

Each sink fetches the tree rows once as one Arrow table
(``concepts.table_of``; the rows arrive in ``sort_key`` order, which is
the reference's DFS order) and returns one ``str``. CSV, Markdown and
XML build one line or block per row with Arrow string kernels: an
optional metadata line is null where it is absent and
``binary_join_element_wise(..., null_handling="skip")`` leaves it out.
Each format has one escape rule, in ``functions.text``. The JSON sink
nests children with a stack over the row columns and writes the
indented text itself (``_json_at``). A vocabulary's tree
has one row per concept, so the table and the text are
dimension-sized; the driver holds both.

Format decisions recorded against reference defects:
- Markdown heading depth = tree level + 1 (H1 scheme, H2 top concept,
  H3+ children) so the documented reverse grammar (H1/H2/H3+,
  skos_converter.py:1958-1967) round-trips; metadata order
  Notation→Definition→AltLabels→URI→SameAs→Related (984-1002) with
  two-space soft-breaks on every metadata line except ``_URI:_``
  (quirk at 995, preserved).
- The engine writes ``_URI:_`` and *parses* all three URI spellings
  (``_URI:_``, ``**URI:**``, ``<sub>URI:``) — reference defect D3.
- CSV fields holding a comma, a quote, CR or LF are quoted, so a
  multi-line definition stays one record.
- Markdown titles, definitions, alt labels and notations write LF as
  ``<br>`` and CR as ``&#13;`` (``functions.text.md_escape_array``), so
  a multi-line value renders its line breaks, stays on its one line and
  the parser reads it back whole; the reference writes them verbatim
  and its parser keeps the first line only.
- Alt labels arrive ``schemas.ALT_LABEL_SEP``-joined. CSV, XML and
  Markdown join them with ``, `` as the reference does; Markdown first
  writes a comma inside a label as ``&#44;`` so the parser's split on
  ``,`` gives the label back whole, and JSON lists them one item per
  label (a split of ``, ``-joined text made a label holding ``, ``
  two items).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring

import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..functions.text import (
    concat_array,
    csv_field_array,
    join_text,
    md_escape_array,
    nonempty_array,
    sanitize_id_array,
    xml_escape_array,
)
from ..stages.concepts import table_of

_NULL = pa.scalar(None, pa.string())
# every tree-row column but sort_key: the rows already arrive in its
# order and no sink reads it (half the bytes of a large tree)
_SINK_ROWS = pa.schema([f for f in schemas.TREE_ROWS if f.name != "sort_key"])


def _tree(tree_rows_ds) -> pa.Table:
    return table_of(tree_rows_ds, _SINK_ROWS)


def _only(mask, strings):
    """``strings`` where ``mask`` holds, else null (a skipped line)."""
    return pc.if_else(mask, strings, _NULL)


def _alt_labels(items):
    """``ALT_LABEL_SEP``-joined alt labels as the reference writes them:
    joined with ``, ``."""
    return pc.replace_substring(items, schemas.ALT_LABEL_SEP, ", ")


def _meta(t: pa.Table, col: str, *parts):
    """A metadata line: null (skipped) unless the row has a URI
    (synthetic containers carry no metadata) and ``col`` is set."""
    return _only(pc.and_(nonempty_array(t["uri"]), nonempty_array(t[col])),
                 concat_array(*parts))


# ---------------------------------------------------------------------------
# CSV (S4; golden layout FIXTURES.md §4)
# ---------------------------------------------------------------------------

CSV_HEADER = ["Title", "Parent", "Concept Scheme", "Definition",
              "Alternative Labels", "Notation", "URI", "Level"]


def to_csv_text(tree_rows_ds) -> str:
    t = _tree(tree_rows_ds)
    fields = [concat_array(pc.binary_repeat("  ", t["level"]), t["title"])]
    fields += [t[c] for c in ("parent", "scheme", "definition")]
    fields += [_alt_labels(t["alt_labels"]), t["notation"], t["uri"]]
    fields.append(pc.cast(t["level"], pa.string()))
    lines = pc.binary_join_element_wise(
        *(csv_field_array(f) for f in fields), ",")
    return (",".join(CSV_HEADER) + "\n" + join_text(lines, "\n")
            + ("\n" if t.num_rows else ""))


# ---------------------------------------------------------------------------
# Markdown (S5)
# ---------------------------------------------------------------------------

_MD_PREFIX = pa.array(["", "", "", "", "▸ ", "▹ ", "◦ "])


def md_heading(level, title):
    """Reference heading shape (skos_converter.py:959-973, live code) at
    heading depth ``level``: visual indicators ▸/▹/◦ at depths 4/5/6,
    and a bold-indent fallback past H6 (markdown has no H7)."""
    capped = pc.min_element_wise(level, 6)
    heading = concat_array(pc.binary_repeat("#", capped), " ",
                           _MD_PREFIX.take(capped), title)
    deep = concat_array(pc.binary_repeat("  ", pc.max_element_wise(
        pc.subtract(level, 6), 0)), "**◦ ", title, "**")
    return pc.if_else(pc.greater(level, 6), deep, heading)


def _md_refs(uris):
    """", "-joined URIs -> ``<u1>, <u2>``."""
    return concat_array("<", pc.replace_substring(uris, ", ", ">, <"), ">")


def to_markdown_text(tree_rows_ds) -> str:
    t = _tree(tree_rows_ds)
    has_uri = nonempty_array(t["uri"])

    def esc(col):
        return md_escape_array(t[col])

    blocks = pc.binary_join_element_wise(
        md_heading(pc.add(t["level"], 1), esc("title")), "",
        _meta(t, "notation", "_Notation:_ `", esc("notation"), "`  "),
        _meta(t, "definition", "_Definition:_ ", esc("definition"), "  "),
        _meta(t, "alt_labels", "_Alternative Labels:_ ", _alt_labels(
            md_escape_array(t["alt_labels"], commas=True)), "  "),
        _only(has_uri, concat_array("_URI:_ <", t["uri"], ">")),
        _meta(t, "same_as", "_Same as:_ ", _md_refs(t["same_as"]), "  "),
        _meta(t, "related", "_Related:_ ", _md_refs(t["related"]), "  "),
        _only(has_uri, ""),
        "\n", null_handling="skip")
    return join_text(blocks, "\n").rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# Confluence storage-format XML (S6; ref 1043-1170)
# ---------------------------------------------------------------------------

# URI as collapsible info panel (ref 1125-1133)
_XML_URI_PANEL = (
    '<ac:structured-macro ac:name="info" ac:schema-version="1">\n'
    '<ac:parameter ac:name="title">URI</ac:parameter>\n'
    "<ac:rich-text-body>\n"
    "<p><code>", "</code></p>\n"
    "</ac:rich-text-body>\n"
    "</ac:structured-macro>")


def to_xml_text(tree_rows_ds) -> str:
    """Confluence storage-format envelope (ref 1050-1054): XML
    declaration + expand macro wrapper with title parameter."""
    t = _tree(tree_rows_ds)
    level = pc.add(t["level"], 1)
    title = xml_escape_array(t["title"])
    h = pc.cast(level, pa.string())
    # >h6 bold-indent fallback (ref 1104-1110)
    indent = pc.binary_repeat("&nbsp;", pc.multiply(
        pc.max_element_wise(pc.subtract(level, 6), 0), 4))
    heading = pc.if_else(
        pc.greater(level, 6),
        concat_array("<p>", indent, "<strong>", title, "</strong></p>"),
        concat_array("<h", h, ">", title, "</h", h, ">"))

    def esc(col):
        return xml_escape_array(t[col])

    # metadata order Definition -> Notation -> AltLabels
    # (ref 1113-1123; differs from the markdown order)
    blocks = pc.binary_join_element_wise(
        heading,
        _meta(t, "definition", "<p><em>Definition:</em> ", esc("definition"),
              "</p>"),
        _meta(t, "notation", "<p><em>Notation:</em> <code>", esc("notation"),
              "</code></p>"),
        _meta(t, "alt_labels", "<p><em>Alternative Labels:</em> ",
              xml_escape_array(_alt_labels(t["alt_labels"])), "</p>"),
        _meta(t, "uri", _XML_URI_PANEL[0], esc("uri"), _XML_URI_PANEL[1]),
        "",  # spacing between concepts (ref 1134)
        "\n", null_handling="skip")
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        "<ac:confluence-content>\n"
        '<ac:structured-macro ac:name="expand" ac:schema-version="1">\n'
        '<ac:parameter ac:name="title">SKOS Vocabulary</ac:parameter>\n'
        "<ac:rich-text-body>\n"
        + join_text(blocks, "\n") + "\n"
        "</ac:rich-text-body>\n"
        "</ac:structured-macro>\n"
        "</ac:confluence-content>\n")


# ---------------------------------------------------------------------------
# JSON (S7; ref 1172-1280: nested children AND flat concepts list)
# ---------------------------------------------------------------------------

def to_json_obj(tree_rows_ds) -> dict:
    t = _tree(tree_rows_ds)
    ids = sanitize_id_array(pc.fill_null(t["uri"], ""))
    schemes, flat = [], []
    stack: list[tuple[int, dict]] = []  # (level, node)
    for title, uri, level, definition, alt, notation, id_ in zip(
            *(t[c].to_pylist() for c in ("title", "uri", "level",
                                         "definition", "alt_labels",
                                         "notation")), ids.to_pylist()):
        if not uri and title.startswith("["):
            # container rows reset the stack to their level
            while stack and stack[-1][0] >= level:
                stack.pop()
            continue
        node = {
            "id": id_,
            "title": title,
            "parent_id": "",
            "definition": definition,
            "alternative_labels": [
                s for s in alt.split(schemas.ALT_LABEL_SEP) if s],
            "notation": notation,
            "uri": uri,
            "children": [],
        }
        if level == 0 and title.startswith("[SCHEME]"):
            schemes.append({"id": id_, "title": title[9:], "uri": uri,
                            "children": node["children"]})
            stack = [(0, node)]
            continue
        while stack and stack[-1][0] >= level:
            stack.pop()
        if stack:
            parent = stack[-1][1]
            node["parent_id"] = parent["id"]
            parent["children"].append(node)
        flat.append(dict(node))
        stack.append((level, node))
    return {"vocabulary": {"schemes": schemes, "concepts": flat}}


def _json_at(v, level: int, memo: dict) -> str:
    """``v`` as ``json.dumps(indent=2, ensure_ascii=False)`` writes it
    at nesting ``level``. Strings go through the C string encoder, and
    each list is written once (``memo``: object identity -> its text and
    level) however often it is shared: the flat ``concepts`` copies
    share their node's ``children`` list, so each subtree's text is
    built once and only re-indented for the copy (``_reindent``)."""
    if isinstance(v, str):
        return encode_basestring(v)
    if isinstance(v, dict):
        items = [encode_basestring(k) + ": " + (
            encode_basestring(x) if isinstance(x, str)
            else _json_at(x, level + 1, memo)) for k, x in v.items()]
        return _json_block("{}", items, level)
    if isinstance(v, list):
        if id(v) in memo:
            text, at = memo[id(v)]
            return _reindent(text, level - at)
        text = _json_block("[]", [_json_at(x, level + 1, memo) for x in v],
                           level)
        memo[id(v)] = text, level
        return text
    return json.dumps(v)


def _json_block(brackets: str, items: list[str], level: int) -> str:
    """Members written at ``level + 1`` -> their bracketed block."""
    if not items:
        return brackets
    pad = "\n" + "  " * level
    return (brackets[0] + pad + "  " + ("," + pad + "  ").join(items)
            + pad + brackets[1])


def _reindent(text: str, by: int) -> str:
    """Written JSON moved ``by`` levels deeper (or shallower when
    negative). Encoded strings hold no raw newline, and every line but
    the first is indented at least as deep as the text's own level, so
    a replace after each newline does it."""
    if by >= 0:
        return text.replace("\n", "\n" + "  " * by)
    return text.replace("\n" + "  " * -by, "\n")


def to_json_text(tree_rows_ds) -> str:
    """``to_json_obj`` as 2-space indented JSON text, byte for byte what
    ``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"`` writes."""
    return _json_at(to_json_obj(tree_rows_ds), 0, {}) + "\n"
