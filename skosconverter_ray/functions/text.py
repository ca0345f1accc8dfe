"""String / URI / markup functions, vectorized over Arrow arrays.

Re-expresses the reference's per-string helpers (SURVEY.md §2.8) as
pyarrow.compute kernels, so the table kernels run without Python-object
rows: XML escaping (skos_converter.py:1162-1170), URI-tail label
fallback (394, 434), id sanitization (1193, 1236), plus the one escape
rule of each text format the writers emit (CSV fields, N-Triples /
Turtle literals, Markdown lines, JSON strings) and the join of a column
into one text.
Scalar helpers remain where a parser works one string at a time: URI
validation and deterministic minting (72-90, 1464-1482), the RDF
literal unescape of the N-Triples and Turtle readers and the linker's
surface normalization.
"""

from __future__ import annotations

import json
import re
import uuid

import pyarrow as pa
import pyarrow.compute as pc

# Deterministic URI-minting namespace: replaces the reference's
# uuid.uuid4() minting (skos_converter.py:90), which would break
# idempotent distributed retries (SURVEY.md M2). Content-addressed:
# same label -> same URI on every worker, no shared state.
_URI_NS = uuid.uuid5(uuid.NAMESPACE_URL, "skosconverter-ray/uri-mint")


def normalize_fragment(label: str) -> str:
    frag = re.sub(r"[^\w\s-]", "", label).strip()
    return re.sub(r"\s+", "_", frag).lower()


def is_valid_uri(uri: str) -> bool:
    """M7 URI validator (ref skos_converter.py:1464-1482): length >= 3,
    a recognized scheme (http/https/urn/file or any '://' form), and
    constructible as an IRI — no whitespace or angle brackets (the
    practical failure modes of rdflib's URIRef constructor)."""
    if not uri or len(uri) < 3:
        return False
    if not (uri.startswith("http://") or uri.startswith("https://")
            or uri.startswith("urn:") or uri.startswith("file://")
            or "://" in uri):
        return False
    return not any(c.isspace() or c in "<>" for c in uri)


def mint_uri(namespace_uri: str, label: str) -> str:
    """Deterministic URI for a label: fragment if clean, else uuid5."""
    frag = normalize_fragment(label)
    if frag:
        return namespace_uri + frag
    return namespace_uri + str(uuid.uuid5(_URI_NS, label))


def xml_escape_array(strings: pa.Array) -> pa.Array:
    """5-entity XML escape (ref: skos_converter.py:1162-1170).
    '&' first so entity ampersands are not double-escaped."""
    out = pc.replace_substring(strings, "&", "&amp;")
    out = pc.replace_substring(out, "<", "&lt;")
    out = pc.replace_substring(out, ">", "&gt;")
    out = pc.replace_substring(out, '"', "&quot;")
    out = pc.replace_substring(out, "'", "&#39;")
    return out


def uri_tail_array(uris: pa.Array) -> pa.Array:
    """Label-of-last-resort: URI tail after the last '/' or '#'
    (ref: skos_converter.py:394, 434)."""
    return pc.replace_substring_regex(uris, r"^.*[/#]", "")


def sanitize_id_array(uris: pa.Array) -> pa.Array:
    """'/'->'_', '#'->'_' for JSON node ids (ref: 1193, 1236)."""
    out = pc.replace_substring(uris, "/", "_")
    return pc.replace_substring(out, "#", "_")


def normalize_surface(s: str) -> str:
    return re.sub(r"\s+", " ", s.strip().lower())


def concat_array(*parts) -> pa.Array:
    """Element-wise concatenation of string arrays and scalars (null
    where any part is null)."""
    return pc.binary_join_element_wise(*parts, "")


def nonempty_array(strings: pa.Array) -> pa.Array:
    """True where a string is neither null nor empty."""
    return pc.fill_null(pc.not_equal(strings, ""), False)


def csv_field_array(strings: pa.Array) -> pa.Array:
    """CSV fields in the csv module's minimal quoting: a field holding a
    comma, a quote, CR or LF is quoted with its quotes doubled (a bare
    CR/LF would split the record); null writes as an empty field."""
    s = pc.fill_null(strings, "")
    quoted = concat_array('"', pc.replace_substring(s, '"', '""'), '"')
    return pc.if_else(pc.match_substring_regex(s, '[,"\r\n]'), quoted, s)


def rdf_literal_array(values: pa.Array, langs: pa.Array) -> pa.Array:
    """N-Triples / Turtle literal terms: the escaped value in quotes,
    plus ``@lang`` where the tag is non-empty. Backslash first, so the
    escapes added after it are not escaped again."""
    out = values
    for raw, esc in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"),
                     ("\r", "\\r"), ("\t", "\\t")):
        out = pc.replace_substring(out, raw, esc)
    tag = pc.if_else(nonempty_array(langs), concat_array("@", langs), "")
    return concat_array('"', out, '"', tag)


_RDF_ESC = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}
_RDF_ESC_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))",
                         re.DOTALL)


def _rdf_unesc(m: re.Match) -> str:
    if m[3] is None:
        code = int(m[1] or m[2], 16)
        if code > 0x10FFFF:
            raise ValueError(f"escape {m[0]} is past U+10FFFF")
        return chr(code)
    if m[3] not in _RDF_ESC:
        raise ValueError(f"unknown escape {m[0]!r} in an RDF literal")
    return _RDF_ESC[m[3]]


def rdf_unescape(s: str) -> str:
    """One N-Triples / Turtle literal body as written -> its value: the
    inverse of ``rdf_literal_array``'s escape, over the grammar's whole
    escape set (``\\t \\b \\n \\r \\f \\" \\' \\\\``, ``\\uXXXX`` and
    ``\\UXXXXXXXX``). Any other backslash sequence raises ``ValueError``
    naming it, instead of reading back with its backslash."""
    return _RDF_ESC_RE.sub(_rdf_unesc, s) if "\\" in s else s


# Markdown line breaks inside one heading or metadata line, in forms
# CommonMark renders as written: LF as ``<br>`` (a line break), CR as
# ``&#13;``; in a list field (alt labels, joined with ``, ``) a comma
# inside an item is ``&#44;``. A literal ``<br>`` is written
# ``&lt;br>``, and a literal ``&`` followed by ``lt;br>``, ``#13;``,
# ``#44;`` or any of them after one or more ``amp;`` gets one more
# ``amp;``. So every value reads back whole, and any other text
# (``C:\new``, ``\\``, ``&``, ``<b>``) is written and read as it stands.
_MD_AMP_RE = r"&((?:amp;)*(?:lt;br>|#13;|#44;))"
_MD_UNESC_RE = re.compile(r"<br>|&((?:amp;)*)(lt;br>|#13;|#44;)")
_MD_UNESC = {"lt;br>": "<br>", "#13;": "\r", "#44;": ","}


def md_escape_array(strings: pa.Array, *, commas: bool = False) -> pa.Array:
    """Markdown heading and metadata text kept on its one line (see
    ``_MD_AMP_RE``; ``md_unescape`` reads it back); with ``commas``,
    ``,`` is written ``&#44;``, for the items of a list field. The
    ``&`` forms go first, so the ones the later steps write are not
    escaped again."""
    out = pc.replace_substring_regex(strings, _MD_AMP_RE, r"&amp;\1")
    steps = [("<br>", "&lt;br>"), ("\r", "&#13;"), ("\n", "<br>")]
    if commas:
        steps.append((",", "&#44;"))
    for raw, esc in steps:
        out = pc.replace_substring(out, raw, esc)
    return out


def _md_unesc(m: re.Match) -> str:
    if m[0] == "<br>":
        return "\n"
    if m[1]:
        return "&" + m[1][4:] + m[2]
    return _MD_UNESC[m[2]]


def md_unescape(s: str) -> str:
    """The inverse of ``md_escape_array`` on one string."""
    return _MD_UNESC_RE.sub(_md_unesc, s)


# characters N-Triples' IRIREF production excludes (Turtle's too)
_IRI_FORBIDDEN = r'[\x00-\x20<>"{}|^`\\]'


def check_iris(t: pa.Table) -> None:
    """Raise ``ValueError`` naming the first IRI term of a triples
    table (subject, predicate, non-literal object; row by row) that
    holds a character an N-Triples IRI may not, rather than write a
    document that is invalid or reads back as other IRIs."""
    lit = pc.fill_null(t["obj_is_literal"], False)
    terms = [t["subj"], t["pred"], pc.if_else(lit, None, t["obj"])]
    bad = [pc.fill_null(pc.match_substring_regex(c, _IRI_FORBIDDEN), False)
           for c in terms]
    i = pc.index(pc.or_(pc.or_(bad[0], bad[1]), bad[2]), True).as_py()
    if i >= 0:
        iri = next(c[i].as_py() for c, b in zip(terms, bad) if b[i].as_py())
        raise ValueError(f"IRI {iri!r} (triple {i}) holds a character "
                         "that an N-Triples/Turtle IRI may not")


def json_string_array(strings: pa.Array, *,
                      ensure_ascii: bool = False) -> pa.Array:
    """Each string as ``json.dumps`` writes it (quotes included, null as
    ``null``): one encode of the whole column, split on the newline
    separator, which no encoded string can hold."""
    if len(strings) == 0:
        return pa.array([], pa.string())
    text = json.dumps(strings.to_pylist(), ensure_ascii=ensure_ascii,
                      separators=("\n", ":"))
    return pa.array(text[1:-1].split("\n"), pa.string())


def join_text(strings: pa.Array, sep: str) -> str:
    """A string column (no nulls) -> one str, ``sep`` between items."""
    strings = strings.cast(pa.large_string())
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    one = pa.ListArray.from_arrays(pa.array([0, len(strings)], pa.int32()),
                                   strings)
    return pc.binary_join(one, pa.scalar(sep, pa.large_string()))[0].as_py()
