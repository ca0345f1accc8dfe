"""Turtle subset reader and writer (SURVEY.md S1/S8; no rdflib, §4.3).

Covers what SKOS vocabularies in the wild and the reference's own
serializer produce (skos_converter.py:548-564 reads via rdflib;
1551-1583 writes rdflib turtle): ``@prefix``/``PREFIX`` declarations,
prefixed names, ``a`` for rdf:type, ``;`` predicate lists, ``,`` object
lists, plain/long literals with optional ``@lang`` tags, comments.
Datatyped literals keep their lexical form (the reference never reads
datatypes).

Parallelism shape: Turtle is stateful per FILE (prefix table +
statement continuations), so the file is the parallel unit — exactly
the reference's batch-directory granularity (S9). ``read_turtle``
starts one task per file, which reads, decodes and parses it and
returns one triples block with its metadata; the CLI reads each file
of a ``--batch-dir`` with its own call, so each of its calls starts
one task.
``parse_turtle_dataset`` parses a (doc_id, text) Dataset per batch with
the same per-file kernel. The writer is one table kernel over the whole
triples table.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc
import ray

from .. import schemas
from ..functions.text import (check_iris, concat_array, join_text,
                              rdf_literal_array, rdf_unescape)
from ..stages.concepts import table_of

_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_PREFIX_RE = re.compile(
    r"^\s*@?[Pp][Rr][Ee][Ff][Ii][Xx]\s+([A-Za-z0-9_-]*):\s*<([^>]*)>\s*\.?\s*$")
_BASE_RE = re.compile(r"^\s*@?[Bb][Aa][Ss][Ee]\s+<([^>]*)>\s*\.?\s*$")

# one term at the head of the remaining text
_TERM_RE = re.compile(
    r"""\s*(?:
        <(?P<uri>[^>]*)>
      | (?P<a>a)(?=[\s;,.\])])
      | _:(?P<bnode>[A-Za-z0-9_][A-Za-z0-9_.-]*)
      | (?P<bool>true|false)(?=[\s;,.\])])
      | (?P<num>[+-]?(?:\d*\.\d+|\d+)(?:[eE][+-]?\d+)?)(?=[\s;,\])]|\.\s|\.$)
      | (?P<pfx>[A-Za-z][A-Za-z0-9_.-]*)?:(?P<local>[A-Za-z0-9_.%-]*)
      | \"\"\"(?P<long>(?:[^"\\]|\\.|"(?!""))*)\"\"\"
      | \"(?P<lit>(?:[^"\\]|\\.)*)\"
    )
    (?:\^\^(?:<[^>]*>|[A-Za-z][A-Za-z0-9_.-]*:[A-Za-z0-9_.-]*))?
    (?:@(?P<lang>[A-Za-z0-9-]+))?
    """, re.VERBOSE | re.DOTALL)

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDF_FIRST, _RDF_REST, _RDF_NIL = (_RDF_NS + "first", _RDF_NS + "rest",
                                   _RDF_NS + "nil")

# One token of the comment scan, matched where the text is outside any
# literal or IRI: a long literal (to its closing triple quote or the end
# of the text; it may span lines), a short literal (to its quote or the
# end of its line), an IRI (to '>' or the end of its line), or a '#'
# comment. A backslash escapes the next character inside both kinds of
# literal. Every token but the comment is group 1, so ``\1`` drops only
# comments. No token can fail once its first character matched, so the
# nested repeats never backtrack more than one step.
_COMMENT_SCAN_RE = re.compile(r'''
    (  """(?:[^"\\]+|\\.?|"(?!""))*(?:"""|\Z)
     | "(?:[^"\\\n]+|\\.?)*(?:["\n]|\Z)
     | <[^>\n]*(?:[>\n]|\Z)
    )
    | \#[^\n]*
    ''', re.VERBOSE | re.DOTALL)


def _strip_comments(text: str) -> str:
    """Drop # comments outside quoted literals AND <...> IRIs (most
    namespace IRIs end in '#').

    Quote state persists ACROSS lines: a ``\"\"\"long literal\"\"\"``
    may span newlines, and a '#' inside it is literal text — the old
    per-line scan silently truncated such literals, violating the
    parser's loud-error-over-silent-loss policy. Single-quoted
    literals reset at end-of-line (an unterminated quote is a syntax
    error the term parser will surface). One ``re.sub`` pass of
    ``_COMMENT_SCAN_RE``."""
    return _COMMENT_SCAN_RE.sub(r"\1", text)


def parse_turtle_doc(text: str, *, bnode_prefix: str = "_:") -> list[tuple]:
    """One Turtle document -> [(subj, pred, obj, is_literal, lang)].

    Recursive descent over statements. Blank nodes are first-class
    (rdflib reads them for the reference, skos_converter.py:548-564):
    labels ``_:name`` keep their label, anonymous ``[ p o ; ... ]``
    property lists mint ``genN`` nodes, ``( a b c )`` collections
    desugar to rdf:first/rdf:rest/rdf:nil chains. All blank-node ids
    get ``bnode_prefix`` prepended — callers that union many files
    pass a per-document prefix so graph-scoped labels can never
    collide across files. Numeric and boolean literals parse as plain
    literals (lexical form kept, like datatyped strings). Anything
    else still raises ValueError — a loud per-file error record over
    silent triple loss.
    """
    prefixes: dict[str, str] = {}
    triples: list[tuple] = []
    body_lines = []
    for line in _strip_comments(text).splitlines():
        m = _PREFIX_RE.match(line)
        if m:
            prefixes[m.group(1)] = m.group(2)
            continue
        if _BASE_RE.match(line):
            continue
        body_lines.append(line)
    body = "\n".join(body_lines)
    n = len(body)
    gen = iter(range(1 << 30))

    def new_bnode() -> str:
        return f"{bnode_prefix}gen{next(gen)}"

    def expand(m: re.Match):
        if m["uri"] is not None:
            return ("uri", m["uri"], None)
        if m["a"] is not None:
            return ("uri", _RDF_TYPE, None)
        if m["bnode"] is not None:
            return ("uri", bnode_prefix + m["bnode"], None)
        if m["bool"] is not None:
            return ("lit", m["bool"], None)
        if m["num"] is not None:
            return ("lit", m["num"], None)
        if m["local"] is not None and (m["pfx"] is not None
                                       or ":" in m.group(0)):
            pfx = m["pfx"] or ""
            if pfx not in prefixes:
                raise ValueError(f"undeclared prefix {pfx!r}")
            return ("uri", prefixes[pfx] + m["local"], None)
        lit = m["long"] if m["long"] is not None else m["lit"]
        return ("lit", rdf_unescape(lit), m["lang"])

    def skip_ws(pos: int) -> int:
        while pos < n and body[pos].isspace():
            pos += 1
        return pos

    def parse_node(pos: int, *, as_subject: bool = False):
        """One node (atomic term, [..] property list, (..) collection)
        -> (kind, value, lang, new_pos)."""
        pos = skip_ws(pos)
        if pos < n and body[pos] == "[":
            node = new_bnode()
            pos = skip_ws(pos + 1)
            if pos < n and body[pos] == "]":       # [] — empty bnode
                return ("uri", node, None, pos + 1)
            pos = skip_ws(parse_po_list(node, pos))
            if pos >= n or body[pos] != "]":
                raise ValueError(f"unclosed '[' at offset {pos}: "
                                 f"{body[pos:pos+40]!r}")
            return ("uri", node, None, pos + 1)
        if pos < n and body[pos] == "(":
            pos = skip_ws(pos + 1)
            items: list[tuple] = []
            while pos < n and body[pos] != ")":
                kind, val, lang, pos = parse_node(pos)
                items.append((kind, val, lang))
                pos = skip_ws(pos)
            if pos >= n:
                raise ValueError("unclosed '(' collection")
            pos += 1
            if not items:
                return ("uri", _RDF_NIL, None, pos)
            cells = [new_bnode() for _ in items]
            for i, (kind, val, lang) in enumerate(items):
                triples.append((cells[i], _RDF_FIRST, val,
                                kind == "lit", lang))
                rest = cells[i + 1] if i + 1 < len(items) else _RDF_NIL
                triples.append((cells[i], _RDF_REST, rest, False, None))
            return ("uri", cells[0], None, pos)
        m = _TERM_RE.match(body, pos)
        if not m:
            what = "subject" if as_subject else "object"
            raise ValueError(f"expected {what} at offset {pos}: "
                             f"{body[pos:pos+40]!r}")
        kind, val, lang = expand(m)
        if as_subject and kind == "lit":
            raise ValueError(f"literal subject at offset {pos}: "
                             f"{body[pos:pos+40]!r}")
        return (kind, val, lang, m.end())

    def parse_po_list(subj: str, pos: int) -> int:
        """predicate-object list for ``subj`` until '.', ']' or EOF;
        returns the position of that terminator."""
        while True:
            pos = skip_ws(pos)
            m = _TERM_RE.match(body, pos)
            if not m:
                raise ValueError(f"expected predicate at offset {pos}: "
                                 f"{body[pos:pos+40]!r}")
            pkind, pred, _ = expand(m)
            if pkind == "lit":
                raise ValueError(f"literal predicate at offset {pos}: "
                                 f"{body[pos:pos+40]!r}")
            pos = m.end()
            while True:  # object lists (,)
                okind, obj, lang, pos = parse_node(pos)
                triples.append((subj, pred, obj, okind == "lit", lang))
                pos = skip_ws(pos)
                if pos < n and body[pos] == ",":
                    pos += 1
                    continue
                break
            if pos < n and body[pos] == ";":
                pos = skip_ws(pos + 1)
                if pos < n and body[pos] in ".]":  # trailing ';'
                    return pos
                continue
            return pos

    pos = 0
    while True:
        pos = skip_ws(pos)
        if pos >= n:
            break
        was_anon = pos < n and body[pos] == "["
        kind, subj, _, pos = parse_node(pos, as_subject=True)
        del kind
        pos = skip_ws(pos)
        # '[ p o ] .' as a whole statement: the property list already
        # emitted its triples, a bare '.' may follow immediately
        if not (was_anon and pos < n and body[pos] == "."):
            pos = parse_po_list(subj, pos)
        if pos >= n or body[pos] != ".":
            raise ValueError(f"expected '.' at offset {pos}: "
                             f"{body[pos:pos+40]!r}")
        pos += 1
    return triples


def _parse_docs(doc_ids, texts) -> pa.Table:
    """Turtle documents -> one triples table. Per-file errors become
    zero rows + a warning (batch-directory continue-on-error semantics,
    ref skos_converter.py:497-499)."""
    import logging

    tables = []
    for doc_id, text in zip(doc_ids, texts):
        try:
            # per-document bnode prefix: graph-scoped labels from
            # different files must never collide in the union
            tables.append(schemas.triples_table(
                parse_turtle_doc(text or "", bnode_prefix=f"_:{doc_id}#"),
                doc_id))
        except ValueError as e:
            logging.getLogger(__name__).warning(
                "turtle parse failed for %s: %s", doc_id, e)
    return (pa.concat_tables(tables) if tables
            else schemas.TRIPLES.empty_table())


def parse_turtle_dataset(docs_ds, *, text_col: str = "text",
                         id_col: str = "doc_id"):
    """(doc_id, text) Dataset of Turtle documents -> triples Dataset,
    one ``_parse_docs`` per batch."""
    return docs_ds.map_batches(
        lambda b: _parse_docs(b[id_col].to_pylist(), b[text_col].to_pylist()),
        batch_format="pyarrow")


@ray.remote(num_returns=2)
def _read_file(filesystem, path: str) -> tuple:
    """One Turtle file, read, decoded and parsed in one task -> (triples
    table, its ``block_meta``); the path is the ``doc_id``."""
    from ..stages.shardutil import block_meta

    with filesystem.open_input_stream(path) as f:
        text = f.read().decode("utf-8", "replace")
    t = _parse_docs([path], [text])
    return t, block_meta(t)


def _expand(paths) -> tuple:
    """``(files, filesystem)``: file(s) or directories resolved and
    expanded as ``rd.read_binary_files`` does (Ray Data internals, as
    of ray 2.49.2); a missing path raises ``FileNotFoundError``."""
    from ray.data.datasource.file_meta_provider import _expand_paths
    from ray.data.datasource.path_util import _resolve_paths_and_filesystem

    paths, fs = _resolve_paths_and_filesystem(paths)
    return [path for path, _ in _expand_paths(paths, fs, None)], fs


def read_turtle(paths):
    """Turtle file(s) or directories -> materialized triples Dataset:
    one ``_read_file`` task per file (module docstring), over the files
    ``_expand`` lists."""
    from ..stages.shardutil import blocks_dataset

    files, fs = _expand(paths)
    if not files:
        raise ValueError(f"no files to read under {paths}")
    outs = [_read_file.remote(fs, path) for path in files]
    metas = ray.get([m for _, m in outs])
    # drop the files that parsed to nothing, keeping one block so that
    # an input with no triples still carries the schema
    keep = [i for i, m in enumerate(metas) if m.num_rows] or [0]
    return blocks_dataset([outs[i][0] for i in keep], [metas[i] for i in keep])


# ---------------------------------------------------------------------------
# Turtle writer (S8 — the reference exports turtle via rdflib,
# skos_converter.py:1551-1583)
# ---------------------------------------------------------------------------

_DEFAULT_PREFIXES = {
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "owl": "http://www.w3.org/2002/07/owl#",
}


def _compact(uris: pa.Array, prefixes: dict[str, str]) -> pa.Array:
    """IRI terms: ``pfx:local`` under the first prefix whose namespace
    starts the IRI and leaves a local name of ``[A-Za-z0-9_.-]+``,
    else ``<iri>``."""
    out = concat_array("<", uris, ">")
    for pfx, ns in reversed(prefixes.items()):  # the first match wins
        local = pc.utf8_slice_codeunits(uris, len(ns))
        ok = pc.and_(pc.starts_with(uris, ns),
                     pc.match_substring_regex(local, r"^[A-Za-z0-9_.-]+$"))
        out = pc.if_else(ok, concat_array(pfx + ":", local), out)
    return out


def to_turtle_text(triples_ds, *, prefixes: dict[str, str] | None = None,
                   extra_prefixes: dict[str, str] | None = None) -> str:
    """triples Dataset -> one Turtle document string: the sorted prefix
    header, a blank line, then one compacted statement per triple in
    dataset order. An IRI that Turtle cannot hold raises
    ``ValueError``."""
    pfx = dict(_DEFAULT_PREFIXES if prefixes is None else prefixes)
    if extra_prefixes:
        pfx.update(extra_prefixes)
    header = [f"@prefix {k}: <{v}> ." for k, v in sorted(pfx.items())]
    t = table_of(triples_ds, schemas.TRIPLE_TERMS)
    check_iris(t)
    obj = pc.if_else(pc.fill_null(t["obj_is_literal"], False),
                     rdf_literal_array(t["obj"], t["lang"]),
                     _compact(t["obj"], pfx))
    lines = concat_array(_compact(t["subj"], pfx), " ",
                         _compact(t["pred"], pfx), " ", obj, " .")
    return "\n".join(header) + "\n\n" + join_text(lines, "\n") + "\n"
