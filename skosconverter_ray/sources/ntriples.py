"""N-Triples subset reader and writer (SURVEY.md S1/S8, §4.3).

``rdflib`` is not a dependency, so the engine speaks a line-oriented
N-Triples subset covering exactly what the reference emits and reads:
absolute ``<uri>`` terms and literals with optional ``@lang`` tags
(reference loaders skos_converter.py:548-582; serializer 1551-1583).
A statement outside that subset is an error, not a dropped triple.

Reader: one line per triple makes the format block-parallel, so
``read_text`` shards by line ranges and every batch parses on its own;
a literal's escapes read back through ``functions.text.rdf_unescape``,
as in the Turtle reader.
Writer: ``to_ntriples_text`` is one table kernel over the whole triples
table, fetched once; each line is assembled from Arrow string kernels
with the literal escape shared with the Turtle writer
(``functions.text.rdf_literal_array``).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..functions.text import (check_iris, concat_array, join_text,
                              rdf_literal_array, rdf_unescape)
from ..stages.concepts import table_of

_LINE_RE = re.compile(
    r"^<(?P<s>[^>]*)>\s+<(?P<p>[^>]*)>\s+"
    r"(?:<(?P<o_uri>[^>]*)>|\"(?P<o_lit>(?:[^\"\\]|\\.)*)\""
    r"(?:@(?P<lang>[A-Za-z0-9-]+))?)\s*\.\s*(?:#.*)?$"
)
# any statement of the full grammar: IRIs, blank nodes, literals with
# a language tag or a datatype
_TERM = (r'(?:<[^>]*>|_:\S+|"(?:[^"\\]|\\.)*"'
         r'(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?)')
_STATEMENT_RE = re.compile(
    rf"^{_TERM}\s+{_TERM}\s+{_TERM}\s*\.\s*(?:#.*)?$")


def parse_lines_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Batch of N-Triples lines -> triples rows. Blank, comment and
    malformed lines (no N-Triples statement at all) are skipped, so one
    bad line does not fail a batch; a statement the subset cannot hold
    (a blank node, a ``^^<datatype>`` literal) raises ``ValueError``
    quoting it, instead of losing its triple."""
    rows = []
    for line in batch[text_col].to_pylist():
        line = (line or "").strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if not m:
            if _STATEMENT_RE.match(line):
                raise ValueError(
                    "N-Triples statement outside this reader's subset "
                    f"(absolute IRIs, plain or @lang literals): {line!r}")
            continue
        if m["o_uri"] is not None:
            rows.append((m["s"], m["p"], m["o_uri"], False, None))
        else:
            rows.append((m["s"], m["p"], rdf_unescape(m["o_lit"]), True,
                         m["lang"]))
    return schemas.triples_table(rows)


def read_ntriples(paths) -> "ray.data.Dataset":  # noqa: F821
    """Files of N-Triples -> triples Dataset (streaming, block-parallel)."""
    import ray.data as rd

    return rd.read_text(paths).map_batches(
        parse_lines_batch, batch_format="pyarrow")


def to_ntriples_text(triples_ds) -> str:
    """triples Dataset -> N-Triples document, one line per triple in
    dataset order. An IRI that N-Triples cannot hold raises
    ``ValueError``."""
    t = table_of(triples_ds, schemas.TRIPLE_TERMS)
    check_iris(t)
    obj = pc.if_else(pc.fill_null(t["obj_is_literal"], False),
                     rdf_literal_array(t["obj"], t["lang"]),
                     concat_array("<", t["obj"], ">"))
    lines = concat_array("<", t["subj"], "> <", t["pred"], "> ", obj, " .")
    return join_text(lines, "\n") + ("\n" if t.num_rows else "")
