"""Arrow schemas for every logical table in the engine (SURVEY.md §1.3).

The universal IR is the ``triples`` table — the distributed replacement
for the reference's in-memory ``rdflib.Graph`` (skos_converter.py:544,
1290). ``concepts`` is a derived pivot, never the source of truth.
"""

from __future__ import annotations

import pyarrow as pa

# Input per BASELINE.json input_hint: interleaved text + media documents.
SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),       # "text" | "image" | "audio" | "table"
        ("text", pa.string()),       # body for text spans; caption/alt otherwise
        ("media_ref", pa.string()),  # "" for text spans; "media://{hash}" otherwise
        ("offset", pa.int32()),      # monotonically increasing within a doc
    ]
)

DOCUMENTS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# The universal IR. Replaces rdflib.Graph; a row is one RDF triple.
TRIPLES = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_is_literal", pa.bool_()),
        ("lang", pa.string()),        # nullable: language tag for literals
        ("source_doc", pa.string()),  # nullable: provenance doc_id
    ]
)

# The triple columns the RDF writers read (provenance is not written).
TRIPLE_TERMS = pa.schema([f for f in TRIPLES if f.name != "source_doc"])


def triples_table(rows: list[tuple],
                  source_doc: str | None = None) -> pa.Table:
    """``(subj, pred, obj, obj_is_literal, lang)`` tuples -> a TRIPLES
    table with ``source_doc`` on every row (the readers' one builder)."""
    cols = list(zip(*rows)) or [()] * len(TRIPLE_TERMS)
    return pa.table(
        [pa.array(c, f.type) for c, f in zip(cols, TRIPLE_TERMS)]
        + [pa.array([source_doc] * len(rows), pa.string())], schema=TRIPLES)


# Per-concept wide record: replaces the reference's per-concept getter
# cluster (skos_converter.py:623-657) with one groupby-pivot.
CONCEPTS = pa.schema(
    [
        ("uri", pa.string()),
        ("pref_label", pa.string()),
        ("alt_labels", pa.list_(pa.string())),
        ("hidden_labels", pa.list_(pa.string())),
        ("definition", pa.string()),
        ("notation", pa.string()),
        ("same_as", pa.list_(pa.string())),
        ("related", pa.list_(pa.string())),
        ("scheme", pa.string()),
        ("is_top", pa.bool_()),
    ]
)

# Hierarchy edges (normalized direction: parent -> child).
EDGES = pa.schema(
    [
        ("parent", pa.string()),
        ("child", pa.string()),
        ("kind", pa.string()),  # "broader" | "topConcept"
    ]
)

# Separator of a tree row's alt labels: a control character no label
# is expected to hold, so a label holding ", " stays one label; each
# sink writes the list in its format's own form.
ALT_LABEL_SEP = "\x1f"

# Ordered render IR: replaces the reference's recursive row building
# (skos_converter.py:772-802); one global sort on sort_key reproduces
# DFS preorder with alphabetically sorted siblings.
TREE_ROWS = pa.schema(
    [
        ("sort_key", pa.string()),
        ("title", pa.string()),
        ("parent", pa.string()),
        ("scheme", pa.string()),
        ("definition", pa.string()),
        ("alt_labels", pa.string()),  # ALT_LABEL_SEP-joined
        ("notation", pa.string()),
        ("uri", pa.string()),
        ("level", pa.int32()),
        ("same_as", pa.string()),   # ", "-joined; markdown/turtle sinks
        ("related", pa.string()),
    ]
)

# Entity-linking output (graft stage T2/J6).
MENTIONS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("surface", pa.string()),
        ("concept_uri", pa.string()),
        ("label_kind", pa.string()),  # "pref" | "alt" | "hidden"
        ("score", pa.float32()),
    ]
)

# Union-find output (graft stage A8).
CANON_MAP = pa.schema(
    [
        ("uri", pa.string()),
        ("canonical_uri", pa.string()),
    ]
)

# Checkpoint manifest row (graft stage M6).
MANIFEST = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("stage", pa.string()),
        ("row_count", pa.int64()),
        ("input_lineage", pa.string()),
        ("status", pa.string()),  # "done" | "failed"
        ("wall_s", pa.float64()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    """An empty Arrow table with the given schema."""
    return schema.empty_table()
