"""SKOS triples -> Notion-shaped sinks (reference ``to-csv`` /
``to-markdown`` / ``to-json`` / ``to-xml`` skeleton,
skos_converter.py:1704-1820 / §3.1).

Engine shape (SURVEY.md §3.1): triples -> inverse-consistency closure
(so one-sided hasTopConcept/broader still render, matching the
reference's union of both directions at 697-707/716-733) -> concept
pivot + hierarchy ordering -> ordered tree_rows -> render sink.
"""

from __future__ import annotations

from ..config import EngineConfig
from ..render import sinks
from ..stages.hierarchy import build_tree_rows
from ..stages.triples import inverse_consistency


def tree_rows_pipeline(triples_ds, cfg: EngineConfig | None = None,
                       *, engine: str = "auto"):
    from ..stages.triples import dedup_triples

    # U4 set semantics first; the closure's edge anti-join assumes a
    # deduped input (stages/triples.py inverse_consistency)
    closed = inverse_consistency(dedup_triples(triples_ds))
    # engine: where the tree-order kernels run (graph.resolve_engine
    # contract; "auto" = the SKOS size gate in stages/concepts.py)
    return build_tree_rows(closed, cfg, engine=engine)


def to_csv(triples_ds, cfg=None) -> str:
    return sinks.to_csv_text(tree_rows_pipeline(triples_ds, cfg))


def to_markdown(triples_ds, cfg=None) -> str:
    return sinks.to_markdown_text(tree_rows_pipeline(triples_ds, cfg))


def to_xml(triples_ds, cfg=None) -> str:
    return sinks.to_xml_text(tree_rows_pipeline(triples_ds, cfg))


def to_json(triples_ds, cfg=None) -> dict:
    return sinks.to_json_obj(tree_rows_pipeline(triples_ds, cfg))
