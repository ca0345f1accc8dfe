"""SKOS triples -> Notion-shaped sinks (reference ``to-csv`` /
``to-markdown`` / ``to-json`` / ``to-xml`` skeleton,
skos_converter.py:1704-1820 / §3.1).

Engine shape (SURVEY.md §3.1): triples -> dedup + inverse closure
(one kernel, so one-sided hasTopConcept/broader still render, matching
the reference's union of both directions at 697-707/716-733) ->
concept pivot + hierarchy ordering -> ordered tree_rows -> render sink.
"""

from __future__ import annotations

from ..config import EngineConfig
from ..render import sinks
from ..stages.hierarchy import build_tree_rows
from ..stages.triples import inverse_consistency


def tree_rows_pipeline(triples_ds, cfg: EngineConfig | None = None,
                       *, engine: str = "auto"):
    # one closure kernel: set semantics (U4), then the inverse closure;
    # both it and the tree-order kernels sit behind the SKOS size gate
    # (stages/concepts.py); ``engine`` overrides the tree order's
    # placement (graph.resolve_engine contract)
    return build_tree_rows(inverse_consistency(triples_ds), cfg,
                           engine=engine)


def to_csv(triples_ds, cfg=None) -> str:
    return sinks.to_csv_text(tree_rows_pipeline(triples_ds, cfg))


def to_markdown(triples_ds, cfg=None) -> str:
    return sinks.to_markdown_text(tree_rows_pipeline(triples_ds, cfg))


def to_xml(triples_ds, cfg=None) -> str:
    return sinks.to_xml_text(tree_rows_pipeline(triples_ds, cfg))


def to_json(triples_ds, cfg=None) -> dict:
    return sinks.to_json_obj(tree_rows_pipeline(triples_ds, cfg))
