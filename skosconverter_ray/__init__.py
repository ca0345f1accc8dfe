"""skosconverter_ray — a Ray-Data-native knowledge-graph construction engine.

A from-scratch reimplementation of the *capabilities* of
proycon/skosConverter (reference at /root/reference/skos_converter.py)
as a distributed, streaming triple factory on Ray Data:

- input: tables of interleaved text+media documents
  ``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``
- batched mention detection + SKOS-aware entity linking on actor pools
- (subj, pred, obj) triple emission for the SKOS vocabulary the
  reference reads/writes (SURVEY.md §1.2)
- union-find canonicalization over owl:sameAs / skos:exactMatch
- hierarchy materialization + the four reference sinks (CSV, Markdown,
  JSON, Confluence XML) and Turtle/N-Triples round-trip
- inverse-relation consistency pass (broader⇔narrower,
  hasTopConcept⇔topConceptOf)
- large-scale training-data ops: dedup (exact/MinHash-LSH/SimHash),
  ANN similarity search, text quality analysis, multimodal stubs

Execution model: ``ray.data.Dataset`` pipelines, ``map_batches`` over
zero-copy Arrow batches, actor pools for stateful stages. Nothing in
this package calls ``ray.init()``.
"""

__version__ = "0.1.0"


def _shim_fsspec_http() -> None:
    """Make ``fsspec.implementations.http`` import DETERMINISTIC in
    aiohttp-less environments. Ray Data's path resolution probes
    ``from fsspec.implementations.http import HTTPFileSystem`` on
    every read and catches only ``ModuleNotFoundError`` (path_util
    _is_http_filesystem); serially that's what the missing aiohttp
    raises, but when two driver threads materialize Datasets
    concurrently the second import of the half-failed module raises a
    plain ``ImportError: cannot import name 'HTTPFileSystem'`` which
    escapes the narrow except and kills the pipeline. Registering a
    stub module (its class is never instantiable from a real fs, so
    every isinstance check stays False — exactly the no-aiohttp
    semantics) removes the race entirely. The stub goes in only when
    aiohttp is absent; any other import failure is re-raised."""
    import importlib.util
    import sys
    import types

    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa
        return
    except ImportError:
        if importlib.util.find_spec("aiohttp") is not None:
            raise

    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # noqa: N801 — mirrors the absent class
        def __init__(self, *a, **k):
            raise ModuleNotFoundError(
                "aiohttp is not installed; http filesystem unavailable")

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


_shim_fsspec_http()
