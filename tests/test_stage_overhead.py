"""What the SKOS path starts besides its kernels: Ray Data streaming
executions and Ray tasks, counted on the driver (``ray_calls``)."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from skosconverter_ray import schemas

NS = "http://example.org/v/"


def test_table_of_runs_a_lazy_plan_once(tmp_path, ray_calls):
    """A lazy Dataset is executed once: its UDF runs once, and no
    ``limit(1)`` schema probe runs it again."""
    import ray.data as rd

    from skosconverter_ray.stages.concepts import table_of

    log = tmp_path / "calls"

    def udf(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("call\n")
        return batch

    ds = rd.from_arrow(pa.table({"x": [1, 2, 3]})).map_batches(
        udf, batch_format="pyarrow")
    t = table_of(ds, pa.schema([("x", pa.int64())]))
    assert t["x"].to_pylist() == [1, 2, 3]
    assert log.read_text().splitlines() == ["call"]
    assert ray_calls.executions == 1


@pytest.mark.parametrize("make", ["materialize", "from_arrow"])
def test_table_of_a_materialized_dataset_starts_nothing(ray_calls, make):
    """A MaterializedDataset hands over its block refs: no streaming
    execution (a ``from_arrow`` plan has never run one) and no task."""
    import ray.data as rd

    from skosconverter_ray.stages.concepts import table_of

    t = pa.table({"x": [3, 1]})
    ds = (rd.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow")
          .materialize() if make == "materialize" else rd.from_arrow(t))
    ray_calls.executions = 0
    ray_calls.tasks.clear()
    assert table_of(ds, pa.schema([("x", pa.int64())]))["x"].to_pylist() \
        == [3, 1]
    assert ray_calls.executions == 0
    assert sum(ray_calls.tasks.values()) == 0


def test_below_gate_chain_counts(tmp_path, ray_calls):
    """The paper's path below the SKOS size gate, as the benchmark job
    runs it: ``read_turtle`` -> ``validate`` -> ``tree_rows_pipeline``
    -> the four sinks -> ``to_ntriples_text(parse_markdown_dataset())``.
    One Turtle read task and one streaming execution of the lazy
    Markdown parse (one map task) are all it starts. With the Turtle
    read on ``read_binary_files`` + ``map_batches``, ``rd.from_arrow``
    outputs and ``to_arrow_refs`` fetches, the same chain ran 3
    streaming executions and submitted 15 tasks: 11 ``_map_task``, 3
    ``get_table_block_metadata_schema`` (one per ``rd.from_arrow``
    output) and 1 ``slice_fn``."""
    import ray.data as rd

    from skosconverter_ray import vocab
    from skosconverter_ray.pipelines.skos2notion import tree_rows_pipeline
    from skosconverter_ray.render import sinks
    from skosconverter_ray.sources.markdown import parse_markdown_dataset
    from skosconverter_ray.sources.ntriples import to_ntriples_text
    from skosconverter_ray.sources.turtle import read_turtle, to_turtle_text
    from skosconverter_ray.stages.validate import validate

    v = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=40,
                                             seed=3, namespace=NS))
    path = os.path.join(tmp_path, "v.ttl")
    with open(path, "w", encoding="utf-8") as f:
        f.write(to_turtle_text(rd.from_arrow(v.triples)))
    ray_calls.executions = 0
    ray_calls.tasks.clear()

    triples = read_turtle([path]).materialize()
    issues = validate(triples).materialize()
    tree = tree_rows_pipeline(triples).materialize()
    texts = {f.__name__: f(tree) for f in (
        sinks.to_csv_text, sinks.to_markdown_text, sinks.to_xml_text,
        sinks.to_json_text)}
    docs = rd.from_items([{"doc_id": "v.md",
                           "text": texts["to_markdown_text"]}])
    nt = to_ntriples_text(parse_markdown_dataset(docs, NS))

    assert ray_calls.executions == 1
    assert dict(ray_calls.tasks) == {"_read_file": 1, "_map_task": 1}
    assert triples.count() == v.triples.num_rows
    assert issues.schema().names == ["severity", "check", "subject",
                                     "detail"]
    assert all(texts.values()) and nt.count("\n") > len(v.concept_uris)
