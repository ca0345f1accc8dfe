"""Task-level exchange primitives: scatter_apply_by_value and
multiway_cogroup_scatter edge cases (empty buckets, schema-less
empties, zero-block inputs, int vs string keys, two and three
sides) on both sides of the one-task choice, the split's coalescing
of small blocks, the gather's runs of buckets, and the Dataset built
from task-returned block metadata."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from skosconverter_ray.stages.shardutil import (multiway_cogroup_scatter,
                                                scatter_apply_by_value)


def test_scatter_groups_every_row_once(ray_session):
    t = pa.table({"_bucket": pa.array([i % 5 for i in range(1000)],
                                      pa.int32()),
                  "v": pa.array(range(1000), pa.int64())})
    ds = rd.from_arrow(t).repartition(7).materialize()

    # NOTE: fn must be a closure/lambda (pickled by value) — a test-
    # module-level function pickles by reference and Ray workers
    # cannot import test modules
    def count_per_bucket(tbl: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([tbl.num_rows], pa.int64())})

    out = scatter_apply_by_value(ds, "_bucket", 5, count_per_bucket)
    assert sorted(r["n"] for r in out.take_all()) == [200] * 5


def test_scatter_empty_bucket_calls_fn_with_schema(ray_session):
    t = pa.table({"_bucket": pa.array([0, 0, 2], pa.int32()),
                  "v": pa.array([1, 2, 3], pa.int64())})
    ds = rd.from_arrow(t).materialize()

    def fn(tbl: pa.Table) -> pa.Table:
        assert tbl.column_names == ["_bucket", "v"]  # schema-carrying
        return pa.table({"n": pa.array([tbl.num_rows], pa.int64())})

    out = scatter_apply_by_value(ds, "_bucket", 4, fn)
    assert sorted(r["n"] for r in out.take_all()) == [0, 0, 1, 2]


def test_scatter_empty_result_shortcut(ray_session):
    t = pa.table({"_bucket": pa.array([1], pa.int32()),
                  "v": pa.array([7], pa.int64())})
    ds = rd.from_arrow(t).materialize()
    empty = pa.schema([("x", pa.string())]).empty_table()

    def fn(tbl):
        return pa.table({"x": pa.array(["hit"] * tbl.num_rows)})

    out = scatter_apply_by_value(ds, "_bucket", 3, fn, empty_result=empty)
    rows = out.take_all()
    assert [r["x"] for r in rows] == ["hit"]


def test_cogroup_scatter_int_keys_joins_all_rows(ray_session):
    left = pa.table({"k": pa.array(range(100), pa.int64()),
                     "a": pa.array(range(100), pa.int64())})
    right = pa.table({"rk": pa.array([i for i in range(0, 100, 2)],
                                     pa.int64()),
                      "b": pa.array([i * 10 for i in range(0, 100, 2)],
                                    pa.int64())})
    lds = rd.from_arrow(left).repartition(4).materialize()
    rds = rd.from_arrow(right).repartition(3).materialize()
    out_schema = pa.schema([("k", pa.int64()), ("b", pa.int64())])

    def fn(a, b):
        if a is None or b is None:
            return out_schema.empty_table()
        return a.join(b, keys=["k"], right_keys=["rk"],
                      join_type="inner").select(["k", "b"]) \
            .cast(out_schema)

    out = multiway_cogroup_scatter([(lds, "k"), (rds, "rk")], 6, fn,
                                   empty_result=out_schema.empty_table())
    rows = sorted((r["k"], r["b"]) for r in out.take_all())
    assert rows == [(i, i * 10) for i in range(0, 100, 2)]


def test_cogroup_scatter_string_keys(ray_session):
    left = pa.table({"k": pa.array([f"u{i}" for i in range(30)])})
    right = pa.table({"rk": pa.array([f"u{i}" for i in range(0, 30, 3)]),
                      "b": pa.array(list(range(0, 30, 3)), pa.int64())})
    out_schema = pa.schema([("k", pa.string()), ("b", pa.int64())])

    def fn(a, b):
        if a is None or b is None:
            return out_schema.empty_table()
        return a.join(b, keys=["k"], right_keys=["rk"],
                      join_type="inner").cast(out_schema)

    out = multiway_cogroup_scatter(
        [(rd.from_arrow(left).materialize(), "k"),
         (rd.from_arrow(right).materialize(), "rk")],
        4, fn, empty_result=out_schema.empty_table())
    rows = sorted((r["k"], r["b"]) for r in out.take_all())
    assert rows == sorted((f"u{i}", i) for i in range(0, 30, 3))


def test_multiway_cogroup_scatter_three_sides(ray_session):
    """One exchange co-partitions ANY number of sides on a shared
    key; fn sees one table (or None) per side per bucket. Result
    must equal the sequential two-join composition."""
    base = pa.table({"k": pa.array(list(range(40)), pa.int64())})
    evens = pa.table({"ek": pa.array(list(range(0, 40, 2)), pa.int64())})
    vals = pa.table({"vk": pa.array(list(range(0, 40, 5)), pa.int64()),
                     "v": pa.array([i * 7 for i in range(0, 40, 5)],
                                   pa.int64())})
    out_schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])

    def fn(b, e, v):
        import pyarrow.compute as pc

        if b is None or e is None or v is None:
            return out_schema.empty_table()
        t = b.filter(pc.is_in(b["k"],
                              value_set=e["ek"].combine_chunks()))
        return t.join(v, keys=["k"], right_keys=["vk"],
                      join_type="inner").cast(out_schema)

    out = multiway_cogroup_scatter(
        [(rd.from_arrow(base).repartition(3).materialize(), "k"),
         (rd.from_arrow(evens).repartition(2).materialize(), "ek"),
         (rd.from_arrow(vals).materialize(), "vk")],
        5, fn, empty_result=out_schema.empty_table())
    rows = sorted((r["k"], r["v"]) for r in out.take_all())
    assert rows == [(i, i * 7) for i in range(0, 40, 10)]


def _tiny_blocks(n_blocks=40, rows=10, empties=True):
    """``n_blocks`` materialized blocks of ``rows`` int keys each, then
    (``empties``) a zero-row block and a schema-less one (no columns at
    all)."""
    refs = [ray.put(pa.table({"k": pa.array(range(b * rows, (b + 1) * rows),
                                            pa.int64())}))
            for b in range(n_blocks)]
    if empties:
        refs += [ray.put(pa.table({"k": pa.array([], pa.int64())})),
                 ray.put(pa.table({}))]
    return rd.from_arrow_refs(refs).materialize()


def test_split_coalesces_small_blocks(ray_session):
    """Many tiny blocks share one split task: fewer tasks and part
    refs than blocks x B, and every row still lands in its own bucket
    exactly once."""
    from skosconverter_ray.stages.shardutil import _split

    B = 6
    ds = _tiny_blocks()
    n_blocks = ds.num_blocks()
    cols = _split(ds, "k", B, lambda v: v.to_numpy() % B)
    n_tasks = len(cols[0])
    assert all(len(c) == n_tasks for c in cols)
    # fewer tasks than blocks, but never fewer than the session's CPUs
    assert int(ray.cluster_resources()["CPU"]) <= n_tasks < n_blocks
    assert sum(len(c) for c in cols) < n_blocks * B
    seen = []
    for t, refs in enumerate(cols):
        keys = [k for part in ray.get(refs) if part.num_rows
                for k in part["k"].to_pylist()]
        assert all(k % B == t for k in keys)
        seen += keys
    assert sorted(seen) == list(range(400))


@pytest.mark.parametrize("n_cpus,sizes,want", [
    (1, [100] * 64, 1),             # one CPU: every block in one task
    (4, [100] * 64, 4),             # one task per CPU, not one in all
    (16, [100] * 64, 16),
    (128, [100] * 64, 64),          # no wider than one block a task
    (1, [32 << 20] * 8, 4),         # the byte target caps a task
    (4, [0] * 5, 1),                # size-less blocks share a task
])
def test_block_groups_width(n_cpus, sizes, want):
    """Consecutive blocks coalesce up to min(target, bytes / CPUs), so
    equal blocks make min(blocks, CPUs) tasks or more."""
    from skosconverter_ray.stages.shardutil import _block_groups

    groups = _block_groups(list(enumerate(sizes)), n_cpus)
    assert len(groups) == want
    assert [r for g in groups for r in g] == list(range(len(sizes)))


def test_split_block_over_target_runs_alone(ray_session, monkeypatch):
    """A block larger than the byte target is split alone: with a zero
    target every block gets its own task, and the rows route the
    same."""
    from skosconverter_ray.stages import shardutil

    monkeypatch.setattr(shardutil, "_SPLIT_TARGET_BYTES", 0)
    ds = _tiny_blocks(n_blocks=5, empties=False)
    cols = shardutil._split(ds, "k", 3, lambda v: v.to_numpy() % 3)
    assert len(cols[0]) == ds.num_blocks()
    got = sorted(k for t, refs in enumerate(cols)
                 for part in ray.get(refs) if part.num_rows
                 for k in part["k"].to_pylist() if k % 3 == t)
    assert got == list(range(50))


def test_split_rejects_bucket_outside_range(ray_session):
    from skosconverter_ray.stages.shardutil import _split

    cols = _split(_tiny_blocks(n_blocks=3), "k", 4,
                  lambda v: v.to_numpy() % 4 + 1)
    with pytest.raises(ValueError, match="outside"):
        ray.get([r for c in cols for r in c])


def test_cogroup_rejects_bucket_outside_range(ray_session, split_gather):
    def fn(t):
        return t

    with pytest.raises(ValueError, match="outside"):
        multiway_cogroup_scatter([(_tiny_blocks(n_blocks=3), "k")], 4, fn,
                                 key_to_bucket=lambda v: v.to_numpy() % 4 + 1)


def test_cogroup_schemaless_blocks_every_row_once(ray_session, split_gather):
    """Zero-row and schema-less blocks add no rows; each bucket's rows
    reach ``fn`` once, and the output is one block per bucket in
    bucket order."""
    B = 6

    def fn(t):
        keys = [] if t is None else sorted(t["k"].to_pylist())
        return pa.table({"keys": pa.array([keys], pa.list_(pa.int64()))})

    out = multiway_cogroup_scatter([(_tiny_blocks(), "k")], B, fn,
                                   key_to_bucket=lambda v: v.to_numpy() % B)
    assert out.num_blocks() == B
    rows = [r["keys"] for r in out.take_all()]
    assert rows == [list(range(t, 400, B)) for t in range(B)]


_ONE_TASK_CASES = [
    test_scatter_groups_every_row_once,
    test_scatter_empty_bucket_calls_fn_with_schema,
    test_scatter_empty_result_shortcut,
    test_cogroup_scatter_int_keys_joins_all_rows,
    test_cogroup_scatter_string_keys,
    test_multiway_cogroup_scatter_three_sides,
    test_cogroup_rejects_bucket_outside_range,
    test_cogroup_schemaless_blocks_every_row_once,
]


@pytest.mark.parametrize("case", _ONE_TASK_CASES,
                         ids=[c.__name__[5:] for c in _ONE_TASK_CASES])
def test_one_task_exchange(ray_session, one_task, case):
    """The exchange cases above, cut for one CPU: one task splits and
    gathers, and the results are the same (fixtures the case names are
    passed as None: the session is up and the width is set here)."""
    import inspect

    case(*[None] * len(inspect.signature(case).parameters))


@pytest.mark.parametrize("n_cpus", [1, 4, 16, 128])
@pytest.mark.parametrize("B", [1, 8, 64])
def test_gather_runs_width(n_cpus, B):
    """Consecutive buckets share a gather up to min(target, bytes /
    CPUs): one gather on one CPU, min(B, CPUs) or more on a wider
    session, and one bucket per gather once a bucket's share reaches
    the byte target."""
    from skosconverter_ray.stages.shardutil import (_SPLIT_TARGET_BYTES,
                                                    _gather_runs)

    for n_bytes, want in [(0, 1 if n_cpus == 1 else min(B, n_cpus)),
                          (1 << 20, 1 if n_cpus == 1 else min(B, n_cpus)),
                          (B * _SPLIT_TARGET_BYTES, B)]:
        runs = _gather_runs(B, n_bytes, n_cpus)
        assert len(runs) == want
        assert [t for run in runs for t in run] == list(range(B))


def test_blocks_dataset_matches_from_arrow_refs(ray_session):
    """Metadata the producing task returned builds the same Dataset as
    ``from_arrow_refs``: blocks, their order, rows, bytes and schema."""
    from skosconverter_ray.stages.shardutil import block_meta, blocks_dataset

    tables = [pa.table({"k": pa.array(range(n), pa.int64()),
                        "s": [f"s{i}" for i in range(n)]})
              for n in (5, 0, 300)] + [pa.table({})]
    refs = [ray.put(t) for t in tables]
    want = rd.from_arrow_refs(refs)
    got = blocks_dataset(refs, [block_meta(t) for t in tables])

    def blocks(ds):
        return [(ref.hex(), m.num_rows, m.size_bytes, bundle.schema)
                for bundle in ds.iter_internal_ref_bundles()
                for ref, m in bundle.blocks]

    assert blocks(got) == blocks(want)
    assert [r for r, *_ in blocks(got)] == [r.hex() for r in refs]
    assert got.schema() == want.schema()
    assert got.take_all() == want.take_all()


# Contract tests for the helpers that read Ray Data 2.49 internals
# (``get_table_block_metadata_schema``, ``_logical_plan.dag.output_data()``,
# ``plan._snapshot_bundle``):
# each is pinned against its public equivalent, so a Ray upgrade that
# changes those internals fails here instead of reading stale blocks.

@pytest.mark.parametrize("n", [200, 0])
def test_block_meta_matches_from_arrow(ray_session, n):
    """``block_meta`` (Ray Data's private table-metadata builder)
    reports what ``rd.from_arrow(t).materialize()`` reports for the
    same table: rows, size in bytes and schema, non-empty and
    zero-row."""
    from skosconverter_ray.stages.shardutil import block_meta

    t = pa.table({"k": pa.array(range(n), pa.int64()),
                  "s": [f"s{i}" for i in range(n)]},
                 schema=pa.schema([("k", pa.int64()), ("s", pa.string())]))
    got = block_meta(t)
    (bundle,) = rd.from_arrow(t).materialize().iter_internal_ref_bundles()
    ((_, want),) = bundle.blocks
    assert (got.num_rows, got.size_bytes) == (want.num_rows,
                                              want.size_bytes) \
        == (n, t.nbytes)
    assert got.schema == want.schema == bundle.schema == t.schema


def _bundle_blocks(ds) -> list[tuple]:
    return [(ref.hex(), m.size_bytes or 0)
            for bundle in ds.iter_internal_ref_bundles()
            for ref, m in bundle.blocks]


@pytest.mark.parametrize("source", ["from_arrow", "materialize"])
def test_blocks_match_iter_internal_ref_bundles(ray_session, source):
    """``_blocks`` reads the same (ref, size_bytes) pairs, in order, as
    ``iter_internal_ref_bundles()`` on a ``from_arrow`` output and on
    a ``materialize()`` output."""
    from skosconverter_ray.stages.shardutil import _blocks

    tables = [pa.table({"k": pa.array(range(i, i + n), pa.int64())})
              for i, n in ((0, 5), (5, 0), (5, 300))]
    ds = rd.from_arrow(tables)
    if source == "materialize":
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow") \
            .materialize()
    got = [(ref.hex(), size) for ref, size in _blocks(ds)]
    assert got and got == _bundle_blocks(ds)


def test_blocks_of_lazy_dataset_hold_its_rows(ray_session):
    """On a lazy Dataset ``_blocks`` runs the plan once and returns the
    blocks of that run: the rows the public ``take_all`` reads, in
    order, each with a non-zero size."""
    from skosconverter_ray.stages.shardutil import _blocks

    lazy = rd.from_arrow(pa.table({"k": pa.array(range(500), pa.int64())})) \
        .map_batches(lambda t: t.append_column(
            "k2", pc.multiply(t["k"], 2)), batch_format="pyarrow")
    blocks = _blocks(lazy)
    tables = ray.get([ref for ref, _ in blocks])
    assert all(size > 0 for _, size in blocks)
    assert pa.concat_tables(tables).to_pylist() == lazy.take_all()


@pytest.mark.parametrize("empty", [False, True])
def test_blocks_dataset_snapshot_matches_materialize(ray_session, ray_calls,
                                                     empty):
    """The snapshot ``blocks_dataset`` leaves on its plan gives what
    ``materialize()`` of the same blocks gives: the same rows and
    schema, and an all-empty input keeps its schema. Reading its
    schema, count, refs or ``materialize()`` starts no streaming
    execution, as on an executed plan."""
    from skosconverter_ray.stages.shardutil import (_blocks, block_meta,
                                                    blocks_dataset)

    schema = pa.schema([("k", pa.int64()), ("s", pa.string())])
    tables = [schema.empty_table()] * 2 if empty else [
        pa.table({"k": pa.array(range(n), pa.int64()),
                  "s": [f"s{i}" for i in range(n)]}, schema=schema)
        for n in (3, 0, 40)]
    refs = [ray.put(t) for t in tables]
    got = blocks_dataset(refs, [block_meta(t) for t in tables])
    assert got.schema().base_schema == schema
    assert got.count() == sum(t.num_rows for t in tables)
    assert got.to_arrow_refs() == refs
    again = got.materialize()
    assert ray_calls.executions == 0
    want = rd.from_arrow_refs(refs).materialize()
    assert got.schema().base_schema == want.schema().base_schema == schema
    assert got.take_all() == want.take_all()
    assert want.count() == got.count()
    assert [r for r, _ in _blocks(again)] == refs
    assert again.schema().base_schema == schema


# The ShardGroup runner contract: shard classes are table kernels, and
# the group's trampoline fetches, concatenates and puts their tables.

def _toy_shard():
    """A table-only shard class (defined here so that it pickles by
    value: Ray workers cannot import test modules)."""
    schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    class Toy:
        def __init__(self, b, B, tag):
            self.b, self.B, self.tag = b, B, tag

        def load(self, t):
            return t.num_rows, t.schema.names

        def emit(self, n: int):
            # ``n`` rows for every peer, a distinct zero-row table
            # when n is 0
            return self.tag, [pa.table({"src": [self.b] * n,
                                        "dst": [t] * n}, schema=schema)
                              for t in range(self.B)]

        def take(self, inbox):
            return inbox.to_pydict(), inbox.schema.names

        def broadcast(self):
            return [pa.table({"src": [self.b]})] * self.B

    return Toy


@pytest.mark.parametrize("B", [1, 2, 3])
def test_shard_group_wave_contract(ray_session, B):
    """At B shards: a split column reaches its shard as one table, an
    empty split bucket as a zero-row table with the input's schema;
    relayed inboxes arrive concatenated in relay (shard) order, an
    all-empty inbox as a zero-row table with the messages' schema; a
    table returned for every peer is put once, and so are the zero-row
    outboxes of one wave; tuples and keyword arguments pass as they
    are."""
    from skosconverter_ray.functions.hashing import bucket_of
    from skosconverter_ray.stages.shardutil import (ShardGroup,
                                                    split_dataset_by_bucket)

    # every row has one key, so B - 1 buckets get no rows
    t = pa.table({"k": ["x"] * 30, "v": pa.array(range(30), pa.int64())})
    cols = split_dataset_by_bucket(
        rd.from_arrow(t).repartition(3).materialize(), "k", B)
    full = bucket_of(pa.array(["x"]), B)[0].as_py()
    with ShardGroup(_toy_shard(), B, "tag") as g:
        assert g.wave("load", cols) == [
            (30 if b == full else 0, ["k", "v"]) for b in range(B)]

        outs = g.wave("emit", n=2)
        assert [tag for tag, _ in outs] == ["tag"] * B
        got = g.wave("take", g.relay([refs for _, refs in outs]))
        assert got == [({"src": [b for b in range(B) for _ in range(2)],
                         "dst": [t] * 2 * B}, ["src", "dst"])
                       for t in range(B)]

        outs = g.wave("emit", n=0)
        assert all(len(set(refs)) == 1 for _, refs in outs)
        assert g.wave("take", g.relay([refs for _, refs in outs])) == \
            [({"src": [], "dst": []}, ["src", "dst"])] * B

        outs = g.wave("broadcast")
        assert all(len(set(refs)) == 1 for refs in outs)
        assert [r["src"] for r, _ in g.wave("take", g.relay(outs))] == \
            [list(range(B))] * B


def test_shard_group_kills_its_actors_when_the_body_raises(ray_session):
    from skosconverter_ray.stages.shardutil import ShardGroup

    with pytest.raises(RuntimeError, match="body"):
        with ShardGroup(_toy_shard(), 2, "tag") as g:
            shards = g.shards
            raise RuntimeError("body")
    for s in shards:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(s.__ray_call__.remote(lambda shard: shard.b), timeout=60)
