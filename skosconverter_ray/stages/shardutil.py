"""Shared plumbing for the Pregel-tier shard-actor engines and the
task-level hash exchanges.

``ShardGroup`` is the one runner behind every shard-actor engine: the
PageRank/PPR, HITS and k-core shards (stages/graph.py), the
label-propagation shards (communities.py), the union-find shards
(canonicalize.py) and the tree-order propagation shards
(hierarchy.py). A shard class is a table kernel: its methods take
``pa.Table`` and scalar arguments and return tables and scalars, and
it never touches Ray. The group creates the actors and runs
synchronous waves through one actor-side trampoline (``_call``), which
fetches and concatenates the split parts and inbox refs a shard is
handed and puts the per-peer outbox tables it returns, so the driver
relays each wave's B×B message refs and never a message row. The
shard-kernel helpers below (``node_set``, ``positions``,
``dict_buckets``, ``SumRoutes``, ``scatter_add``, ``csr_edges``,
``by_bucket``) are the numpy/Arrow steps the shard classes share.

Every grouping of rows by bucket in the engine (bar
``dedup_triples``' uncoalesced branch) runs on one task exchange,
with no sort, sized by bytes and session width at both ends: split
tasks (``_split_blocks``; one per run of consecutive blocks, up to
``_SPLIT_TARGET_BYTES`` and the input's bytes per session CPU,
scattering rows into per-bucket parts, so part refs grow with the
input's bytes and the session's width, not its block count) and
gather tasks (``_gather_run``; one per run of consecutive buckets,
cut the same way). When one split run and one gather run cover the
input (a small input on one CPU), one task does both. Three
consumers build on it:

- ``split_dataset_by_bucket``: a shard's column of part refs reaches
  it as one table (the driver relays refs, never rows);
- ``scatter_apply_by_value`` gathers each bucket of rows that already
  carry an int bucket id and applies ``fn`` to it (dedup, sessions,
  aggregates, scans, per-bucket query bodies);
- ``multiway_cogroup_scatter`` hashes each side's key column and hands
  ``fn`` one table per side per bucket (joins, as-of join, closure);
  ``cogroup_scatter_refs`` is the same exchange returning its output
  refs, for a caller that reads them itself (partitioned write).

Gathers and shard results return each block's metadata with it, and
``blocks_dataset`` builds the output Dataset from those: no metadata
task per block, as ``from_arrow_refs`` would start, and a plan already
marked executed, so reading the output back starts no streaming
execution either.

Fault model (deliberate): shard actors are assumed live for the
duration of ONE stage run — they hold in-memory iteration state that
Ray could not transparently rebuild, so the group does NOT set
max_restarts. Recovery is re-running the stage: its inputs are always
MATERIALIZED datasets (pinned blocks / lineage), the actors are
created per run and killed when the group exits, and the stage is
deterministic, so a re-run is bit-identical. At cluster scale that
re-run is bounded by one stage, never the whole pipeline — the same
contract Ray Data itself offers for a failed all-to-all."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class ShardGroup:
    """``n_shards`` zero-CPU actors of the table kernel ``shard_cls``,
    constructed as ``shard_cls(b, n_shards, *args)``, killed when the
    ``with`` block exits (normally or not).

    Split the inputs (``split_dataset_by_bucket``) BEFORE entering:
    the actors reserve no CPUs, but they block in their first wave on
    the split tasks, and B actors reserving B x num_cpus would starve
    those tasks (the actor-pool live-lock pitfall). The actors work
    in short serialized waves, so zero CPUs is the honest
    reservation."""

    def __init__(self, shard_cls, n_shards: int, *args):
        import ray

        self.B = n_shards
        actor = ray.remote(num_cpus=0)(shard_cls)
        self.shards = [actor.remote(b, n_shards, *args)
                       for b in range(n_shards)]

    def __enter__(self) -> "ShardGroup":
        return self

    def __exit__(self, *exc) -> None:
        import ray

        for s in self.shards:
            ray.kill(s)

    def wave(self, method: str, *per_shard, **broadcast) -> list:
        """One synchronous wave: ``method`` on every shard through
        ``_call``, results in shard order. Shard ``b`` gets the
        ``b``-th item of each positional sequence, then every keyword
        argument as is; an item that is a list of refs (a split
        column, a relay inbox) arrives as one table, and a list of
        tables the method returns comes back as a list of refs."""
        import ray

        return ray.get([
            s.__ray_call__.remote(_call, method,
                                  *(a[b] for a in per_shard), **broadcast)
            for b, s in enumerate(self.shards)])

    def relay(self, outs) -> list[list]:
        """B outboxes of B peer refs -> B inboxes; inbox ``t`` holds the
        ref every shard addressed to shard ``t``, in shard order. The
        driver moves refs, never message rows."""
        return [list(inbox) for inbox in zip(*outs)]

    def collect(self):
        """Every shard's ``result()`` table as one materialized
        Dataset; each shard returns the table's block metadata with
        it (``blocks_dataset``)."""
        import ray

        outs = [s.__ray_call__.options(num_returns=2).remote(_result_meta)
                for s in self.shards]
        metas = ray.get([m for _, m in outs])
        return blocks_dataset([t for t, _ in outs], metas)


def _call(shard, method: str, *args, **kwargs):
    """``shard.method(*args, **kwargs)`` on the shard's actor, with the
    object-store work the table kernel leaves out: every list of refs
    in ``args`` is fetched and concatenated in list order
    (``_concat``), and every list of tables in the result (or in an
    item of a returned tuple) is put, coming back as a list of refs.
    A table returned for several peers is put once, and so is the
    zero-row table of each schema."""
    import ray

    def put(out):
        if not (isinstance(out, list)
                and all(isinstance(t, pa.Table) for t in out)):
            return out
        refs: dict = {}
        keys = [id(t) if t.num_rows else t.schema for t in out]
        for k, t in zip(keys, out):
            if k not in refs:
                refs[k] = ray.put(t)
        return [refs[k] for k in keys]

    args = [_concat(ray.get(a)) if isinstance(a, list) else a for a in args]
    out = getattr(shard, method)(*args, **kwargs)
    return tuple(map(put, out)) if isinstance(out, tuple) else put(out)


def _concat(tables: list) -> pa.Table:
    """``tables`` as one table, in order. Zero-row parts add nothing;
    with no rows at all the widest part is returned (a schema-less
    empty block Ray Data can leave has no columns), so an empty split
    bucket or inbox keeps the schema of the input it came from."""
    got = [t for t in tables if t.num_rows]
    if not got:
        return max(tables, key=lambda t: t.num_columns)
    return pa.concat_tables(got).combine_chunks()


def _result_meta(shard) -> tuple:
    t = shard.result()
    return t, block_meta(t)


# Shard-kernel helpers: the numpy/Arrow steps the shard classes share.

def node_set(*cols) -> pa.Array:
    """The sorted distinct values of the string columns ``cols``
    (``pa.ChunkedArray``): a shard's node dictionary."""
    u = pc.unique(pa.chunked_array([c for col in cols for c in col.chunks],
                                   pa.string()))
    return u.take(pc.sort_indices(u))


def positions(values, nodes: pa.Array) -> np.ndarray:
    """int64 position of each of ``values`` in ``nodes`` (every value
    must be one of them)."""
    return pc.index_in(values, value_set=nodes) \
        .to_numpy(zero_copy_only=False).astype(np.int64)


def dict_buckets(values, B: int) -> tuple:
    """String column -> ``(dictionary, codes, buckets)``: its distinct
    values, each row's int64 code into them and each distinct value's
    ``bucket_of`` id, so a column is hashed once per distinct value and
    row ``i`` goes to peer ``buckets[codes[i]]``."""
    from ..functions.hashing import bucket_of

    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    enc = values.dictionary_encode()
    return (enc.dictionary,
            enc.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            bucket_of(enc.dictionary, B).to_numpy(zero_copy_only=False))


class SumRoutes:
    """Per-peer routing of sum-combined messages along edges keyed by
    ``keys`` (one target string per edge), built once at load. Each
    wave, ``tables(values)`` sums the per-edge ``values`` per distinct
    target, in edge order, and returns one ``(node, m)`` table per
    peer holding the targets that hash to it."""

    def __init__(self, keys, B: int):
        d, self.codes, bk = dict_buckets(keys, B)
        self.n = len(d)
        self.peers = [np.flatnonzero(bk == t) for t in range(B)]
        self.targets = [d.take(pa.array(p, pa.int64())) for p in self.peers]

    def tables(self, values: np.ndarray) -> list[pa.Table]:
        s = np.bincount(self.codes, weights=values, minlength=self.n)
        return [pa.table({"node": n, "m": s[p]})
                for n, p in zip(self.targets, self.peers)]


def scatter_add(nodes: pa.Array, msg: pa.Table, col: str) -> np.ndarray:
    """Per-node sums of ``msg[col]`` over rows keyed by ``msg["node"]``
    (each one of ``nodes``), added in row order."""
    vals = msg[col].to_numpy()
    acc = np.zeros(len(nodes), vals.dtype)
    np.add.at(acc, positions(msg["node"], nodes), vals)
    return acc


def csr_edges(off: np.ndarray, rows: np.ndarray) -> tuple:
    """Every edge of ``rows`` in a CSR adjacency with offsets ``off``:
    ``(flat edge positions, the row of each)``, row by row."""
    cnt = off[rows + 1] - off[rows]
    idx = (np.repeat(off[rows], cnt) + np.arange(int(cnt.sum()))
           - np.repeat(np.cumsum(cnt) - cnt, cnt))
    return idx, np.repeat(rows, cnt)


def by_bucket(t: pa.Table, bk: np.ndarray, B: int) -> list[pa.Table]:
    """``t``'s rows split by their bucket ids ``bk`` into ``B``
    tables, zero-row where a bucket gets none."""
    return [t.filter(pa.array(bk == b)) for b in range(B)] if B > 1 else [t]


# The helpers below use Ray Data internals (as of ray 2.49.2):
# ``block_meta`` and ``blocks_dataset`` are ``from_arrow_refs`` split in
# two, so the metadata is computed by the task that made the block
# instead of one extra task per block; ``_blocks`` reads a
# materialized Dataset's blocks back out of its logical plan.
def block_meta(block):
    """``block``'s ``BlockMetadataWithSchema``, for ``blocks_dataset``
    (call it in the task that produced the block)."""
    from ray.data._internal.util import get_table_block_metadata_schema

    return get_table_block_metadata_schema(block)


def blocks_dataset(refs: list, metas: list):
    """Block refs plus their ``block_meta`` results -> the
    MaterializedDataset ``rd.from_arrow_refs(refs)`` would build,
    starting no task, with its plan marked executed."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import _take_first_non_empty_schema
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": metas}, parent=None),
        DataContext.get_current().copy())
    op = FromArrow(refs, metas)
    ds = MaterializedDataset(plan, LogicalPlan(op, plan._context))
    # The snapshot ``ExecutionPlan.execute`` leaves on a source operator
    # that holds its blocks (as ``materialize()`` does for its output),
    # without that call's object-store stats RPC. With it,
    # ``to_arrow_refs``, ``materialize`` and ``schema`` read these blocks
    # instead of starting a streaming execution, and a Dataset of empty
    # blocks keeps their schema instead of running a ``limit(1)`` probe.
    plan._snapshot_bundle = RefBundle(
        tuple(zip(refs, metas)), owns_blocks=False,
        schema=_take_first_non_empty_schema(m.schema for m in metas))
    plan._snapshot_operator = op
    plan._snapshot_stats = plan._in_stats
    return ds


def materialized(ds):
    """``ds`` itself when it is already a MaterializedDataset (no deep
    copy, stats RPC or executor start), else ``ds.materialize()``."""
    from ray.data.dataset import MaterializedDataset

    return ds if isinstance(ds, MaterializedDataset) else ds.materialize()


def _blocks(ds) -> list[tuple]:
    """``(ref, size_bytes)`` of every block of ``materialized(ds)``, in
    order, read from the source operator that holds them (``InputData``
    after ``materialize()``, ``FromArrow`` and the other ``from_*``
    operators otherwise): the inverse of ``blocks_dataset``. Unlike
    ``to_arrow_refs`` or ``iter_internal_ref_bundles`` this starts no
    streaming execution, ``limit(1)`` schema probe or plan copy, so a
    lazy plan runs once and a materialized one not at all."""
    bundles = materialized(ds)._logical_plan.dag.output_data()
    return [(ref, meta.size_bytes or 0)
            for bundle in bundles for ref, meta in bundle.blocks]


def block_refs(ds) -> list:
    """The block refs of ``_blocks(ds)``, in order."""
    return [ref for ref, _ in _blocks(ds)]


def split_dataset_by_bucket(ds, col: str, n_buckets: int) -> list[list]:
    """Dataset -> ``n_buckets`` lists of table refs, rows routed by
    functions.hashing.bucket_of over ``col`` (the shard actors' node
    ownership)."""
    from ..functions.hashing import bucket_of

    return _split(ds, col, n_buckets, lambda v: bucket_of(v, n_buckets))


# most input bytes one split or gather task takes
_SPLIT_TARGET_BYTES = 64 << 20


def _session_cpus() -> int:
    """The session's CPUs: the width every run below is cut for."""
    import ray

    return int(ray.cluster_resources().get("CPU", 1))


def _block_groups(blocks: list[tuple], n_cpus: int) -> list[list]:
    """``(ref, size_bytes)`` pairs -> runs of consecutive refs of at
    most ``min(_SPLIT_TARGET_BYTES, total bytes / n_cpus)`` each (or
    one larger block), so equal blocks make at least
    ``min(len(blocks), n_cpus)`` runs and every CPU gets a task."""
    target = min(_SPLIT_TARGET_BYTES,
                 sum(n for _, n in blocks) // max(n_cpus, 1))
    groups, size = [], 0
    for ref, n in blocks:
        if not groups or size + n > target:
            groups.append([])
            size = 0
        groups[-1].append(ref)
        size += n
    return groups


def _gather_runs(B: int, n_bytes: int, n_cpus: int) -> list[list[int]]:
    """Runs of consecutive bucket ids, one gather task each: the
    ``_block_groups`` of ``B`` buckets holding an equal share of the
    input's ``n_bytes`` (one byte at least). So a wide session gets at
    least ``min(B, n_cpus)`` gathers, one CPU gets one for up to
    ``_SPLIT_TARGET_BYTES``, and a bucket of that size or more gets its
    own."""
    return _block_groups([(t, max(n_bytes // B, 1)) for t in range(B)],
                         n_cpus)


def _split_blocks(blocks, col: str, B: int, to_bucket) -> list[pa.Table]:
    """The split behind every exchange here (run in a task): rows of
    ``blocks`` routed by ``to_bucket(col values) -> int ids`` into
    ``B`` tables. Blocks that are empty or lack ``col`` (the
    schema-less empties Ray Data can leave) add no rows; with no
    others the parts are zero-row, which every consumer drops. A
    bucket id outside ``[0, B)`` raises instead of losing its row."""
    from ray.data.block import BlockAccessor

    tbls = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    got = [t for t in tbls if t.num_rows and col in t.column_names]
    if not got:
        return [tbls[0].slice(0, 0)] * B
    tbl = pa.concat_tables(got).combine_chunks()
    bk = np.asarray(to_bucket(tbl[col].combine_chunks()))
    if not ((bk >= 0) & (bk < B)).all():
        raise ValueError(f"bucket id of {col!r} outside "
                         f"[0, {B}): {bk.min()}..{bk.max()}")
    return by_bucket(tbl, bk, B)


def _split_runs(groups: list[list], col: str, B: int,
                to_bucket) -> list[list]:
    """One split task per run of block refs (``_block_groups``, passed
    as arguments) -> ``B`` lists of part refs, one per task each."""
    import ray

    @ray.remote
    def split(*blocks):
        parts = _split_blocks(blocks, col, B, to_bucket)
        return tuple(parts) if B > 1 else parts[0]

    cols: list[list] = [[] for _ in range(B)]
    for group in groups:
        out = split.options(num_returns=B).remote(*group)
        for t, part in enumerate(out if B > 1 else [out]):
            cols[t].append(part)
    return cols


def _split(ds, col: str, B: int, to_bucket) -> list[list]:
    """``ds``'s blocks split by ``_split_runs`` in runs cut for the
    session's width; returns ``B`` lists of part refs."""
    return _split_runs(_block_groups(_blocks(ds), _session_cpus()),
                       col, B, to_bucket)


def _gather_run(buckets: list[list[list]], fn, empty_result) -> tuple:
    """The gather behind every exchange here (run in a task):
    ``buckets[i][s]`` holds side ``s``'s part tables of the run's
    ``i``-th bucket. Each side's parts are concatenated (``None`` when
    none has rows) and handed to ``fn``; a bucket with no rows on any
    side returns ``empty_result`` when given. Returns every bucket's
    output, then the list of their ``block_meta``."""
    outs = []
    for sides in buckets:
        tbls = []
        for parts in sides:
            got = [t for t in parts if t.num_rows]
            tbls.append(pa.concat_tables(got).combine_chunks()
                        if got else None)
        if empty_result is not None and all(t is None for t in tbls):
            outs.append(empty_result)
        else:
            outs.append(fn(*tbls))
    return (*outs, [block_meta(t) for t in outs])


def scatter_apply_by_value(ds, bucket_col: str, n_buckets: int, fn,
                           empty_result: pa.Table | None = None):
    """Task-level hash exchange: Dataset whose ``bucket_col`` already
    holds int bucket ids in ``[0, n_buckets)`` -> per-bucket
    ``fn(concat(bucket rows))`` -> Dataset, with NO sort: the one-side
    case of ``multiway_cogroup_scatter``, routed by the column's value.

    Ray's ``groupby(bucket).map_groups`` runs a SORT-based all-to-all
    (sample + range partition + per-partition sort) that dominated the
    flagship dedup wall at 1M docs (41 s of a 60 s run at 16 cpus);
    rows that already carry their bucket need none of it. ``fn`` must
    be serializable and accept one ``pa.Table``.

    Empty buckets: ``fn`` is called on a schema-carrying empty table
    of the input schema, unless ``empty_result`` is given — then that
    is returned instead (pass it whenever ``fn`` needs rows)."""
    import ray.data as rd

    sch = ds.schema()
    if sch is None:
        # fully-empty dataset: nothing to scatter, no schema to hand fn
        return ds if empty_result is None else rd.from_arrow(empty_result)
    empty = pa.schema(list(zip(sch.names, sch.types))).empty_table()

    def apply(t):
        if t is not None:
            return fn(t)
        return fn(empty) if empty_result is None else empty_result

    return multiway_cogroup_scatter(
        [(ds, bucket_col)], n_buckets, apply,
        key_to_bucket=lambda v: v.to_numpy(zero_copy_only=False))


def _hash_key(values, B: int):
    """Vectorized key -> bucket id, shared by every side of a cogroup
    so co-location holds: an int mix for integer keys (casting
    millions of ids to strings for the polars hash cost more than the
    exchange itself), functions.hashing.bucket_of over the string
    form otherwise."""
    from ..functions.hashing import bucket_of

    if pa.types.is_integer(values.type):
        # nulls -> 0 first: a null-bearing column converts to float64,
        # which would round large keys into another side's bucket
        v = values.fill_null(0).to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = v * np.uint64(0x9E3779B97F4A7C15)
        return ((h >> np.uint64(32)).astype(np.int64) % B).astype(np.int32)
    if not pa.types.is_string(values.type):
        values = pc.cast(values, pa.string())
    return bucket_of(values, B).to_numpy(zero_copy_only=False)


def multiway_cogroup_scatter(sides, n_buckets: int, fn,
                             key_to_bucket=None,
                             empty_result: pa.Table = None):
    """N-ary task-level hash cogroup: ``fn(t0, …, tN-1)`` per bucket
    over any number of sides, each given as ``(dataset, key_column)``,
    with NO sort and no tagged union. Each side is split on its own
    key column by the shared split (``_split_runs``); one gather task
    per run of consecutive buckets (``_gather_runs``) concatenates
    each side and applies ``fn`` once per bucket. When one split run
    per side and one gather run cover everything, one task does the
    splits and the gather. Every row moves once through the object
    store. A side's table arrives as ``None`` when its bucket holds
    none of its rows; a bucket with no rows at all returns
    ``empty_result`` when given. The output is one block per bucket,
    in bucket order. k sequential binary joins on ONE shared key pay
    k exchange barriers for what is one co-partitioned local join —
    this pays one.

    Lazy sides are materialized here; materialized ones
    (``from_arrow_refs`` outputs included) hand over their blocks.
    Returns once every gather is done.

    ``key_to_bucket``: vectorized ``values -> int bucket ids``, the
    SAME function for every side (default ``_hash_key``)."""
    return blocks_dataset(*cogroup_scatter_refs(
        sides, n_buckets, fn, key_to_bucket, empty_result))


def cogroup_scatter_refs(sides, n_buckets: int, fn, key_to_bucket=None,
                         empty_result: pa.Table = None) -> tuple:
    """``multiway_cogroup_scatter``'s exchange -> ``(refs, metas)``:
    one output block ref per bucket, in bucket order, and their
    ``block_meta``. For a caller that reads the (small) outputs itself
    with ``ray.get``, which starts no Dataset execution."""
    import ray

    B = n_buckets
    to_bucket = key_to_bucket or (lambda v: _hash_key(v, B))
    keys = [key for _, key in sides]
    n_cpus = _session_cpus()
    sized = [_blocks(ds) for ds, _ in sides]
    groups = [_block_groups(b, n_cpus) for b in sized]
    runs = _gather_runs(B, sum(n for b in sized for _, n in b), n_cpus)

    if len(runs) == 1 and all(len(g) <= 1 for g in groups):
        @ray.remote
        def exchange(counts, *blocks):
            it = iter(blocks)
            parts = [_split_blocks([next(it) for _ in range(n)], key, B,
                                   to_bucket) if n else []
                     for n, key in zip(counts, keys)]
            return _gather_run([[p[t:t + 1] for p in parts]
                                for t in range(B)], fn, empty_result)

        outs = [exchange.options(num_returns=B + 1).remote(
            [len(g[0]) if g else 0 for g in groups],
            *[r for g in groups for run in g for r in run])]
    else:
        @ray.remote
        def gather(shape, *parts):
            # parts arrive as task arguments, resolved before the task
            # starts: a gather never blocks a worker waiting on splits
            it = iter(parts)
            return _gather_run([[[next(it) for _ in range(n)] for n in row]
                                for row in shape], fn, empty_result)

        cols = [_split_runs(g, key, B, to_bucket)
                for g, key in zip(groups, keys)]
        outs = [gather.options(num_returns=len(run) + 1).remote(
            [[len(c[t]) for c in cols] for t in run],
            *[r for t in run for c in cols for r in c[t]])
            for run in runs]
    # gather outputs are driver-owned task returns (refs only: rows
    # never land on the driver; the metadata lists do)
    metas = ray.get([out[-1] for out in outs])
    return ([r for out in outs for r in out[:-1]],
            [m for ms in metas for m in ms])
