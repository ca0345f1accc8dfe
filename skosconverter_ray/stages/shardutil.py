"""Shared plumbing for the Pregel-tier shard-actor engines and the
task-level hash exchanges.

``ShardGroup`` is the one runner behind every shard-actor engine: the
PageRank/PPR, HITS and k-core shards (stages/graph.py), the
label-propagation shards (communities.py), the union-find shards
(canonicalize.py) and the tree-order propagation shards
(hierarchy.py). A shard class supplies ``load``/``emit``/``apply``
style methods over numpy state plus ``result() -> pa.Table``; the
group creates the actors, runs synchronous waves, relays each wave's
B×B per-peer message refs and collects the results.

``split_dataset_by_bucket`` scatters a materialized Dataset's blocks
into per-bucket table refs: one remote split task per block, data
moving block → split task → shard actor (setup only). Shard actors
then ``ray.get`` exactly their column of refs — the driver relays
refs, never rows.

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

import pyarrow as pa


class ShardGroup:
    """``n_shards`` zero-CPU actors of ``shard_cls``, constructed as
    ``shard_cls(b, n_shards, *args)``, killed when the ``with`` block
    exits (normally or not).

    Split the inputs (``split_dataset_by_bucket``) BEFORE entering:
    the actors reserve no CPUs, but they block in ``load`` on the
    split tasks, and B actors reserving B x num_cpus would starve
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
        """One synchronous wave: ``method`` on every shard, results in
        shard order. Shard ``b`` gets the ``b``-th item of each
        positional sequence, then every keyword argument as is."""
        import ray

        return ray.get([
            getattr(s, method).remote(*(a[b] for a in per_shard),
                                      **broadcast)
            for b, s in enumerate(self.shards)])

    def relay(self, outs) -> list[list]:
        """B per-shard lists of B peer refs (``None`` = nothing for
        that peer) -> B inboxes; inbox ``t`` holds every ref addressed
        to shard ``t``. The driver moves refs, never message rows."""
        B = self.B
        return [[outs[b][t] for b in range(B) if outs[b][t] is not None]
                for t in range(B)]

    def collect(self):
        """Every shard's ``result()`` table as one materialized
        Dataset (materialized before the actors die)."""
        import ray.data as rd

        return rd.from_arrow_refs(
            [s.result.remote() for s in self.shards]).materialize()


def split_dataset_by_bucket(ds, col: str, n_buckets: int) -> list[list]:
    """Materialized Dataset -> ``n_buckets`` lists of table refs,
    bucketed by ``bucket_of(col)``. Schema-less empty blocks (the
    groupby/map_groups pitfall) yield zero-row parts that loaders
    drop."""
    import ray

    from ..functions.hashing import bucket_of

    B = n_buckets

    @ray.remote(num_returns=B)
    def split(tbl: pa.Table):
        if col not in tbl.column_names or tbl.num_rows == 0:
            parts = tuple(tbl.slice(0, 0) for _ in range(B))
        else:
            bk = bucket_of(tbl[col].combine_chunks(), B) \
                .to_numpy(zero_copy_only=False)
            parts = tuple(tbl.filter(pa.array(bk == t))
                          for t in range(B))
        return parts if B > 1 else parts[0]

    cols: list[list] = [[] for _ in range(B)]
    for ref in ds.to_arrow_refs():
        out = split.remote(ref)
        if B == 1:
            out = [out]
        for t, part in enumerate(out):
            cols[t].append(part)
    return cols


def scatter_apply_by_value(ds, bucket_col: str, n_buckets: int, fn,
                           empty_result: pa.Table | None = None):
    """Task-level hash exchange: materialized Dataset -> per-bucket
    ``fn(concat(bucket tables))`` -> Dataset, with NO sort.

    Ray's ``groupby(bucket).map_groups`` runs a SORT-based all-to-all
    (sample + range partition + per-partition sort) that dominated the
    flagship dedup wall at 1M docs (41 s of a 60 s run at 16 cpus).
    When rows already carry an int bucket column in [0, n_buckets),
    grouping needs none of that: one split task per block scatters
    rows by bucket value, one gather task per bucket concatenates its
    parts and applies ``fn``. Every row moves once through the object
    store; wall is max(split) + max(gather). ``fn`` must be
    serializable and accept one ``pa.Table``.

    ``empty_result``: schema-correct empty output returned for empty
    buckets INSTEAD of calling ``fn`` — pass it when ``fn`` assumes
    non-empty input (``groupby().map_groups`` never delivered empty
    groups; this exchange otherwise calls ``fn`` on a schema-carrying
    empty table)."""
    import numpy as np
    import ray
    import ray.data as rd

    B = n_buckets
    # unified schema up front: upstream map_groups can leave EMPTY
    # schema-less blocks in a materialized dataset — their slices must
    # not define any bucket's schema, and the all-empty gather path
    # needs a real schema to hand fn
    sch = ds.schema()
    if sch is None:
        # fully-empty materialized dataset (schema() is None): nothing
        # to scatter and no input schema to hand fn
        if empty_result is not None:
            import ray.data as rd

            return rd.from_arrow(empty_result)
        return ds
    schema = pa.schema(list(zip(sch.names, sch.types)))

    @ray.remote(num_returns=B)
    def split(tbl: pa.Table):
        if tbl.num_rows == 0 or bucket_col not in tbl.column_names:
            parts = tuple(schema.empty_table() for _ in range(B))
        else:
            bk = tbl[bucket_col].to_numpy(zero_copy_only=False)
            parts = tuple(tbl.filter(pa.array(bk == t))
                          for t in range(B))
        return parts if B > 1 else parts[0]

    @ray.remote
    def gather(*parts):
        tbls = [p for p in parts if p.num_rows]
        if not tbls:
            if empty_result is not None:
                return empty_result
            return fn(schema.empty_table())
        return fn(pa.concat_tables(tbls).combine_chunks())

    in_refs = ds.to_arrow_refs()
    if not in_refs:
        # zero-block input: fn still defines the output schema (e.g. a
        # join's output differs from its tagged input) — apply it to a
        # schema-carrying empty table on the driver
        if empty_result is not None:
            return rd.from_arrow(empty_result)
        return rd.from_arrow(fn(schema.empty_table()))
    cols: list[list] = [[] for _ in range(B)]
    for ref in in_refs:
        out = split.remote(ref)
        if B == 1:
            out = [out]
        for t, part in enumerate(out):
            cols[t].append(part)

    # gather outputs are driver-owned task returns (refs only — rows
    # never land on the driver)
    return rd.from_arrow_refs([gather.remote(*cols[t]) for t in range(B)])


def multiway_cogroup_scatter(sides, n_buckets: int, fn,
                             key_to_bucket=None,
                             empty_result: pa.Table = None):
    """N-ary task-level hash cogroup: ``fn(t0, …, tN-1)`` per bucket
    over ANY number of materialized sides, each given as
    ``(dataset, key_column)``, with NO sort and NO tagged-union
    re-materialize. The composition shape: k sequential binary
    cogroup joins on ONE shared key pay k exchange barriers for what
    is a single co-partitioned local join — this pays one.

    Inputs must be materialized (``from_arrow_refs`` outputs — as
    scatter_apply_by_value and the banding gathers produce — qualify
    for free: ``to_arrow_refs`` returns their existing refs). One
    split task per block hashes its side's key column; one gather
    task per bucket concatenates each side and applies ``fn``. A
    side's table arrives as ``None`` in ``fn`` when its bucket is
    empty.

    ``key_to_bucket``: vectorized ``values -> int bucket ids``, the
    SAME function for every side so co-location holds (default: an
    int mix for integer keys, functions.hashing.bucket_of over
    stringified keys otherwise)."""
    import ray
    import ray.data as rd

    import pyarrow.compute as pc

    from ..functions.hashing import bucket_of

    B = n_buckets
    if key_to_bucket is None:
        def key_to_bucket(values):
            import numpy as np

            if pa.types.is_integer(values.type):
                # int keys: one vectorized mix — casting millions of
                # ids to strings for the polars hash cost more than
                # the exchange itself (measured on the 5.5M-row
                # banding-pair scatter)
                v = values.to_numpy(zero_copy_only=False) \
                    .astype(np.uint64)
                h = v * np.uint64(0x9E3779B97F4A7C15)
                return ((h >> np.uint64(32)).astype(np.int64)
                        % B).astype(np.int32)
            if not pa.types.is_string(values.type):
                values = pc.cast(values, pa.string())
            return bucket_of(values, B).to_numpy(zero_copy_only=False)

    @ray.remote(num_returns=B)
    def split(tbl: pa.Table, key: str):
        if tbl.num_rows == 0 or key not in tbl.column_names:
            return tuple(None for _ in range(B)) if B > 1 else None
        bk = key_to_bucket(tbl[key].combine_chunks())
        parts = tuple(tbl.filter(pa.array(bk == t)) for t in range(B))
        return parts if B > 1 else parts[0]

    @ray.remote
    def gather(*ref_lists):
        tbls = []
        any_rows = False
        for refs in ref_lists:
            parts = [t for t in ray.get(list(refs))
                     if t is not None and t.num_rows]
            any_rows = any_rows or bool(parts)
            tbls.append(pa.concat_tables(parts).combine_chunks()
                        if parts else None)
        if not any_rows and empty_result is not None:
            return empty_result
        return fn(*tbls)

    all_cols = []
    for ds, key in sides:
        cols: list[list] = [[] for _ in range(B)]
        for ref in ds.to_arrow_refs():
            out = split.remote(ref, key)
            if B == 1:
                out = [out]
            for t, part in enumerate(out):
                cols[t].append(part)
        all_cols.append(cols)
    return rd.from_arrow_refs(
        [gather.remote(*[c[t] for c in all_cols]) for t in range(B)])
