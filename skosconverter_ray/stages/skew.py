"""Salted two-phase aggregation — hub-key skew handling (A9).

The north rule calls out hub concepts (scheme roots with millions of
narrower edges / mentions) as the skew hazard: a plain ``groupby(key)``
sends every row of a hot key to ONE reduce task, which then dominates
the stage wall-clock. The classic fix (SURVEY.md §2.5 A9):

1. **salt**: extend the key to ``(key, salt)`` where salt is a
   deterministic per-row value in ``[0, S)`` — here ``row_index % S``
   within each block, which is both deterministic and uniform without
   hashing anything.
2. **partial aggregate** on the salted key: a hot key's rows now fan
   out across S reduce tasks, each producing one partial row.
3. **final aggregate** on the bare key over the (tiny, <= S rows per
   key) partials, with the combining op per aggregate kind
   (sum-of-sums, sum-of-counts, min-of-mins, max-of-maxes).

Only algebraic aggregates compose this way; that covers everything the
engine shuffles at scale (counts, sums in integer cents, min/max).

Ray Data's own groupby does partial combining per block already, but
its reduce of a single key is still single-task; salting bounds the
per-task reduce input for pathological keys regardless of the number
of blocks a hot key spans.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# spec ops -> (partial Ray aggregate, final Ray aggregate)
_ALGEBRAIC = {"sum", "count", "min", "max"}


def salted_aggregate(ds, keys: list[str], specs: list[tuple[str, str, str]],
                     *, salt_buckets: int = 16):
    """``specs`` is ``[(op, col, alias)]`` with op in sum|count|min|max
    (count ignores ``col``). Returns a Dataset grouped by ``keys`` with
    one column per alias — same result as a direct groupby-aggregate,
    but skew-resistant."""
    from ray.data.aggregate import Max, Min, Sum

    from ..config import use_hash_shuffle
    use_hash_shuffle()

    for op, _, _ in specs:
        if op not in _ALGEBRAIC:
            raise ValueError(f"non-algebraic aggregate {op!r} cannot be salted")

    def add_salt(batch: pa.Table) -> pa.Table:
        salt = np.arange(batch.num_rows, dtype=np.int32) % salt_buckets
        return batch.append_column("_salt", pa.array(salt, pa.int32()))

    salted = ds.map_batches(add_salt, batch_format="pyarrow")

    partial_aggs, final_aggs = [], []
    for op, col, alias in specs:
        if op == "sum":
            partial_aggs.append(Sum(col, alias_name=alias))
            final_aggs.append(Sum(alias, alias_name=alias))
        elif op == "count":
            # count partials = per-salt-bucket counts summed at final
            from ray.data.aggregate import Count

            partial_aggs.append(Count(alias_name=alias))
            final_aggs.append(Sum(alias, alias_name=alias))
        elif op == "min":
            partial_aggs.append(Min(col, alias_name=alias))
            final_aggs.append(Min(alias, alias_name=alias))
        elif op == "max":
            partial_aggs.append(Max(col, alias_name=alias))
            final_aggs.append(Max(alias, alias_name=alias))

    partial = salted.groupby(keys + ["_salt"]).aggregate(*partial_aggs)
    partial = partial.drop_columns(["_salt"])
    return partial.groupby(keys).aggregate(*final_aggs)


# final combining op per partial kind: sum-of-sums, sum-of-counts,
# min-of-mins, max-of-maxes
_FINAL_OP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def bucket_codes(col, num_buckets: int, *, seed: int = 11) -> np.ndarray:
    """Key column -> int32 bucket ids in [0, num_buckets): the shared
    co-location hash for every coarse-cogroup operator (aggregate,
    top-k). Integers take a 64-bit odd-multiplier mix; anything else
    is cast to string and runs through the vectorized seeded hash."""
    from ..functions.hashing import hash_strings

    if pa.types.is_integer(col.type):
        k = col.to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    else:
        h = hash_strings(pc.cast(col, pa.string()), seed=seed)
    return (h % np.uint64(num_buckets)).astype(np.int32)


def bucket_aggregate(ds, keys: list[str], specs: list[tuple[str, str, str]],
                     *, num_buckets: int = 64, bucket_key: str | None = None):
    """High-cardinality groupby-aggregate as ONE coarse cogroup.

    Ray's sort-based ``groupby(key).aggregate`` pays a full sort
    exchange keyed on the group key — measured 5.1 s for 600k rows →
    147k groups at 32 cpus — because the exchange must range-partition
    and merge-sort on a 147k-cardinality key. This shape pays a
    ``num_buckets``-way hash shuffle instead (measured 1.8 s, same
    input):

    1. **map-side combine**: pyarrow ``Table.group_by`` per batch.
       Only algebraic partials (sum/count/min/max), so re-combining
       across batches is exact regardless of row placement.
    2. **bucket**: ``_bucket = mix(key) % num_buckets``. Hashing a
       key SUBSET (``bucket_key``, default ``keys[0]``) is sufficient
       — it co-locates every partial of a group in one bucket; the
       in-bucket ``group_by`` still keys on the full key tuple.
    3. **final combine**: the task exchange
       (shardutil.scatter_apply_by_value, no sort) with one
       vectorized pyarrow ``group_by`` per bucket.

    Per-task input is bounded by ≈|groups|/num_buckets partial rows —
    at 100 TB raise ``num_buckets`` with the expected group count (it
    is the reduce-side parallelism). For few hot keys use
    ``salted_aggregate`` instead; this helper targets MANY distinct
    keys where the sort exchange, not per-key reduce skew, dominates.

    ``specs`` is ``[(op, col, alias)]`` with op in sum|count|min|max
    (count ignores ``col``). Output: ``keys`` + one column per alias,
    same values as a direct groupby-aggregate.
    """
    bkey = bucket_key or keys[0]

    partial_aggs, partial_names, final_aggs = [], [], []
    for op, col, alias in specs:
        if op not in _ALGEBRAIC:
            raise ValueError(f"non-algebraic aggregate {op!r}")
        if op == "count":
            partial_aggs.append(([], "count_all"))
            partial_names.append("count_all")
        else:
            partial_aggs.append((col, op))
            partial_names.append(f"{col}_{op}")
        final_aggs.append((alias, _FINAL_OP[op]))

    def combine(batch: pa.Table) -> pa.Table:
        part = batch.group_by(keys).aggregate(partial_aggs)
        # pyarrow emits aggregate columns first? column order varies by
        # version — select by NAME, never position
        cols = {k: part[k] for k in keys}
        for (op, col, alias), pname in zip(specs, partial_names):
            cols[alias] = part[pname]
        out = pa.table(cols)
        b = bucket_codes(out[bkey], num_buckets)
        return out.append_column("_bucket", pa.array(b, pa.int32()))

    def final(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            # empty bucket: the partials' columns are the output's
            return group.select(keys + [a for _, _, a in specs])
        merged = group.drop_columns(["_bucket"]).group_by(keys) \
                      .aggregate(final_aggs)
        cols = {k: merged[k] for k in keys}
        for (_, _, alias), (fa, fop) in zip(specs, final_aggs):
            cols[alias] = merged[f"{fa}_{fop}"]
        return pa.table(cols)

    # partials are map-side combined (one row per group per batch),
    # so materializing them for the exchange is cheap
    from .shardutil import scatter_apply_by_value

    partials = ds.map_batches(combine, batch_format="pyarrow")
    return scatter_apply_by_value(partials.materialize(), "_bucket",
                                  num_buckets, final)
