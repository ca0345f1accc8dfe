"""Distributed prefix sum (exclusive scan) in global key order.

The classic two-phase scan, Ray-Data-shaped: range-partition rows by an
integer key into ``num_buckets`` contiguous key ranges, fold per-bucket
sums small-side, exclusive-scan THOSE on the driver (num_buckets
scalars — never the rows), then one pass of the task exchange
(shardutil.scatter_apply_by_value) adds each bucket's base offset to
a local vectorized cumsum. Every row moves exactly once; driver state
is O(num_buckets).

This is the primitive behind sequence packing (concatenate the corpus,
cut every ``cap`` tokens), global row numbering, and cumulative
training-mix accounting. At 100 TB raise ``num_buckets`` so a bucket's
rows fit one task (it is the reduce-side parallelism), exactly like
``bucket_aggregate``."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def keyed_prefix_sum(ds, *, key: str, value: str,
                     key_range: tuple[int, int],
                     num_buckets: int = 32, out_col: str = "off"):
    """Add ``out_col``: the sum of ``value`` over all rows with a
    strictly smaller ``key`` (exclusive prefix sum in key order).
    Keys must be unique integers within ``key_range`` (inclusive)."""
    return _scan(ds, key, value, key_range, num_buckets, out_col, "sum")


def keyed_prefix_max(ds, *, key: str, value: str,
                     key_range: tuple[int, int],
                     num_buckets: int = 32, out_col: str = "runmax"):
    """Add ``out_col``: the INCLUSIVE running maximum of ``value`` in
    ``key`` order (max over all rows with key <= this row's key). Keys
    must be unique integers within ``key_range``.

    Same two-phase scan as keyed_prefix_sum with (max, -inf) replacing
    (sum, 0): per-bucket maxima fold on the driver (num_buckets
    scalars), an exclusive scan of THOSE gives each bucket's base, and
    one pass computes the local inclusive cummax + base. This is the
    event-time WATERMARK primitive: with key = arrival sequence and
    value = event timestamp, out_col is the watermark after each
    element."""
    return _scan(ds, key, value, key_range, num_buckets, out_col, "max")


def _scan(ds, key: str, value: str, key_range: tuple[int, int],
          num_buckets: int, out_col: str, op: str):
    """The two phases of both scans, ``op`` in sum|max."""
    import ray

    from .shardutil import scatter_apply_by_value

    lo, hi = key_range
    width = max(1, (hi - lo) // num_buckets + 1)
    is_sum = op == "sum"
    ident = 0 if is_sum else np.iinfo(np.int64).min

    def add_bucket(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "_pb", pa.array(((k - lo) // width).astype(np.int32)))

    # materialized: consumed by the bucket fold AND the scan pass
    tagged = ds.map_batches(add_bucket, batch_format="pyarrow") \
        .materialize()

    # per-bucket totals, folded on the driver from map-side partials
    # (num_buckets scalars — no exchange)
    tot = np.full(num_buckets, ident, dtype=np.int64)
    fold = np.add if is_sum else np.maximum
    for b in tagged.map_batches(
            lambda b: pa.Table.from_pydict(
                {"_pb": b["_pb"], "_v": b[value]}).group_by("_pb")
            .aggregate([("_v", op)]),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        fold.at(tot, b["_pb"].to_numpy(zero_copy_only=False),
                b[f"_v_{op}"].to_numpy(zero_copy_only=False))
    # each bucket's base: the exclusive scan of the totals
    base_ref = ray.put(np.concatenate(
        ([ident], np.cumsum(tot[:-1]) if is_sum
         else np.maximum.accumulate(tot[:-1]))))

    def scan_bucket(group: pa.Table, _ref=base_ref) -> pa.Table:
        base = ray.get(_ref)[group["_pb"][0].as_py()]
        k = group[key].to_numpy(zero_copy_only=False)
        v = group[value].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(k, kind="stable")
        out = np.empty(len(v), dtype=np.int64)
        out[order] = (np.cumsum(v[order]) - v[order] + base if is_sum
                      else np.maximum(np.maximum.accumulate(v[order]), base))
        return group.drop_columns(["_pb"]).append_column(
            out_col, pa.array(out, pa.int64()))

    # an empty bucket has no first row to read its base off
    sch = tagged.schema()
    empty = None if sch is None else pa.schema(
        [(n, t) for n, t in zip(sch.names, sch.types) if n != "_pb"]
        + [(out_col, pa.int64())]).empty_table()
    return scatter_apply_by_value(tagged, "_pb", num_buckets, scan_bucket,
                                  empty_result=empty)
