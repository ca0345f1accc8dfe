"""Bucket-cogroup hash join — robust distributed join primitive.

Ray 2.49's ``Dataset.join`` crashes when any hash partition receives
zero rows on a side: the join aggregator builds a schema-less empty
table and Arrow's join can't resolve the key fields
(ray/data/_internal/execution/operators/join.py:103-118 builds from an
empty ArrowBlockBuilder). Sparse keys + small inputs make that routine,
so the engine's dedup/verify paths use this instead:

1. each side is split on its own key column by one shared key hash
   (shardutil.multiway_cogroup_scatter): no tagged union, no sort;
2. each bucket's left and right rows reach one gather call (``None``
   for a side with none there; a gather task takes a run of buckets);
3. inside each bucket the join is a LOCAL vectorized
   ``pa.Table.join`` — one Python call per bucket (B total), never
   one per key.

Scale shape: the shuffle moves each row once (same as a hash join);
B bounds per-task memory (corpus/B rows per bucket) and should be
sized ~4x total cores. Skewed join keys behave like any groupby —
salt upstream if a single key's rows exceed a bucket budget.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def cogroup_join(left_ds, right_ds, *, left_on: str, right_on: str,
                 num_buckets: int = 32, join_type: str = "inner",
                 left_schema: pa.Schema | None = None,
                 right_schema: pa.Schema | None = None):
    """Join two Datasets on single key columns. Column sets of the two
    sides must be disjoint apart from the keys (rename upstream).

    ``join_type`` accepts Arrow's types including ``"left semi"`` /
    ``"left anti"`` — those return LEFT columns only and are the
    engine's distributed semi/anti join: both sides shuffle once into
    key buckets, existence is decided per-bucket locally, and no key
    set ever collects on the driver (the driver-collected ``np.isin``
    anti-join shape is a driver OOM at scale).

    Pass ``left_schema``/``right_schema`` whenever the side is a LAZY
    dataset: ``Dataset.schema()`` on a lazy pipeline executes a partial
    pass of its whole upstream to infer types, so a chain of two
    cogroup_joins would re-execute join #1 once just to get its schema.
    """
    if left_schema is None:
        left_schema = pa.schema(
            list(zip(left_ds.schema().names, left_ds.schema().types)))
    if right_schema is None:
        right_schema = pa.schema(
            list(zip(right_ds.schema().names, right_ds.schema().types)))
    l_key_t = left_schema.field(left_on).type
    r_key_t = right_schema.field(right_on).type
    if l_key_t != r_key_t:
        # outer joins restore the dropped right key by casting the left
        # key — a silent lossy cast (int64->int32 overflow) would raise
        # deep inside a bucket task; fail loudly up front instead
        raise ValueError(
            f"cogroup_join key dtype mismatch: {left_on}={l_key_t} vs "
            f"{right_on}={r_key_t}; cast one side upstream")
    l_fields = list(zip(left_schema.names, left_schema.types))
    r_fields = list(zip(right_schema.names, right_schema.types))
    l_names = [n for n, _ in l_fields]
    r_names = [n for n, _ in r_fields]
    l_schema, r_schema = pa.schema(l_fields), pa.schema(r_fields)
    union_fields = l_fields + [(n, t) for n, t in r_fields
                               if n not in l_names]

    semi_anti = join_type in ("left semi", "left anti")
    out_fields = l_fields if semi_anti else union_fields
    out_schema = pa.schema(out_fields)

    def join_bucket(left, right) -> pa.Table:
        left = (l_schema.empty_table() if left is None
                else left.select(l_names).cast(l_schema))
        right = (r_schema.empty_table() if right is None
                 else right.select(r_names).cast(r_schema))
        if left.num_rows == 0:
            if join_type not in ("full outer", "right outer"):
                return out_schema.empty_table()
            # right-only bucket under an outer join that keeps right
            # rows: left payload nulls, key echoed (coalesced-key
            # semantics, matching Arrow's coalesce_keys=True below)
            cols = {}
            for n, t in out_fields:
                if n in right.column_names:
                    cols[n] = pc.cast(right[n], t)
                elif n == left_on:
                    cols[n] = pc.cast(right[right_on], t)
                else:
                    cols[n] = pa.nulls(right.num_rows, t)
            return pa.table(cols, schema=out_schema)
        if right.num_rows == 0 and join_type in ("inner", "left semi"):
            return out_schema.empty_table()
        if semi_anti:
            if right.num_rows == 0:  # anti: nothing to exclude
                return left.cast(out_schema)
            joined = left.join(right.select([right_on]), keys=[left_on],
                               right_keys=[right_on], join_type=join_type)
            return joined.select(l_names).cast(out_schema)
        # sentinel marks genuinely-matched rows so outer joins can
        # null the restored right key on unmatched rows (a payload
        # column's nullness is ambiguous — it may be null in a match)
        right = right.append_column(
            "_r_matched", pa.array(np.ones(right.num_rows, np.int8)))
        joined = left.join(right, keys=[left_on], right_keys=[right_on],
                           join_type=join_type)
        matched = pc.is_valid(joined["_r_matched"])
        # local join drops the right key; restore full output order,
        # echoing the left key only where a right row actually matched
        cols = {}
        for n, t in out_fields:
            if n in joined.column_names:
                cols[n] = joined[n]
            elif n == right_on:
                cols[n] = pc.if_else(matched, pc.cast(joined[left_on], t),
                                     pa.scalar(None, t))
            else:
                cols[n] = pa.nulls(joined.num_rows, t)
        return pa.table(cols, schema=out_schema)

    from .shardutil import multiway_cogroup_scatter

    return multiway_cogroup_scatter(
        [(left_ds, left_on), (right_ds, right_on)], num_buckets,
        join_bucket, empty_result=out_schema.empty_table())
