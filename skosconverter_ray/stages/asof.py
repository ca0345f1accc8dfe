"""As-of join — "latest right row at or before each left row's time".

Ray Data has no temporal join, so this composes one (SURVEY.md §2
custom-operator recipe (a)): both sides are split on the equality key
by the shared key hash and cogrouped in ONE task exchange
(shardutil.multiway_cogroup_scatter, no sort, no tagged union), then
resolved inside each bucket with a fully vectorized merge of the
bucket's left and right rows:

    sort (key, ts, side[right first]) -> running last-right-row index
    (np.maximum.accumulate) guarded by the running segment head so a
    key never sees another key's rows -> gather right payloads.

Partitioning assumption: all rows of one equality key land in one
bucket (hash(key) % B). Per-bucket input is |left|+|right| / B rows;
B sizes to ~4x total cores. Skewed keys: same story as every cogroup
— pre-split by time range if one key's rows blow the block budget.

Semantics match DuckDB's ``ASOF JOIN ... ON l.key = r.key AND
l.ts >= r.ts`` (inner: unmatched left rows drop; equal timestamps
match).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def asof_join(left_ds, right_ds, *, key: str, ts: str,
              right_cols: list[str], num_buckets: int = 32,
              prefix: str = "r_",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None):
    """Returns left rows + ``prefix``-renamed right payload columns of
    the latest right row with ``right.ts <= left.ts`` (inner join).

    ``key`` must be integer-typed on both sides; ``ts`` must be
    timestamp or numeric and identically typed.

    Pass ``left_schema``/``right_schema`` whenever a side is a LAZY
    multi-stage pipeline: ``Dataset.schema()`` executes a partial pass
    of the upstream to infer types (the repo's documented pitfall), so
    omitting them on a derived input silently re-runs that lineage.
    """
    if left_schema is None:
        left_schema = left_ds.schema()
    l_names = list(left_schema.names)
    if right_schema is None:
        right_schema = right_ds.schema()
    r_types = dict(zip(right_schema.names, right_schema.types))
    out_schema = pa.schema(
        list(zip(l_names, left_schema.types))
        + [(prefix + c, r_types[c]) for c in right_cols])

    def resolve(left, right) -> pa.Table:
        if left is None or right is None:
            return out_schema.empty_table()
        nl = left.num_rows

        def both(col):
            return np.concatenate(
                [left[col].to_numpy(zero_copy_only=False),
                 right[col].to_numpy(zero_copy_only=False)])

        k, t = both(key), both(ts)
        side = np.repeat(np.array([0, 1], np.int8), [nl, right.num_rows])
        # right rows first at equal (key, ts) so ts >= ts matches:
        # sort key (1 - side) puts side=1 (right) ahead of side=0
        order = np.lexsort((1 - side, t, k))
        k_s, side_s = k[order], side[order]
        idx = np.arange(len(order))
        last_right = np.maximum.accumulate(
            np.where(side_s == 1, idx, -1))
        key_head = np.maximum.accumulate(
            np.where(np.concatenate(([True], k_s[1:] != k_s[:-1])), idx, -1))
        valid = (side_s == 0) & (last_right >= key_head)
        lp = pa.array(order[valid], pa.int64())
        rp = pa.array(order[last_right[valid]] - nl, pa.int64())
        cols = {name: left[name].take(lp) for name in l_names}
        cols.update({prefix + c: right[c].take(rp) for c in right_cols})
        return pa.table(cols, schema=out_schema)

    from .shardutil import multiway_cogroup_scatter

    return multiway_cogroup_scatter(
        [(left_ds, key), (right_ds, key)], num_buckets, resolve,
        empty_result=out_schema.empty_table())
