"""Gap-based session windows — a windowed-aggregate custom operator.

Ray Data has no event-time window primitive, so sessionization is
composed per SURVEY.md §2's custom-operator recipe (a):
``map_batches`` bucketing + the task exchange
(shardutil.scatter_apply_by_value, no sort) with a fully vectorized
per-bucket body.

Partitioning assumption (documented per the build rules): all rows of
one user fit in one group. Users are bucketed ``user_id % B`` so the
shuffle produces B cogroups (not one tiny group per user); inside a
bucket the session logic is numpy over the lexsorted (user, ts) rows —
no Python loop over rows. B bounds per-task input to |events|/B; at
skewed-user scale, a single pathological user still lands in one task
— cap with an upstream per-(user, day) pre-split if that ever binds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shardutil import scatter_apply_by_value


def sessionize(events_ds, *, gap_s: float = 4 * 3600.0,
               num_buckets: int = 32):
    """events (user_id:int, ts:timestamp, value:double) ->
    (user_id, sess, n_events, total_value, session_start, session_end).

    ``sess`` is the 0-based session ordinal per user (a new session
    starts when the gap to the previous event exceeds ``gap_s``).
    ``total_value`` sums integer cents (exact, order-independent);
    start/end are second-truncated strings.
    """
    gap_us = np.int64(gap_s * 1_000_000)

    def bucket(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "_bucket": pa.array((np.abs(uid) % num_buckets).astype(np.int32),
                                pa.int32()),
            "user_id": batch["user_id"],
            "ts": batch["ts"],
            "v": pc.cast(pc.trunc(pc.multiply(batch["value"],
                                              pa.scalar(100.0))),
                         pa.int64()),
        })

    def sessions(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        v = group["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u_s, ts_s, v_s = u[order], ts[order], v[order]

        user_change = np.concatenate(([True], u_s[1:] != u_s[:-1]))
        gap_break = np.concatenate(
            ([False], (ts_s[1:] - ts_s[:-1]) > gap_us)) & ~user_change
        seg_start = user_change | gap_break
        seg = np.cumsum(seg_start) - 1              # global session id
        # per-user ordinal: seg minus the seg value at the user's head
        head_seg = np.where(user_change, seg, 0)
        head_seg = np.maximum.accumulate(head_seg)
        sess = seg - head_seg

        starts = np.flatnonzero(seg_start)
        ends = np.concatenate((starts[1:], [len(seg)]))
        n = ends - starts
        total = np.add.reduceat(v_s, starts)
        t_start = ts_s[starts]
        t_end = ts_s[ends - 1]

        def fmt(xs):
            arr = xs.astype("datetime64[us]").astype("datetime64[s]")
            return np.char.replace(
                np.datetime_as_string(arr, unit="s"), "T", " ").tolist()

        return pa.table({
            "user_id": pa.array(u_s[starts], pa.int64()),
            "sess": pa.array(sess[starts], pa.int64()),
            "n_events": pa.array(n, pa.int64()),
            "total_value": pa.array(total / 100.0, pa.float64()),
            "session_start": pa.array(fmt(t_start), pa.string()),
            "session_end": pa.array(fmt(t_end), pa.string()),
        })

    tagged = events_ds.map_batches(bucket, batch_format="pyarrow")
    empty = pa.schema([
        ("user_id", pa.int64()), ("sess", pa.int64()),
        ("n_events", pa.int64()), ("total_value", pa.float64()),
        ("session_start", pa.string()), ("session_end", pa.string()),
    ]).empty_table()
    return scatter_apply_by_value(tagged.materialize(), "_bucket",
                                  num_buckets, sessions,
                                  empty_result=empty)



def _tag_user_cents(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Shared map-side tagger for the per-user window operators:
    bucket by user, carry (event_id, user_id, ts) and exact cents."""
    uid = batch["user_id"].to_numpy(zero_copy_only=False)
    return pa.table({
        "_bucket": pa.array((np.abs(uid) % num_buckets).astype(np.int32),
                            pa.int32()),
        "event_id": batch["event_id"],
        "user_id": batch["user_id"],
        "ts": batch["ts"],
        "v": pc.cast(pc.trunc(pc.multiply(batch["value"],
                                          pa.scalar(100.0))),
                     pa.int64()),
    })


def rolling_window(events_ds, *, window_s: float = 3600.0,
                   num_buckets: int = 32,
                   _max_segs_per_chunk: int | None = None):
    """Per-event trailing time-range aggregate — SQL ``RANGE BETWEEN
    INTERVAL w PRECEDING AND CURRENT ROW`` semantics (peers included on
    timestamp ties, window-start inclusive).

    -> (event_id, win_n, win_total): count and exact integer-cents sum
    of the same user's events in ``[ts - window_s, ts]``.

    Same partitioning contract as :func:`sessionize` (user % B bucket
    cogroup; one user per task). The per-group body is ONE pair of
    ``np.searchsorted`` calls over the whole bucket: each (user, ts)
    segment is remapped onto a disjoint strictly-increasing global
    domain ``seg * span + (ts - t0)`` with ``span > max_ts_spread +
    window``, so a window query can never cross a segment boundary —
    no per-user Python loop, O(n log n) per bucket.
    """
    win_us = np.int64(window_s * 1_000_000)

    def roll(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        v = group["v"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u_s, ts_s, v_s, e_s = u[order], ts[order], v[order], eid[order]

        seg_start = np.concatenate(([True], u_s[1:] != u_s[:-1]))
        seg = np.cumsum(seg_start) - 1
        # per-segment relative time: span is bounded by the longest
        # single user's duration, not the corpus time range
        starts_idx = np.flatnonzero(seg_start)
        rel = ts_s - ts_s[starts_idx][seg]
        span = np.int64(rel.max()) + win_us + np.int64(2)
        n_seg = int(seg[-1]) + 1
        # segments whose domain fits int64 per chunk (2^62 headroom);
        # _max_segs_per_chunk exists so tests can force multi-chunk
        segs_per_chunk = max(1, int((1 << 62) // int(span)))
        if _max_segs_per_chunk is not None:
            segs_per_chunk = min(segs_per_chunk, _max_segs_per_chunk)
        csum = np.concatenate(([0], np.cumsum(v_s)))
        lo = np.empty(len(ts_s), np.int64)
        hi = np.empty(len(ts_s), np.int64)
        for c0 in range(0, n_seg, segs_per_chunk):
            m = (seg >= c0) & (seg < c0 + segs_per_chunk)
            base = np.flatnonzero(m)[0]
            gts = (seg[m] - c0) * span + rel[m]
            lo[m] = base + np.searchsorted(gts, gts - win_us, side="left")
            hi[m] = base + np.searchsorted(gts, gts, side="right")
        return pa.table({
            "event_id": pa.array(e_s, pa.int64()),
            "win_n": pa.array(hi - lo, pa.int64()),
            "win_total": pa.array((csum[hi] - csum[lo]) / 100.0,
                                  pa.float64()),
        })

    tagged = events_ds.map_batches(
        lambda b: _tag_user_cents(b, num_buckets), batch_format="pyarrow")
    empty = pa.schema([("event_id", pa.int64()), ("win_n", pa.int64()),
                       ("win_total", pa.float64())]).empty_table()
    return scatter_apply_by_value(tagged.materialize(), "_bucket",
                                  num_buckets, roll, empty_result=empty)


def row_windows(events_ds, *, rows_preceding: int = 4,
                num_buckets: int = 32):
    """Per-event ROWS-frame window family in ONE cogroup pass:

    - ``run_total``: running cents sum, ROWS UNBOUNDED PRECEDING;
    - ``winr_total``: trailing ``rows_preceding``+current cents sum;
    - ``prev_gap_us``: exact integer microseconds since the user's
      previous event (SQL ``lag`` delta; null on each user's first
      event) — integer so it hashes identically to the SQL oracle.

    Frame order is (ts, event_id) — fully deterministic under ties,
    matching ``ORDER BY ts, event_id`` on the SQL side. Same
    partitioning contract and vectorized shape as :func:`sessionize`:
    one lexsort + prefix sums per bucket, no per-user Python.
    """
    def windows(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        v = group["v"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u_s, ts_s, v_s, e_s = u[order], ts[order], v[order], eid[order]

        seg_start = np.concatenate(([True], u_s[1:] != u_s[:-1]))
        seg = np.cumsum(seg_start) - 1
        starts = np.flatnonzero(seg_start)
        pos = np.arange(len(u_s)) - starts[seg]     # 0-based in segment

        csum = np.concatenate(([0], np.cumsum(v_s)))
        idx = np.arange(len(u_s))
        run_total = csum[idx + 1] - csum[starts[seg]]
        lo = np.maximum(idx - rows_preceding, starts[seg])
        winr_total = csum[idx + 1] - csum[lo]

        gap = np.empty(len(u_s), np.float64)
        gap[0] = np.nan
        gap[1:] = (ts_s[1:] - ts_s[:-1]).astype(np.float64)
        gap[pos == 0] = np.nan

        def money(x):
            return pa.array(x / 100.0, pa.float64())

        return pa.table({
            "event_id": pa.array(e_s, pa.int64()),
            "run_total": money(run_total),
            "winr_total": money(winr_total),
            "prev_gap_us": pc.cast(pa.array(
                np.where(np.isnan(gap), None, gap), pa.float64(),
                from_pandas=True), pa.int64()),
        })

    tagged = events_ds.map_batches(
        lambda b: _tag_user_cents(b, num_buckets), batch_format="pyarrow")
    empty = pa.schema([("event_id", pa.int64()),
                       ("run_total", pa.float64()),
                       ("winr_total", pa.float64()),
                       ("prev_gap_us", pa.int64())]).empty_table()
    return scatter_apply_by_value(tagged.materialize(), "_bucket",
                                  num_buckets, windows,
                                  empty_result=empty)


def funnel_sessions(events_ds, *, stages: tuple[str, ...],
                    gap_s: float = 4 * 3600.0, num_buckets: int = 32):
    """Ordered-stage funnel over gap sessions: a session "reaches"
    stage k when an event of type ``stages[k]`` occurs at or after the
    first qualifying stage-(k-1) event. Returns per-bucket partial
    (stage, n_sessions) rows — sum per stage downstream.

    Same single user-bucket cogroup as ``sessionize``; per bucket the
    stage times are per-segment masked ``np.minimum.reduceat`` passes,
    one per funnel stage — no joins, no per-session Python.
    """
    gap_us = np.int64(gap_s * 1_000_000)
    sentinel = np.int64(np.iinfo(np.int64).max)

    def bucket(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "_bucket": pa.array((np.abs(uid) % num_buckets).astype(np.int32),
                                pa.int32()),
            "user_id": batch["user_id"],
            "ts": batch["ts"],
            "event_type": batch["event_type"],
        })

    def funnel(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u_s, ts_s, et_s = u[order], ts[order], et[order]

        user_change = np.concatenate(([True], u_s[1:] != u_s[:-1]))
        gap_break = np.concatenate(
            ([False], (ts_s[1:] - ts_s[:-1]) > gap_us)) & ~user_change
        seg_start = user_change | gap_break
        seg = np.cumsum(seg_start) - 1
        starts = np.flatnonzero(seg_start)

        counts = []
        threshold = np.full(len(starts), np.int64(np.iinfo(np.int64).min))
        for st in stages:
            masked = np.where((et_s == st) & (ts_s >= threshold[seg]),
                              ts_s, sentinel)
            t_k = np.minimum.reduceat(masked, starts)
            counts.append(int((t_k != sentinel).sum()))
            threshold = t_k  # unreached segments carry the sentinel:
            # ts >= sentinel is never true, so later stages stay unreached
        return pa.table({
            "stage": pa.array(list(stages), pa.string()),
            "n_sessions": pa.array(counts, pa.int64()),
        })

    tagged = events_ds.map_batches(bucket, batch_format="pyarrow")
    empty = pa.schema([("stage", pa.string()),
                       ("n_sessions", pa.int64())]).empty_table()
    return scatter_apply_by_value(tagged.materialize(), "_bucket",
                                  num_buckets, funnel,
                                  empty_result=empty)
