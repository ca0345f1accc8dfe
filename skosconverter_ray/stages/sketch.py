"""HyperLogLog distinct-count sketch (mergeable, vectorized).

Exact ``COUNT(DISTINCT x)`` per key needs a shuffle of every distinct
value; at 100 TB the distinct set itself may not fit anywhere. The HLL
sketch replaces it with a fixed 2^p-byte register vector per key:

- **partial** (map side): hash values (64-bit seeded, vectorized),
  register index = top ``p`` bits, rho = 1 + leading-zero count of the
  remaining ``64-p`` bits; per-(key, register) max via one
  ``np.maximum.at`` per batch key-group. Each batch emits ONE row per
  key: ``(key, registers: binary[2^p])``.
- **merge**: element-wise byte max of register blobs — associative and
  commutative, so partials combine in any order; routed through the
  same coarse bucket cogroup as every other aggregate here.
- **estimate**: the standard HLL harmonic mean with small-range
  (linear counting) correction — Flajolet et al. 2007, the public
  algorithm; ±1.04/sqrt(2^p) relative error (p=12 → ~1.6%).

The blob is 4 KiB at p=12 — per KEY, independent of cardinality; the
shuffle moves |keys| × 4 KiB total, never the values.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import hash_strings, mix64


def _rhos(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """hashes -> (register index, rho). rho = 1 + leading zeros of the
    (64-p)-bit suffix, capped at 64-p+1 (all-zero suffix)."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = (h << np.uint64(p)) | ((np.uint64(1) << np.uint64(p)) - np.uint64(1))
    # leading zeros via float64 exponent would lose precision past 2^53;
    # use a halving scan instead (6 steps, fully vectorized)
    lz = np.zeros(len(h), dtype=np.int64)
    shift = np.uint64(32)
    cur = w.copy()
    while shift:
        mask = cur < (np.uint64(1) << (np.uint64(64) - shift))
        lz[mask] += int(shift)
        cur[mask] = cur[mask] << shift
        shift >>= np.uint64(1)
    return idx, np.minimum(lz + 1, 64 - p + 1)


def hll_partial_batch(batch: pa.Table, key_col: str, value_col: str,
                      *, p: int = 12, seed: int = 0x411) -> pa.Table:
    """One register-blob row per distinct key in the batch."""
    m = 1 << p
    keys = batch[key_col]
    enc = keys.combine_chunks().dictionary_encode() \
        if isinstance(keys, pa.ChunkedArray) else keys.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq_keys = enc.dictionary
    vals = batch[value_col]
    if pa.types.is_integer(vals.type):
        v = vals.to_numpy(zero_copy_only=False).astype(np.uint64)
        h = mix64(v + np.uint64(seed))
    else:
        h = hash_strings(vals.cast(pa.string()), seed=seed)
    idx, rho = _rhos(h, p)
    regs = np.zeros((len(uniq_keys), m), dtype=np.uint8)
    np.maximum.at(regs, (codes, idx), rho.astype(np.uint8))
    return pa.table({
        key_col: uniq_keys,
        "hll_regs": pa.array([r.tobytes() for r in regs], pa.binary()),
    })


def hll_merge_blobs(blobs) -> np.ndarray:
    """Element-wise max over register blobs (any iterable of bytes)."""
    stack = np.stack([np.frombuffer(b, dtype=np.uint8) for b in blobs])
    return stack.max(axis=0)


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimate with linear-counting small-range fix."""
    m = regs.size
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def distinct_count_hll(ds, key_col: str, value_col: str, *,
                       p: int = 12, num_buckets: int = 64):
    """Dataset -> (key, n_distinct_est) via mergeable HLL partials and
    one coarse bucket cogroup (same exchange as bucket_aggregate).
    """
    from .shardutil import scatter_apply_by_value
    from .skew import bucket_codes

    def partial(batch: pa.Table) -> pa.Table:
        out = hll_partial_batch(batch, key_col, value_col, p=p)
        b = bucket_codes(out[key_col], num_buckets)
        return out.append_column("_bucket", pa.array(b, pa.int32()))

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["_bucket"])
        if t.num_rows == 0:
            return pa.table({key_col: t[key_col],
                             "n_distinct_est": pa.array([], pa.int64())})
        enc = t[key_col].combine_chunks().dictionary_encode() \
            if isinstance(t[key_col], pa.ChunkedArray) \
            else t[key_col].dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # one vectorized merge: stack all register rows, sort by key
        # code, per-segment byte-max via maximum.reduceat — O(rows·2^p)
        # instead of an O(keys·rows) Python rescan
        stack = np.stack([np.frombuffer(b, np.uint8)
                          for b in t["hll_regs"].to_pylist()])
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.concatenate(
            ([True], codes[order][1:] != codes[order][:-1])))
        merged = np.maximum.reduceat(stack[order], starts, axis=0)
        ests = [round(hll_estimate(m)) for m in merged]
        return pa.table({
            key_col: enc.dictionary.take(
                pa.array(codes[order][starts], pa.int64())),
            "n_distinct_est": pa.array(ests, pa.int64())})

    return scatter_apply_by_value(
        ds.map_batches(partial, batch_format="pyarrow").materialize(),
        "_bucket", num_buckets, final)


# ---------------------------------------------------------------------------
# Frequent items (Misra-Gries / mergeable-summaries heavy hitters)
# ---------------------------------------------------------------------------


def mg_partial_counts(items, capacity: int) -> pa.Table:
    """Exact value_counts truncated to a Misra-Gries summary of size
    ``capacity``: when the batch has more distinct items, every kept
    estimate is decremented by the (capacity+1)-th largest count and
    non-positive rows drop — the classic MG decrement, vectorized.
    Invariant per partial: ``true - n_batch/(capacity+1) <= est <=
    true`` (Agarwal et al., Mergeable Summaries, PODS'12 — public
    algorithm)."""
    if isinstance(items, pa.ChunkedArray):
        items = items.combine_chunks()
    vc = items.value_counts()
    vals, counts = vc.field("values"), vc.field("counts")
    cnt = counts.to_numpy(zero_copy_only=False).astype(np.int64)
    if len(cnt) > capacity:
        order = np.argsort(-cnt, kind="stable")
        thresh = cnt[order[capacity]]
        keep = order[:capacity]
        est = cnt[keep] - thresh
        pos = est > 0
        vals = vals.take(pa.array(keep[pos], pa.int64()))
        est = est[pos]
    else:
        est = cnt
    return pa.table({"item": vals, "est": pa.array(est, pa.int64())})


def frequent_items(ds, col: str, *, capacity: int = 4096,
                   num_buckets: int = 16):
    """Dataset -> (item, est) mergeable heavy-hitter estimates.

    Map side: one MG summary per batch (≤ ``capacity`` rows — the
    shuffle moves summaries, never the token stream). Merge: per-item
    SUM of partial estimates through one coarse bucket cogroup
    (summing MG partials keeps the one-sided bound: est <= true,
    true - est <= Σ n_block/(capacity+1) = N/(capacity+1)).
    Result size ≤ blocks × capacity — callers take the global top-k
    from it. When ``capacity`` exceeds the distinct-item count the
    estimates are EXACT (the oracle-gate regime); past capacity the
    bound above is pytest-pinned.
    """
    from .skew import bucket_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        return mg_partial_counts(batch[col], capacity)

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return bucket_aggregate(parts, ["item"], [("sum", "est", "est")],
                            num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# Quantile sketch (DDSketch-style log-binned histogram, mergeable)
# ---------------------------------------------------------------------------


def _dd_gamma(rel_err: float) -> float:
    return (1.0 + rel_err) / (1.0 - rel_err)


def dd_bins(v: np.ndarray, gamma: float) -> np.ndarray:
    """v (>0) -> integer bin = ceil(log_gamma v). Bin b spans
    (gamma^(b-1), gamma^b]; the midpoint estimate 2·gamma^b/(gamma+1)
    is within rel_err of every value in the bin (Masson et al.,
    DDSketch, VLDB'19 — public algorithm)."""
    return np.ceil(np.log(v) / np.log(gamma)).astype(np.int64)


def dd_quantiles(ds, key_col: str, val_col: str, qs: dict[str, float],
                 *, rel_err: float = 0.01, num_buckets: int = 16):
    """Mergeable per-key quantile sketch: values (must be >= 0) fold
    into log-spaced bins per batch (one bincount-style partial row per
    (key, bin) — the shuffle moves histograms, never values); partials
    sum through one coarse cogroup; the per-key quantile walk picks the
    bin holding rank ceil(q·n).

    Guarantee: each estimate is within ``rel_err`` RELATIVE error of
    the exact quantile_disc value (zeros tracked exactly in a
    dedicated bin). This is the 100-TB path promised by
    stages/quantile.per_key_quantiles — same output columns, bounded
    state per key (#bins ~ log(range)/rel_err) instead of all values.
    """
    from .shardutil import scatter_apply_by_value
    from .skew import bucket_aggregate
    from ..functions.hashing import bucket_of

    gamma = _dd_gamma(rel_err)
    aliases = list(qs)
    qvals = np.array([qs[a] for a in aliases], np.float64)
    ZERO_BIN = np.iinfo(np.int64).min + 1

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[key_col]
        enc = keys.combine_chunks().dictionary_encode() \
            if isinstance(keys, pa.ChunkedArray) else keys.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if np.any(v < 0):
            raise ValueError("dd_quantiles requires non-negative values")
        bins = np.full(len(v), ZERO_BIN, np.int64)
        pos = v > 0
        bins[pos] = dd_bins(v[pos], gamma)
        # count per (key, bin) pair: composite sort-free grouping
        pair = np.stack([codes, bins], axis=1)
        uniq, cnt = np.unique(pair, axis=0, return_counts=True)
        return pa.table({
            key_col: enc.dictionary.take(pa.array(uniq[:, 0], pa.int64())),
            "bin": pa.array(uniq[:, 1], pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    merged = bucket_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        [key_col, "bin"], [("sum", "cnt", "cnt")],
        num_buckets=num_buckets)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_kb", pa.array(bucket_of(batch[key_col], num_buckets),
                            pa.int32()))

    def estimate(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({key_col: group[key_col], **{
                a: pa.array([], pa.float64()) for a in aliases}})
        keys = group[key_col]
        enc = keys.combine_chunks().dictionary_encode() \
            if isinstance(keys, pa.ChunkedArray) else keys.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        bins = group["bin"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((bins, codes))
        c_s, b_s, n_s = codes[order], bins[order], cnt[order]
        seg_start = np.concatenate(([True], c_s[1:] != c_s[:-1]))
        starts = np.flatnonzero(seg_start)
        ends = np.concatenate((starts[1:], [len(c_s)]))
        cols = {key_col: enc.dictionary.take(
            pa.array(c_s[starts], pa.int64()))}
        cum = np.cumsum(n_s)
        base = np.concatenate(([0], cum))[starts]
        totals = cum[ends - 1] - base
        for a, q in zip(aliases, qvals):
            ranks = np.ceil(q * totals).astype(np.int64)
            # first bin (within segment) whose cumulative count >= rank
            idx = np.searchsorted(cum, base + ranks, side="left")
            b = b_s[idx]
            est = np.where(b == ZERO_BIN, 0.0,
                           2.0 * np.power(gamma, b.astype(np.float64))
                           / (gamma + 1.0))
            cols[a] = pa.array(est, pa.float64())
        return pa.table(cols)

    return scatter_apply_by_value(
        merged.map_batches(tag, batch_format="pyarrow").materialize(),
        "_kb", num_buckets, lambda g: estimate(g.drop_columns(["_kb"])))


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005 — linear, mergeable
# point-frequency sketch; estimates never undercount)
# ---------------------------------------------------------------------------

# fixed row salts: the d hash functions are mix64(h ^ salt_i); changing
# them changes every sketch, so they are module constants, not params
_CMS_SALTS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0x165667B19E3779F9, 0x27D4EB2F165667C5],
                      dtype=np.uint64)


def cms_partial(items, counts: np.ndarray | None, *,
                width: int) -> np.ndarray:
    """One batch -> a (depth, width) int64 count matrix. CMS is LINEAR:
    the matrix of a concatenation is the elementwise sum of the parts,
    so partials merge by addition in any order/grouping — the token
    stream itself never shuffles, only depth*width*8 bytes per block.
    """
    from ..functions.hashing import hash_strings, mix64

    h = hash_strings(items, seed=3)
    if counts is None:
        counts = np.ones(len(h), np.int64)
    mat = np.zeros((len(_CMS_SALTS), width), np.int64)
    for i, salt in enumerate(_CMS_SALTS):
        idx = (mix64(h ^ salt) % np.uint64(width)).astype(np.int64)
        np.add.at(mat[i], idx, counts)
    return mat


def cms_estimate(mat: np.ndarray, items) -> np.ndarray:
    """Point queries: min over the depth rows — always >= the true
    count (every row overcounts by its colliders, never under)."""
    from ..functions.hashing import hash_strings, mix64

    width = mat.shape[1]
    h = hash_strings(items, seed=3)
    est = None
    for i, salt in enumerate(_CMS_SALTS):
        idx = (mix64(h ^ salt) % np.uint64(width)).astype(np.int64)
        row = mat[i][idx]
        est = row if est is None else np.minimum(est, row)
    return est


def count_min(ds, col: str, *, width: int = 8192) -> np.ndarray:
    """Dataset column -> one merged CMS matrix. Per-block partials
    stream to the driver and fold into a single running sum — driver
    memory is O(depth*width) regardless of block count (the blobs are
    consumed as they arrive, never held together)."""
    import pyarrow as pa_

    def partial(batch: pa.Table) -> pa.Table:
        m = cms_partial(batch[col], None, width=width)
        return pa_.table({"blob": pa_.array([m.tobytes()], pa_.binary())})

    acc = np.zeros((len(_CMS_SALTS), width), np.int64)
    for b in ds.map_batches(partial, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow"):
        for blob in b["blob"].to_pylist():
            acc += np.frombuffer(blob, np.int64).reshape(acc.shape)
    return acc
