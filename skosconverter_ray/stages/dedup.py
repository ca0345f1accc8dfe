"""Near-duplicate detection operators (training-data pipeline ops).

The reference engine only ever dedups exact triples (rdflib set
semantics, skos_converter.py `graph.add` throughout — SURVEY.md §2.7);
a 10^12-doc corpus additionally needs *near*-dup removal. All operators
here follow the same scale shape:

- **shingle** — per-batch vectorized word n-gram extraction; each doc
  is reduced to a set of 64-bit hashes so nothing downstream ships
  text. Docs with fewer than n words produce an EMPTY set (they have
  no word n-gram, mirroring the oracle's ``WHERE len(w) >= n``) and
  are dropped from the LSH index and the verify side entirely. Hashes
  are full 64-bit (word hashes vectorized via functions/hashing.py,
  mixed per window position), so the exact-Jaccard verification is
  collision-free in practice (~2^-64 per shingle pair) though, like
  any hashed-set comparison, not information-theoretically exact.
- **MinHash** — 128 universal-hash permutations ((a*x+b) mod p, p prime
  > 2^32), numpy-vectorized per batch.
- **LSH banding** — 32 bands x 4 rows; a doc emits 32 small
  ``(band, key)`` rows. Candidate generation is ONE groupby over those
  rows (the only shuffle, ~16 bytes/row/band), never an O(n^2) compare.
  P(candidate | jaccard=0.8) = 1-(1-0.8^4)^32 ≈ 1-5e-8, so vs an exact
  oracle at threshold 0.8 the banding is lossless in practice.
- **exact verify** — ``verify_pairs_scatter``, the one verify path of
  every near-dup stage here and in stages/incremental: candidate pairs
  meet the compact shingle-hash sets in two task-level cogroup
  exchanges on doc id and the true score is computed per pair; LSH
  false positives are filtered here.
- **SimHash** — 64-bit weighted-feature signature; near-dup = hamming
  distance <= k, candidates found by banding the 64 bits into 16-bit
  quarters (any pair at distance <= 3 shares at least one quarter —
  pigeonhole, exact, not probabilistic).

Skew note (A9): a cluster of m exact duplicates puts m docs in one LSH
bucket in every band -> O(m^2) pairs. Run exact dedup (queries
doc_dedup_exact) upstream at scale; `pairs_from_buckets` also sorts
bucket members so pair emission is deterministic.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import pyarrow.compute as pc

from ..functions.arrays import list_column_to_matrix

# MinHash parameters (fixed; changing them changes every signature)
N_PERM = 128
N_BANDS = 32
ROWS_PER_BAND = N_PERM // N_BANDS
_PRIME = np.uint64(4294967311)  # smallest prime > 2^32
_MAX32 = np.uint64(0xFFFFFFFF)


def _perm_params(seed: int = 0x5EED) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 1 << 32, size=N_PERM).astype(np.uint64)
    b = rng.randint(0, 1 << 32, size=N_PERM).astype(np.uint64)
    return a, b


_A, _B = _perm_params()


# per-window-position odd multipliers: distinct positions get distinct
# lanes so word order matters ("a b c" != "c b a")
_WIN_MULT = (np.arange(1, 16, dtype=np.uint64)
             * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1))
_WORD_SEED = 0x5EED1


def shingle_sets_batch(texts, n: int = 3) -> list[np.ndarray]:
    """texts -> per-doc sorted distinct word-n-gram hashes (uint64).

    One vectorized hash call over ALL words in the batch, then a
    numpy sliding-window mix per doc — no per-gram Python hashing.
    Docs with < n words get an empty set (no n-gram exists; matches
    the SQL oracle's ``WHERE len(w) >= n``)."""
    from ..functions.hashing import hash_strings, mix64

    words_per = [(t or "").split() for t in texts]
    flat = [w for ws in words_per for w in ws]
    wh = (hash_strings(flat, seed=_WORD_SEED) if flat
          else np.empty(0, np.uint64))
    out: list[np.ndarray] = []
    pos = 0
    for ws in words_per:
        length = len(ws)
        w = wh[pos:pos + length]
        pos += length
        if length < n:
            out.append(np.empty(0, dtype=np.uint64))
            continue
        m = length - n + 1
        acc = np.zeros(m, dtype=np.uint64)
        for i in range(n):
            acc ^= w[i:i + m] * _WIN_MULT[i]
        out.append(np.unique(mix64(acc)))
    return out


def shingle_set(text: str, n: int = 3) -> np.ndarray:
    """Distinct word n-gram hashes for one doc (see shingle_sets_batch)."""
    return shingle_sets_batch([text], n)[0]


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """(N_PERM,) uint32 signature; empty doc -> all 0xFFFFFFFF.

    The 64-bit shingle hashes are folded to 32 bits here so the
    universal hash a*x+b stays within uint64; the fold only affects
    the (approximate) signature — exact verification uses the full
    64-bit sets."""
    if shingles.size == 0:
        return np.full(N_PERM, 0xFFFFFFFF, dtype=np.uint64)
    x = shingles & _MAX32
    # (N_PERM, S): a*x+b < 2^64 because a,b,x < 2^32
    m = (_A[:, None] * x[None, :] + _B[:, None]) % _PRIME
    return (m.min(axis=1) & _MAX32).astype(np.uint64)


# vectorized band-key mixing constants (odd multipliers per band row)
_BAND_MIX = (np.arange(1, ROWS_PER_BAND + 1, dtype=np.uint64)
             * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1))

# per-bin odd multipliers for OPH rotation-densification decorrelation
_BIN_MIX = (np.arange(1, N_PERM + 1, dtype=np.uint64)
            * np.uint64(0xBF58476D1CE4E5B9) | np.uint64(1))


class MinHashStage:
    """documents batch -> one row per (doc, band): the LSH index rows;
    the side shingle table comes from `shingles_batch`.

    One-permutation MinHash (Li/Owen/Zhang 2012) with rotation
    densification (Shrivastava & Li 2014) — both public algorithms:
    each shingle hash is consumed ONCE (top 7 bits pick one of
    N_PERM=128 bins, per-(doc, bin) min via ``np.minimum.at``), so the
    kernel is O(total shingles) instead of the classic O(128 ×
    shingles) permutation matrix — measured 15.7 s → <0.1 s per 5k
    docs. Empty bins borrow the cyclically-previous non-empty bin's
    value (+ a bin-indexed odd-multiplier mix to decorrelate), keeping
    the signature defined for docs with ≥ 1 shingle. Identical shingle
    sets still yield identical signatures (exact dups always collide);
    banding recall at j≥0.8 stays ≫ 1-1e-6, and every emitted pair is
    exact-Jaccard verified downstream, so candidate-set differences
    can never change query results."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        sets = shingle_sets_batch(batch[self.text_col].to_pylist())
        counts = np.array([s.size for s in sets], dtype=np.int64)
        nonempty = counts > 0
        n_ne = int(nonempty.sum())
        if n_ne == 0:
            # docs with no word n-gram can't be near-dups (oracle
            # semantics) — emit nothing, which also avoids the skew
            # bomb of every short doc colliding in one bucket
            return pa.table({"doc_id": batch[self.id_col].take(
                                 pa.array([], pa.int64())),
                             "band": pa.array([], pa.int32()),
                             "key": pa.array([], pa.int64())})
        xs = np.concatenate([s for s in sets if s.size])   # uint64
        doc_of = np.repeat(np.arange(n_ne), counts[nonempty])
        bins = (xs >> np.uint64(57)).astype(np.int64)      # 128 bins
        FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
        M = np.full((n_ne, N_PERM), FULL, np.uint64)
        np.minimum.at(M, (doc_of, bins), xs)
        # rotation densification: an empty bin borrows the cyclically
        # previous non-empty bin's value, decorrelated by an odd
        # bin-indexed multiplier mix
        mask = M != FULL
        D = np.concatenate([M, M], axis=1)
        dm = np.concatenate([mask, mask], axis=1)
        src = np.where(dm, np.arange(2 * N_PERM)[None, :], -1)
        src = np.maximum.accumulate(src, axis=1)
        filled = D[np.arange(n_ne)[:, None], np.maximum(src, 0)]
        sigs = filled[:, N_PERM:].copy()
        borrow = ~mask
        if borrow.any():
            with np.errstate(over="ignore"):
                mixed = (sigs * _BIN_MIX[None, :]) + _BIN_MIX[None, :]
            sigs[borrow] = mixed[borrow]
        sigs = sigs & _MAX32                               # (n_ne, N_PERM)
        # band keys: (n_ne, N_BANDS, ROWS_PER_BAND) rows mixed down
        grouped = sigs.reshape(n_ne, N_BANDS, ROWS_PER_BAND)
        keys = (grouped * _BAND_MIX[None, None, :]).sum(axis=2)
        keys = ((keys ^ (keys >> np.uint64(31)))
                & np.uint64((1 << 63) - 1)).astype(np.int64)
        doc_idx = np.flatnonzero(nonempty)
        take = np.repeat(doc_idx, N_BANDS)
        return pa.table({
            "doc_id": batch[self.id_col].take(pa.array(take)),
            "band": pa.array(
                np.tile(np.arange(N_BANDS, dtype=np.int32), n_ne)),
            "key": pa.array(keys.reshape(-1)),
        })


def shingles_batch(batch: pa.Table, text_col: str = "text",
                   id_col: str = "doc_id") -> pa.Table:
    """(doc_id, shingles: binary) — the compact join side for exact
    verification (~8B x n_grams per doc, not the text). Packed as a
    little-endian uint64 blob because Arrow's hash join rejects
    list-typed payload columns; sorted (np.unique output) so pairwise
    intersection is O(n) via np.intersect1d(assume_unique). Docs with
    no n-gram are dropped — they never appear in candidate pairs."""
    sets = shingle_sets_batch(batch[text_col].to_pylist())
    keep = [i for i, s in enumerate(sets) if s.size]
    return pa.table({
        "doc_id": batch[id_col].take(pa.array(keep, pa.int64())),
        "shingles": pa.array(
            [sets[i].astype("<u8").tobytes() for i in keep], pa.binary()),
    })


def candidate_pairs(index_ds, *, num_buckets: int = 64):
    """LSH index rows -> candidate pairs.

    Rows are coarsened to ``_bucket = mix(band, key) % num_buckets``
    so ONE exchange produces ~num_buckets cogroups (one Python call
    each — NOT one per (band,key) bucket, which are mostly singletons
    and would cost a Python call per doc per band). Inside a cogroup,
    equal (band, key) runs are found with a vectorized lexsort; only
    multi-member runs (actual collisions, rare) loop to emit pairs.
    num_buckets bounds per-task input to |index| / num_buckets rows —
    size it ~4x total cores at scale."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        band = batch["band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        mix = (band * np.uint64(0x9E3779B1)
               + key * np.uint64(0x85EBCA6B)) % np.uint64(num_buckets)
        return batch.append_column(
            "_bucket", pa.array(mix.astype(np.int32), pa.int32()))

    def emit_pairs(group: pa.Table) -> pa.Table:
        id_type = group["doc_id"].type
        band = group["band"].to_numpy(zero_copy_only=False)
        key = group["key"].to_numpy(zero_copy_only=False)
        docs = group["doc_id"].to_numpy(zero_copy_only=False)
        # doc included in the sort key => members of each (band, key)
        # run come out id-sorted, so the repeat/cumsum expansion below
        # emits every within-run pair with a < b, fully vectorized
        # (the Python member loop cost 6.1 s of the 23.6 s 600k-doc
        # near-dup wall at 16 cpus)
        order = np.lexsort((docs, key, band))
        b_s, k_s, d_s = band[order], key[order], docs[order]
        run_start = np.flatnonzero(
            np.concatenate(([True], (b_s[1:] != b_s[:-1])
                            | (k_s[1:] != k_s[:-1]))))
        lens = np.diff(np.append(run_start, len(d_s)))
        ranks = np.arange(len(d_s)) - np.repeat(run_start, lens)
        cnt = np.repeat(lens, lens) - 1 - ranks
        total = int(cnt.sum())
        if not total:
            return pa.table({"doc_a": pa.array([], id_type),
                             "doc_b": pa.array([], id_type)})
        first = np.repeat(np.arange(len(d_s)), cnt)
        second = first + 1 + (np.arange(total)
                              - np.repeat(np.cumsum(cnt) - cnt, cnt))
        a_v, b_v = d_s[first], d_s[second]
        ne = a_v != b_v  # duplicate ids inside a run emit no self-pair
        return pa.table({"doc_a": pa.array(a_v[ne], id_type),
                         "doc_b": pa.array(b_v[ne], id_type)})

    from .shardutil import scatter_apply_by_value

    idx = index_ds.map_batches(add_bucket, batch_format="pyarrow")
    return scatter_apply_by_value(idx.materialize(), "_bucket",
                                  num_buckets, emit_pairs)


def exact_jaccard_batch(batch: pa.Table, *, threshold: float) -> pa.Table:
    """pairs joined with both shingle sets -> exact jaccard filter."""
    a_sets = batch["shingles_a"].to_pylist()
    b_sets = batch["shingles_b"].to_pylist()
    jac = np.empty(len(a_sets), dtype=np.float64)
    for i, (ba, bb) in enumerate(zip(a_sets, b_sets)):
        sa = np.frombuffer(ba or b"", dtype="<u8")
        sb = np.frombuffer(bb or b"", dtype="<u8")
        if sa.size == 0 or sb.size == 0:
            jac[i] = 0.0
            continue
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        jac[i] = inter / (sa.size + sb.size - inter)
    keep = jac >= threshold
    out = pa.table({
        "doc_a": batch["doc_a"].filter(pa.array(keep)),
        "doc_b": batch["doc_b"].filter(pa.array(keep)),
        # un-rounded: inter/union is a double division of exact ints,
        # bitwise identical to any oracle computing the same counts
        "jaccard": pa.array(jac[keep]),
    })
    return out


def containment_verify_batch(batch: pa.Table, *,
                             threshold: float) -> pa.Table:
    """pairs joined with both shingle sets -> exact containment
    |A∩B|/|A| filter (asymmetric twin of exact_jaccard_batch)."""
    a_sets = batch["shingles_a"].to_pylist()
    b_sets = batch["shingles_b"].to_pylist()
    cont = np.empty(len(a_sets), np.float64)
    for i, (ba, bb) in enumerate(zip(a_sets, b_sets)):
        sa = np.frombuffer(ba or b"", dtype="<u8")
        sb = np.frombuffer(bb or b"", dtype="<u8")
        if sa.size == 0:
            cont[i] = 0.0
            continue
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        cont[i] = inter / sa.size
    keep = cont >= threshold - 1e-12
    return pa.table({
        "doc_a": batch["doc_a"].filter(pa.array(keep)),
        "doc_b": batch["doc_b"].filter(pa.array(keep)),
        "containment": pa.array(np.round(cont[keep], 6)),
    })


def minhash_near_dup_pairs(docs_ds, *, text_col: str = "text",
                           id_col: str = "doc_id", threshold: float = 0.8,
                           num_partitions: int = 32):
    """Full MinHash+LSH near-dup pipeline: documents Dataset ->
    (doc_a, doc_b, jaccard) pairs Dataset with exact jaccard >= threshold.

    Exchanges: 1 (band,key) cogroup for candidates, then the 2 of
    ``verify_pairs_scatter``, which attach the compact shingle sets to
    the raw banding pairs (a pair found in k bands arrives k times; the
    first exchange drops the copies) and compute the exact jaccard.
    Nothing ships document text past the first map.
    """
    from functools import partial

    # stateless stage -> elastic tasks (no pool to size)
    index = docs_ds.map_batches(
        MinHashStage(text_col, id_col),
        batch_format="pyarrow", batch_size=512)
    cand = candidate_pairs(index, num_buckets=num_partitions * 4)

    # materialized once: BOTH verify exchanges read it, and a lazy
    # dataset would be recomputed per consumer by the streaming
    # executor (shingle blobs are ~1KB/doc — cheap to pin)
    sh = docs_ds.map_batches(
        lambda b: shingles_batch(b, text_col, id_col),
        batch_format="pyarrow", batch_size=512).materialize()

    names = docs_ds.schema().names  # parquet metadata only — cheap
    id_type = docs_ds.schema().types[names.index(id_col)]
    out_schema = pa.schema([("doc_a", id_type), ("doc_b", id_type),
                            ("jaccard", pa.float64())])
    return verify_pairs_scatter(
        cand, sh, row_verify=partial(exact_jaccard_batch,
                                     threshold=threshold),
        out_schema=out_schema, id_type=id_type,
        num_partitions=num_partitions)


def verify_pairs_scatter(pairs_ds, sh_ds, *, row_verify,
                         out_schema: pa.Schema, id_type=None,
                         num_partitions: int = 32):
    """Distributed candidate-pair verification: attach both documents'
    compact shingle blobs to ``(doc_a, doc_b)`` pairs with TWO
    task-level cogroup exchanges, applying ``row_verify`` (a batch
    kernel over doc_a/doc_b/shingles_a/shingles_b columns) inside the
    second exchange's gather — the shingle table is NEVER broadcast or
    read onto the driver, so the corpus side scales without a gate.

    Exchange 1 cogroups the RAW banding pairs with the shingle table
    on doc_a: every duplicate copy of a pair shares doc_a, so a local
    distinct sees them all; shingles_a attaches via one local Arrow
    join. Exchange 2 cogroups the halves with the shingle table on
    doc_b, attaches shingles_b and runs ``row_verify`` inline. It is
    the one verify path at every corpus size: on a small corpus the
    exchange runs as one task, which costs less than building a driver
    dict of every blob and shipping it to each verify task. Materialized inputs
    (from_arrow_refs outputs — as scatter_apply_by_value /
    bucket_aggregate produce — qualify for free) hand their refs to
    the exchange; a lazy one is materialized there once.
    """
    from .shardutil import multiway_cogroup_scatter

    if id_type is None:
        id_type = out_schema.field("doc_a").type
    half_schema = pa.schema([("doc_a", id_type), ("doc_b", id_type),
                             ("shingles_a", pa.binary())])

    def attach_a(pairs: pa.Table | None, sh_t: pa.Table | None):
        if pairs is None or sh_t is None:
            return half_schema.empty_table()
        pairs = pairs.select(["doc_a", "doc_b"]) \
            .group_by(["doc_a", "doc_b"]).aggregate([])
        sh_a = sh_t.select(["doc_id", "shingles"]) \
            .rename_columns(["_id_a", "shingles_a"])
        return pairs.join(sh_a, keys=["doc_a"], right_keys=["_id_a"],
                          join_type="inner").select(
            ["doc_a", "doc_b", "shingles_a"]).cast(half_schema)

    def attach_b_verify(half: pa.Table | None, sh_t: pa.Table | None):
        if half is None or sh_t is None:
            return out_schema.empty_table()
        sh_b = sh_t.select(["doc_id", "shingles"]) \
            .rename_columns(["_id_b", "shingles_b"])
        joined = half.join(sh_b, keys=["doc_b"], right_keys=["_id_b"],
                           join_type="inner")
        return row_verify(joined).cast(out_schema)

    halves = multiway_cogroup_scatter(
        [(pairs_ds, "doc_a"), (sh_ds, "doc_id")], num_partitions,
        attach_a, empty_result=half_schema.empty_table())
    return multiway_cogroup_scatter(
        [(halves, "doc_b"), (sh_ds, "doc_id")], num_partitions,
        attach_b_verify, empty_result=out_schema.empty_table())



# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def _simhash_many(texts) -> list[int]:
    """Vectorized 63-bit SimHash per text: one batched word-hash call,
    then numpy bit-unpack + count-weighted vote per doc (word features
    weighted by occurrence count; distinct-by-hash ≈ distinct-by-word
    at 2^-64 collision odds)."""
    from ..functions.hashing import hash_strings

    words_per = [(t or "").split() for t in texts]
    flat = [w for ws in words_per for w in ws]
    wh = (hash_strings(flat, seed=_WORD_SEED) if flat
          else np.empty(0, np.uint64))
    out: list[int] = []
    pos = 0
    for ws in words_per:
        length = len(ws)
        w = wh[pos:pos + length]
        pos += length
        if length == 0:
            out.append(0)
            continue
        uniq, counts = np.unique(w, return_counts=True)
        bits = np.unpackbits(
            uniq.astype("<u8").view(np.uint8).reshape(-1, 8),
            axis=1, bitorder="little").astype(np.int64)      # (k, 64)
        acc = ((2 * bits - 1) * counts[:, None]).sum(axis=0)  # vote
        val = int(np.packbits((acc > 0), bitorder="little").view("<u8")[0])
        out.append(val & ((1 << 63) - 1))
    return out


def simhash64(text: str) -> int:
    """64-bit SimHash over word features weighted by count."""
    return _simhash_many([text])[0]


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    sh = _simhash_many(batch[text_col].to_pylist())
    return batch.append_column("simhash", pa.array(sh, pa.int64()))


def simhash_near_dup_pairs(docs_ds, *, text_col: str = "text",
                           id_col: str = "doc_id", max_hamming: int = 3):
    """SimHash near-dup: band the 64 bits into 4 x 16-bit quarters;
    any pair at hamming distance <= 3 collides on >= 1 quarter
    (pigeonhole — exact recall, unlike MinHash banding). Verify
    hamming distance exactly inside the bucket-pair stage."""

    def emit(batch: pa.Table) -> pa.Table:
        t = simhash_batch(batch.select([id_col, text_col]), text_col)
        s = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(s)
        rep = np.repeat(s, 4)                       # 63-bit, int64-safe
        shifts = np.tile(np.arange(4, dtype=np.uint64) * np.uint64(16), n)
        keys = ((rep >> shifts) & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table({
            "doc_id": t[id_col].take(
                pa.array(np.repeat(np.arange(n, dtype=np.int64), 4))),
            "band": pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
            "key": pa.array(keys, pa.int64()),
            "simhash": pa.array(rep.astype(np.int64), pa.int64())})

    def add_bucket(batch: pa.Table) -> pa.Table:
        band = batch["band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        mix = (band * np.uint64(0x9E3779B1)
               + key * np.uint64(0x85EBCA6B)) % np.uint64(64)
        return batch.append_column(
            "_bucket", pa.array(mix.astype(np.int32), pa.int32()))

    def bucket_pairs(group: pa.Table) -> pa.Table:
        """Equal-(band,key) runs via lexsort; hamming verified inline
        on the (rare) multi-member runs."""
        band = group["band"].to_numpy(zero_copy_only=False)
        key = group["key"].to_numpy(zero_copy_only=False)
        docs = group["doc_id"].to_pylist()
        sims = group["simhash"].to_pylist()
        order = np.lexsort((key, band))
        b_s, k_s = band[order], key[order]
        run_start = np.flatnonzero(
            np.concatenate(([True], (b_s[1:] != b_s[:-1])
                            | (k_s[1:] != k_s[:-1]))))
        run_end = np.concatenate((run_start[1:], [len(order)]))
        a_out, b_out, dist = [], [], []
        for s, e in zip(run_start, run_end):
            if e - s < 2:
                continue
            members = sorted((docs[i], sims[i]) for i in order[s:e])
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    if members[i][0] == members[j][0]:
                        continue
                    d = int(members[i][1] ^ members[j][1]).bit_count()
                    if d <= max_hamming:
                        a_out.append(members[i][0])
                        b_out.append(members[j][0])
                        dist.append(d)
        return pa.table({
            "doc_a": pa.array(a_out, group["doc_id"].type),
            "doc_b": pa.array(b_out, group["doc_id"].type),
            "hamming": pa.array(dist, pa.int64()),
        })

    from .skew import bucket_aggregate

    from .shardutil import scatter_apply_by_value

    rows = docs_ds.map_batches(emit, batch_format="pyarrow", batch_size=512)
    rows = rows.map_batches(add_bucket, batch_format="pyarrow")
    pairs = scatter_apply_by_value(rows.materialize(), "_bucket",
                                   64, bucket_pairs)
    return bucket_aggregate(pairs, ["doc_a", "doc_b"],
                            [("min", "hamming", "hamming")],
                            bucket_key="doc_a")


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup: exact brute force up to _EMB_BRUTE_MAX
# rows, sign-LSH bucketed (stages/similarity.embedding_neardup_lsh) above
# ---------------------------------------------------------------------------

_EMB_BRUTE_MAX = 100_000


def embedding_near_dup_pairs(emb_ds, *, id_col: str = "vec_id",
                             vec_col: str = "embedding",
                             threshold: float = 0.4):
    """All-pairs cosine >= threshold.

    Up to ``_EMB_BRUTE_MAX`` rows (100k): EXACT blocked
    matmul — each batch compared against a broadcast (ray.put once)
    normalized matrix; O(n^2) flops, one pass, no shuffle. The matrix
    is dimension-sized by construction of the threshold, so the
    driver-side concat is bounded.

    Above it, routes to the sign-LSH bucketed path
    (stages/similarity.embedding_neardup_lsh): same output schema,
    exact cosine verification inside each bucket (precision 1.0),
    recall ~0.95 at the threshold via auto-sized table count — the
    100 TB shape, no driver materialization.
    """
    import ray

    # pin before the count: for a derived (non-parquet) upstream the
    # count() is an execution, and the chosen path would otherwise
    # re-execute the whole pipeline from scratch
    emb_ds = emb_ds.materialize()
    if emb_ds.count() > _EMB_BRUTE_MAX:
        from .similarity import embedding_neardup_lsh

        return embedding_neardup_lsh(
            emb_ds, id_col=id_col, vec_col=vec_col, threshold=threshold)

    tbl = pa.concat_tables(
        emb_ds.iter_batches(batch_format="pyarrow", batch_size=8192))
    ids = np.asarray(tbl[id_col].to_pylist())
    mat = list_column_to_matrix(tbl[vec_col])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat_n = mat / norms
    ref = ray.put((ids, mat_n))

    def block(batch: pa.Table) -> pa.Table:
        all_ids, all_mat = ray.get(ref)
        q = list_column_to_matrix(batch[vec_col])
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1.0
        sims = (q / qn) @ all_mat.T
        qids = np.asarray(batch[id_col].to_pylist())
        a_out, b_out, cs = [], [], []
        for r in range(sims.shape[0]):
            hits = np.where(sims[r] >= threshold)[0]
            for c in hits:
                if qids[r] < all_ids[c]:  # canonical orientation, no self
                    a_out.append(qids[r])
                    b_out.append(all_ids[c])
                    cs.append(round(float(sims[r, c]), 4))
        return pa.table({"vec_a": pa.array(a_out, pa.int64()),
                         "vec_b": pa.array(b_out, pa.int64()),
                         "cos_sim": pa.array(cs, pa.float64())})

    return emb_ds.map_batches(block, batch_format="pyarrow", batch_size=1024)


# ---------------------------------------------------------------------------
# Cluster assignment: near-dup pairs -> connected components
# ---------------------------------------------------------------------------


def neardup_clusters(pairs_ds, *, id_a: str = "doc_a", id_b: str = "doc_b"):
    """(id_a, id_b) near-dup pairs -> (doc_id, rep_id) for EVERY member
    of every multi-doc component (reps map to themselves).

    Components are solved by stages/canonicalize.components_min_label —
    the same primitive as URI canonicalization, inheriting both its
    driver union-find fast path and the distributed pointer-doubling
    hash-min scale path. Int ids ride as zero-padded strings so the
    propagation's lexicographic min IS the numeric min.
    """
    import pyarrow.compute as pc

    from .canonicalize import components_min_label

    def to_edges(batch: pa.Table) -> pa.Table:
        a = pc.utf8_lpad(pc.cast(batch[id_a], pa.string()), 20, "0")
        b = pc.utf8_lpad(pc.cast(batch[id_b], pa.string()), 20, "0")
        return pa.table({
            "node": pa.concat_arrays([a.combine_chunks()
                                      if isinstance(a, pa.ChunkedArray)
                                      else a,
                                      b.combine_chunks()
                                      if isinstance(b, pa.ChunkedArray)
                                      else b]),
            "peer": pa.concat_arrays([b.combine_chunks()
                                      if isinstance(b, pa.ChunkedArray)
                                      else b,
                                      a.combine_chunks()
                                      if isinstance(a, pa.ChunkedArray)
                                      else a]),
        })

    labels = components_min_label(
        pairs_ds.map_batches(to_edges, batch_format="pyarrow"))

    def members(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(batch["uri"], pa.int64()),
            "rep_id": pc.cast(batch["canonical_uri"], pa.int64()),
        })

    member_rows = labels.map_batches(members, batch_format="pyarrow")

    # each representative once, mapped to itself
    from .skew import bucket_aggregate

    reps = bucket_aggregate(
        labels.select_columns(["canonical_uri"]),
        ["canonical_uri"], [("count", None, "_n")], num_buckets=16)

    def rep_rows(batch: pa.Table) -> pa.Table:
        r = pc.cast(batch["canonical_uri"], pa.int64())
        return pa.table({"doc_id": r, "rep_id": r})

    return member_rows.union(
        reps.map_batches(rep_rows, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# Edit-distance-1 string pair join (spelling variants / typo clustering)
# ---------------------------------------------------------------------------

def _within_edit1(a: str, b: str) -> bool:
    """Exact edit-distance<=1 check without a DP table: O(len)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # a is shorter by one: subsequence check with one skip
    i = j = 0
    skipped = False
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif not skipped:
            skipped = True
            j += 1
        else:
            return False
    return True


def edit_distance1_pairs(terms_ds, *, col: str = "term",
                         num_buckets: int = 32):
    """All unordered pairs of distinct terms at edit distance exactly 1
    (insert / delete / substitute), by deletion-neighborhood banding:
    each term of length L emits L+1 band keys — itself plus every
    single-character deletion. Any distance-1 pair shares a key (the
    shorter string IS a deletion of the longer; a substitution pair
    deletes the differing position to the same string), so one
    key-bucket cogroup sees every candidate, and an O(len) exact check
    kills the distance-2 collisions ('ab'/'ba' share keys 'a' and 'b').
    Hot bands come from very short terms — filter length upstream
    (the query uses >=4). Output pairs are globally deduped with one
    bucket aggregate (a pair can share several keys)."""
    import numpy as np
    import zlib

    from .skew import bucket_aggregate

    def emit_keys(batch: pa.Table) -> pa.Table:
        keys, terms = [], []
        for t in batch[col].to_pylist():
            if not t:
                continue
            keys.append(t)
            terms.append(t)
            for i in range(len(t)):
                keys.append(t[:i] + t[i + 1:])
                terms.append(t)
        b = np.array([zlib.crc32(k.encode()) % num_buckets for k in keys],
                     np.int32)
        return pa.table({"_bucket": pa.array(b, pa.int32()),
                         "band": pa.array(keys, pa.string()),
                         "term": pa.array(terms, pa.string())})

    def bucket_pairs(group: pa.Table) -> pa.Table:
        import numpy as np

        band = group["band"].to_numpy(zero_copy_only=False)
        term = group["term"].to_numpy(zero_copy_only=False)
        order = np.lexsort((term, band))
        band_s, term_s = band[order], term[order]
        starts = np.flatnonzero(
            np.concatenate(([True], band_s[1:] != band_s[:-1])))
        ends = np.concatenate((starts[1:], [len(band_s)]))
        out = set()
        for s, e in zip(starts, ends):
            seg = term_s[s:e]
            for i in range(len(seg)):
                for j in range(i + 1, len(seg)):
                    a, b = seg[i], seg[j]
                    if a == b:
                        continue
                    pair = (a, b) if a < b else (b, a)
                    if pair not in out and _within_edit1(*pair):
                        out.add(pair)
        pairs = sorted(out)
        return pa.table({
            "term_a": pa.array([p[0] for p in pairs], pa.string()),
            "term_b": pa.array([p[1] for p in pairs], pa.string()),
        })

    from .shardutil import scatter_apply_by_value

    cand = scatter_apply_by_value(
        terms_ds.map_batches(emit_keys, batch_format="pyarrow")
        .materialize(), "_bucket", num_buckets, bucket_pairs)
    deduped = bucket_aggregate(cand, ["term_a", "term_b"],
                               [("count", None, "_n")],
                               num_buckets=max(8, num_buckets // 2),
                               bucket_key="term_a")
    return deduped.select_columns(["term_a", "term_b"])


# ---------------------------------------------------------------------------
# Containment join (asymmetric set-similarity: |A∩B| / |A| >= c) via
# PREFIX FILTERING — Chaudhuri/Ganti/Kaushik 2006 (SSJoin) and
# Bayardo/Ma/Srikant 2007 (all-pairs), both public algorithms. Jaccard
# misses a short doc embedded in a long one (the quote/repost shape);
# containment is the right asymmetric measure.
# ---------------------------------------------------------------------------

def containment_pairs(docs_ds, *, text_col: str = "text",
                      id_col: str = "doc_id", threshold: float = 0.9,
                      num_buckets: int = 32):
    """-> (doc_a, doc_b, containment) rows with EXACT word-3-gram
    containment(A in B) = |A∩B|/|A| >= threshold, doc_a != doc_b.

    Prefix filter: under any global token order (here: the shingle
    hash value), a pair at containment >= c must share one of A's
    floor((1-c)*|A|)+1 SMALLEST shingles — if all of those fall
    outside B then |A\\B| already exceeds (1-c)|A|. So each doc emits
    every shingle once, tagged is_prefix for its smallest ones; one
    shingle-bucket cogroup generates candidates as (prefix rows x all
    rows) per exact shingle; ``verify_pairs_scatter`` checks the exact
    containment of every pair.
    At 100 TB add the standard refinements (index only prefixes under
    a length filter, df-cap hub shingles into a verify-all sidecar);
    the filter's correctness does not depend on them."""
    from functools import partial

    from ..functions.hashing import mix64
    from .shardutil import scatter_apply_by_value
    from .skew import bucket_aggregate

    def emit(batch: pa.Table) -> pa.Table:
        sets = shingle_sets_batch(batch[text_col].to_pylist())
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        shs, docs, pref = [], [], []
        for i, s in enumerate(sets):
            if s.size == 0:
                continue
            p = int((1.0 - threshold) * s.size) + 1
            shs.append(s)                       # np.unique -> sorted
            docs.append(np.full(s.size, ids[i], np.int64))
            m = np.zeros(s.size, bool)
            m[:p] = True
            pref.append(m)
        if not shs:
            return pa.table({"sh": pa.array([], pa.int64()),
                             "doc": pa.array([], pa.int64()),
                             "pref": pa.array([], pa.bool_()),
                             "_bucket": pa.array([], pa.int64())})
        sh = np.concatenate(shs).astype(np.uint64)
        b = ((mix64(sh) >> np.uint64(32)).astype(np.int64)
             % num_buckets)
        return pa.table({
            "sh": pa.array(sh.astype(np.int64)),
            "doc": pa.array(np.concatenate(docs)),
            "pref": pa.array(np.concatenate(pref)),
            "_bucket": pa.array(b, pa.int64()),
        })

    pair_schema = pa.schema([("doc_a", pa.int64()),
                             ("doc_b", pa.int64())])

    def gen_pairs(t: pa.Table) -> pa.Table:
        sh = t["sh"].to_numpy(zero_copy_only=False)
        doc = t["doc"].to_numpy(zero_copy_only=False)
        pref = t["pref"].to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, sh))
        sh, doc, pref = sh[order], doc[order], pref[order]
        _u, starts = np.unique(sh, return_index=True)
        lens = np.diff(np.append(starts, len(sh)))
        a_parts, b_parts = [], []
        # per exact shingle: candidates = prefix holders x all holders
        # (python loop over multi-holder shingles only — their count
        # is bounded by the duplicated mass, not the corpus)
        for s0, ln in zip(starts, lens):
            if ln < 2:
                continue
            d = doc[s0:s0 + ln]
            pm = pref[s0:s0 + ln]
            if not pm.any():
                continue
            probes = d[pm]
            a = np.repeat(probes, ln)
            b = np.tile(d, probes.size)
            ne = a != b
            a_parts.append(a[ne])
            b_parts.append(b[ne])
        if not a_parts:
            return pair_schema.empty_table()
        return pa.table({"doc_a": pa.array(np.concatenate(a_parts)),
                         "doc_b": pa.array(np.concatenate(b_parts))})

    rows = docs_ds.map_batches(emit, batch_format="pyarrow")
    cand = scatter_apply_by_value(rows.materialize(), "_bucket",
                                  num_buckets, gen_pairs,
                                  empty_result=pair_schema.empty_table())
    # prefix candidates repeat once per shared prefix shingle: dedup
    # them in one exchange before both verify exchanges carry them
    pairs = bucket_aggregate(cand, ["doc_a", "doc_b"],
                             [("count", None, "_n")],
                             num_buckets=num_buckets,
                             bucket_key="doc_a")

    sh_tbl = docs_ds.map_batches(
        lambda b: shingles_batch(b, text_col, id_col),
        batch_format="pyarrow", batch_size=512).materialize()
    out_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                            ("containment", pa.float64())])
    return verify_pairs_scatter(
        pairs, sh_tbl,
        row_verify=partial(containment_verify_batch, threshold=threshold),
        out_schema=out_schema, num_partitions=num_buckets)
