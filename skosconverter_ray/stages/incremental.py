"""Incremental ingest: dedup a new document batch against a persisted
fingerprint store (cross-RUN exact dedup).

A 100 TB corpus is not ingested once — every crawl round must drop
documents already absorbed by earlier rounds WITHOUT rescanning the
old corpus. The store holds only 8-byte content hashes as append-only
parquet shards (one per ingest round — resumable, no rewrite):

- **filter**: store hashes load as a Bloom filter (bits broadcast
  once) plus an exact hash set for the verify step — the same
  fast-reject + exact-confirm shape as stages/bloom.semi_join_bloom,
  here as an ANTI-join (keep rows whose hash is NOT in the store).
  At store sizes beyond one node's memory the exact set shards by
  hash range and the verify becomes a bucket-cogroup anti-join; the
  Bloom bits stay broadcastable far longer (12 bits/key at 1% fpp).
- **append**: the surviving batch's hashes are written as ONE new
  shard; a crashed run can re-append idempotently because re-ingesting
  the same docs yields zero survivors next round.

Hash = functions/hashing.content_hash64 — the SAME function
queries.doc_dedup_exact keys on, so in-run and cross-run dedup agree
on identity by construction. Because that hash is only stable for a
fixed polars version (ADVICE r02), every shard is stamped with
``content_hash_algo()`` in its parquet schema metadata and
``load_store`` REFUSES a store written under a different algorithm
(clear error naming both identities) instead of silently re-admitting
previously-ingested documents.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

def _hash_batch(batch: pa.Table, text_col: str) -> np.ndarray:
    from ..functions.hashing import content_hash64

    return content_hash64(batch[text_col])


_ALGO_META = b"skos_fp_algo"


class StoreAlgoMismatch(RuntimeError):
    """A fingerprint shard was written under a different content-hash
    implementation than the one running — its identities are
    incomparable. Rebuild the store (re-ingest) or pin the library."""


class ShardStore:
    """Shared core of BOTH incremental stores (round 5 — the exact
    fingerprint store and the near-dup LSH store previously carried
    parallel shard-listing / stamp-check / write code): an append-only
    directory of parquet shards, each stamped in its schema metadata
    with the signature-algorithm identity that wrote it. Reads REFUSE
    any shard stamped by a different identity (mismatch_exc) instead
    of silently merging incomparable identities; writes are atomic
    (tmp + rename) so a crashed append never leaves a readable partial
    shard. Shard names are uuid-fresh: concurrent/crashed appends can
    only ever add overlapping rows, which consumers dedup."""

    def __init__(self, root: str, meta_key: bytes, algo: str,
                 mismatch_exc=StoreAlgoMismatch):
        self.root = root
        self.meta_key = meta_key
        self.algo = algo
        self.exc = mismatch_exc

    def _check(self, path: str) -> None:
        meta = pq.read_schema(path).metadata or {}
        got = meta.get(self.meta_key, b"<unstamped>").decode()
        if got != self.algo:
            raise self.exc(
                f"shard {path} was written under algo '{got}' but "
                f"this runtime computes '{self.algo}'; cross-run "
                "identities would silently disagree — rebuild the "
                "store")

    def shard_paths(self, kind: str | None = None) -> list[str]:
        d = self.root if kind is None else os.path.join(self.root, kind)
        if not os.path.isdir(d):
            return []
        out = [os.path.join(d, f) for f in sorted(os.listdir(d))
               if f.endswith(".parquet")]
        for p in out:
            self._check(p)
        return out

    def num_rows(self, kind: str | None = None) -> int:
        """Total stored rows from parquet FOOTERS — no data read."""
        return sum(pq.read_metadata(p).num_rows
                   for p in self.shard_paths(kind))

    def write(self, tbl: pa.Table, kind: str | None = None) -> str:
        d = self.root if kind is None else os.path.join(self.root, kind)
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"shard-{uuid.uuid4().hex}.parquet")
        tmp = path + ".tmp"
        pq.write_table(tbl.replace_schema_metadata(
            {self.meta_key: self.algo.encode()}), tmp)
        os.rename(tmp, path)
        return path

    def compact(self, kind: str | None = None,
                key: str | None = None) -> str | None:
        """Merge every shard into ONE (deduplicating on ``key`` when
        given, keeping the first occurrence in shard order — shards
        sort lexically, i.e. arbitrarily-but-stably, and every store
        writes identical rows for a duplicate key, so which survives
        is immaterial) and delete the inputs. Crash contract: the
        merged shard lands via the same atomic write BEFORE any input
        is removed, so an interruption can only leave duplicate rows
        behind — the state every consumer already tolerates (ingest
        crash-replays create the same). A maintenance op for stores
        that have accumulated many small per-round shards; at corpus
        scale run it per key-range through state/manifest's
        partitioned writer instead of this driver-side merge."""
        paths = self.shard_paths(kind)
        if len(paths) <= 1:
            return paths[0] if paths else None
        tbl = pa.concat_tables([pq.read_table(p) for p in paths])
        if key is not None and tbl.num_rows:
            vals = tbl[key].to_numpy(zero_copy_only=False)
            _u, first = np.unique(vals, return_index=True)
            tbl = tbl.take(pa.array(np.sort(first), pa.int64()))
        new = self.write(tbl, kind)
        for p in paths:
            os.remove(p)
        return new


def _fp_store(store_dir: str) -> ShardStore:
    from ..functions.hashing import content_hash_algo

    return ShardStore(store_dir, _ALGO_META, content_hash_algo(),
                      StoreAlgoMismatch)


def load_store(store_dir: str) -> np.ndarray:
    """All fingerprint shards -> sorted unique int64 hash array.
    Raises StoreAlgoMismatch if any shard's stamped hash algorithm
    differs from the running one."""
    parts = _fp_store(store_dir).shard_paths()
    if not parts:
        return np.empty(0, np.int64)
    tabs = [pq.read_table(p, columns=["h"]) for p in parts]
    hs = pa.concat_tables(tabs)["h"].to_numpy(zero_copy_only=False)
    return np.unique(hs)


def filter_new(docs_ds, store_dir: str, *, text_col: str = "text"):
    """-> Dataset of rows whose content hash is NOT in the store,
    with the hash attached as ``_h`` (so append_fingerprints never
    re-hashes)."""
    import ray

    from .bloom import BloomFilter

    known = load_store(store_dir)
    bloom = BloomFilter(max(len(known), 1), fpp=0.01)
    if len(known):
        bloom.add(pa.array(known, pa.int64()))
    ref = ray.put((bloom, pa.array(known, pa.int64())))

    def filt(batch: pa.Table, _ref=ref) -> pa.Table:
        import pyarrow.compute as pc

        bl, exact = ray.get(_ref)
        h = _hash_batch(batch, text_col)
        harr = pa.array(h, pa.int64())
        maybe = bl.contains(harr) if len(exact) else \
            np.zeros(len(h), bool)
        seen = np.zeros(len(h), bool)
        if maybe.any():
            hit = pc.is_in(harr, value_set=exact) \
                .to_numpy(zero_copy_only=False)
            seen = maybe & hit
        return batch.append_column("_h", harr).filter(pa.array(~seen))

    return docs_ds.map_batches(filt, batch_format="pyarrow")


def append_fingerprints(new_ds, store_dir: str) -> str:
    """Write the surviving rows' ``_h`` hashes as one new store shard;
    returns the shard path. Distinct-per-shard; shards may overlap
    after crashes — load_store uniques across shards."""
    os.makedirs(store_dir, exist_ok=True)
    hs: list[np.ndarray] = []
    for b in new_ds.select_columns(["_h"]).iter_batches(
            batch_format="pyarrow", batch_size=65536):
        hs.append(b["_h"].to_numpy(zero_copy_only=False))
    uniq = (np.unique(np.concatenate(hs)) if hs
            else np.empty(0, np.int64))
    return _fp_store(store_dir).write(
        pa.table({"h": pa.array(uniq, pa.int64())}))


def ingest_round(docs_ds, store_dir: str, *, text_col: str = "text"):
    """One incremental round: filter vs store, append survivors'
    fingerprints, return the surviving Dataset (materialized — it is
    consumed twice: fingerprint append + caller)."""
    new = filter_new(docs_ds, store_dir, text_col=text_col).materialize()
    append_fingerprints(new, store_dir)
    return new.drop_columns(["_h"])


# ---------------------------------------------------------------------------
# Cross-run NEAR-dup ingest (the approximate sibling of the exact
# fingerprint store above): each round stores its LSH band index and
# compact shingle sets; the next round flags incoming docs whose
# exact word-3-gram jaccard vs ANY stored doc reaches the threshold.
# ---------------------------------------------------------------------------

_ND_META = b"skos_nd_algo"


def _nd_algo() -> str:
    """Identity of the near-dup signature scheme: the string-hash
    implementation (polars-version-pinned, like the exact store) plus
    the MinHash/LSH parameters — stored shards under ANY other scheme
    are incomparable and must be refused."""
    from ..functions.hashing import content_hash_algo

    return f"{content_hash_algo()}-oph128-b32r4-w3gram"


class NearDupStoreAlgoMismatch(RuntimeError):
    pass


def _nd_store(store_dir: str) -> ShardStore:
    return ShardStore(store_dir, _ND_META, _nd_algo(),
                      NearDupStoreAlgoMismatch)


def _nd_shards(store_dir: str, kind: str) -> list[str]:
    return _nd_store(store_dir).shard_paths(kind)


def _nd_write(tbl: pa.Table, store_dir: str, kind: str) -> str:
    return _nd_store(store_dir).write(tbl, kind)


def ingest_near_dup(docs_ds, store_dir: str, *, text_col: str = "text",
                    id_col: str = "doc_id", threshold: float = 0.8,
                    num_buckets: int = 16):
    """One near-dup ingest round -> (doc_id, dup_of_prior) Dataset.

    A doc is ``dup_of_prior`` when its EXACT word-3-gram jaccard vs
    any PREVIOUSLY stored doc reaches ``threshold`` (LSH banding only
    proposes candidates; every flag is exact-verified — same
    precision contract as the in-run pipeline). Recall is bounded by
    the banding: a true pair at jaccard j is proposed in no band with
    probability (1 - j^4)^32 (≈ 4.8e-8 at j = 0.8; identical docs
    collide deterministically), so flags are a ⊆ of the exact answer
    within that bound — never a superset. Novel docs' band index rows
    and compact shingle blobs append as new shards.

    Scale shape: the stored index is corpus-sized, so candidates come
    from ONE bucket-cogroup join (band,key) new-vs-stored — never a
    broadcast of the store; verification is the in-run pipeline's
    ``dedup.verify_pairs_scatter`` over the new shingles plus the
    stored shingle shards, so no store-sized read reaches the driver
    at any store size. Crash contract (mirrors the exact store): shingles
    write BEFORE index, so a crash can only leave docs unmatchable →
    they re-ingest as novel (conservative duplicate shards, never a
    false dedup); re-running a completed round flags every doc as
    dup-of-prior and appends empty shards — idempotent.

    The append path folds the ROUND's novel ids/blobs through the
    driver (like append_fingerprints — bounded by the ingest round,
    never the accumulated corpus); a crawl whose single round exceeds
    driver memory writes shards from tasks instead, like
    state/manifest.write_partitioned (one keyed exchange; the gather
    holding a partition writes its file)."""
    from functools import partial

    import ray.data as rd

    from .dedup import (MinHashStage, exact_jaccard_batch, shingles_batch,
                        verify_pairs_scatter)
    from .joinutil import cogroup_join
    from .skew import bucket_aggregate

    new_index = docs_ds.map_batches(
        MinHashStage(text_col, id_col), batch_format="pyarrow",
        batch_size=512).materialize()
    new_sh = docs_ds.map_batches(
        lambda b: shingles_batch(b, text_col, id_col),
        batch_format="pyarrow", batch_size=512).materialize()

    idx_schema = pa.schema([("doc_id", pa.int64()), ("band", pa.int32()),
                            ("key", pa.int64())])
    idx_paths = _nd_shards(store_dir, "index")
    sh_paths = _nd_shards(store_dir, "shingles")

    doc_ids = docs_ds.select_columns([id_col])

    dup_ids = None
    if idx_paths:
        stored = rd.read_parquet(idx_paths).map_batches(
            lambda b: pa.table({"s_doc": b["doc_id"], "s_band": b["band"],
                                "key": b["key"]}),
            batch_format="pyarrow")
        cand = cogroup_join(
            new_index, stored, left_on="key", right_on="key",
            num_buckets=num_buckets, left_schema=idx_schema,
            right_schema=pa.schema([("s_doc", pa.int64()),
                                    ("s_band", pa.int32()),
                                    ("key", pa.int64())]))

        def band_match(batch: pa.Table) -> pa.Table:
            keep = pc.equal(batch["band"], pc.cast(batch["s_band"],
                                                   pa.int32()))
            t = batch.filter(keep)
            return pa.table({"doc_a": t["doc_id"], "doc_b": t["s_doc"]})

        # a pair matched in k bands arrives k times; the verify's first
        # exchange drops the copies
        pairs = cand.map_batches(band_match,
                                 batch_format="pyarrow").materialize()

        if pairs.count():
            # exact jaccard through the in-run pipeline's verify: the
            # blob side is the new shingles plus the stored shingle
            # SHARDS read as a Dataset — nothing store-sized ever lands
            # on the driver
            all_sh = new_sh
            if sh_paths:
                stored_sh = rd.read_parquet(
                    sh_paths, columns=["doc_id", "shingles"]).map_batches(
                    # rebuild without the algo-stamp schema metadata so
                    # union blocks concat cleanly
                    lambda b: pa.table({"doc_id": b["doc_id"],
                                        "shingles": b["shingles"]}),
                    batch_format="pyarrow")
                all_sh = new_sh.union(stored_sh)
            verified = verify_pairs_scatter(
                pairs, all_sh.materialize(),
                row_verify=partial(exact_jaccard_batch,
                                   threshold=threshold),
                out_schema=pa.schema([("doc_a", pa.int64()),
                                      ("doc_b", pa.int64()),
                                      ("jaccard", pa.float64())]),
                num_partitions=num_buckets)
            dup_src = verified.map_batches(
                lambda b: pa.table({"dup_doc": b["doc_a"]}),
                batch_format="pyarrow")
            dup_ids = bucket_aggregate(
                dup_src, ["dup_doc"], [("count", None, "_n")],
                num_buckets=num_buckets).drop_columns(["_n"])

    if dup_ids is None:
        flags = doc_ids.map_batches(
            lambda b: pa.table({"doc_id": b[id_col],
                                "dup_of_prior": pa.array(
                                    np.zeros(b.num_rows, bool))}),
            batch_format="pyarrow").materialize()
    else:
        joined = cogroup_join(
            doc_ids, dup_ids, left_on=id_col, right_on="dup_doc",
            join_type="left outer", num_buckets=num_buckets,
            left_schema=pa.schema([(id_col, pa.int64())]),
            right_schema=pa.schema([("dup_doc", pa.int64())]))
        flags = joined.map_batches(
            lambda b: pa.table({
                "doc_id": b[id_col],
                "dup_of_prior": pc.is_valid(b["dup_doc"])}),
            batch_format="pyarrow").materialize()

    # append NOVEL docs' shingles first, index last (crash contract)
    novel = cogroup_join(
        new_sh, flags.map_batches(
            lambda b: pa.table({"f_doc": b["doc_id"]}).filter(
                pc.invert(b["dup_of_prior"])),
            batch_format="pyarrow"),
        left_on="doc_id", right_on="f_doc", join_type="left semi",
        num_buckets=num_buckets,
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("shingles", pa.binary())]),
        right_schema=pa.schema([("f_doc", pa.int64())])).materialize()
    novel_ids = pa.array(
        sorted(r["doc_id"] for b in novel.select_columns(["doc_id"])
               .iter_batches(batch_format="pyarrow")
               for r in b.to_pylist()), pa.int64())
    sh_parts = list(novel.iter_batches(batch_format="pyarrow",
                                       batch_size=65536))
    _nd_write(pa.concat_tables(sh_parts) if sh_parts
              else pa.schema([("doc_id", pa.int64()),
                              ("shingles", pa.binary())]).empty_table(),
              store_dir, "shingles")
    idx_parts = []
    for b in new_index.iter_batches(batch_format="pyarrow",
                                    batch_size=65536):
        keep = pc.is_in(b["doc_id"], value_set=novel_ids)
        idx_parts.append(b.filter(keep))
    _nd_write(pa.concat_tables(idx_parts) if idx_parts
              else idx_schema.empty_table(), store_dir, "index")
    return flags
