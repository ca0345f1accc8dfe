"""Incremental-ingest fingerprint store: cross-run dedup semantics."""

import ray.data as rd

from skosconverter_ray.stages.incremental import (ingest_round,
                                                  load_store)


def _docs(texts, start=0):
    return rd.from_items([{"doc_id": start + i, "text": t}
                          for i, t in enumerate(texts)])


def test_ingest_rounds(ray_session, tmp_path):
    store = str(tmp_path / "fps")

    # round 1: everything is new (one in-batch duplicate text still
    # passes the CROSS-run filter; in-run dedup is a separate op)
    r1 = ingest_round(_docs(["alpha doc", "beta doc", "alpha doc"]),
                      store)
    assert r1.count() == 3
    assert len(load_store(store)) == 2          # distinct hashes stored

    # round 2: one repeat from round 1, one genuinely new
    r2 = ingest_round(_docs(["beta doc", "gamma doc"], start=10), store)
    rows = r2.take_all()
    assert [r["text"] for r in rows] == ["gamma doc"]
    assert len(load_store(store)) == 3

    # round 3: full replay of everything seen -> zero survivors
    r3 = ingest_round(_docs(["alpha doc", "beta doc", "gamma doc"],
                            start=20), store)
    assert r3.count() == 0
    assert len(load_store(store)) == 3


def test_empty_store_and_crash_idempotence(ray_session, tmp_path):
    store = str(tmp_path / "fps")
    assert len(load_store(store)) == 0
    ingest_round(_docs(["x y z"]), store)
    # simulate a crashed re-run appending an overlapping shard
    ingest_round(_docs(["x y z"]), store)
    assert len(load_store(store)) == 1          # unique across shards


def test_store_algo_mismatch_refused(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from skosconverter_ray.stages.incremental import (
        StoreAlgoMismatch, load_store)

    # a shard stamped by a different hash implementation must be
    # refused loudly, never silently merged (ADVICE r02: a polars
    # upgrade would otherwise re-admit every ingested document)
    t = pa.table({"h": pa.array([1, 2, 3], pa.int64())})
    pq.write_table(
        t.replace_schema_metadata({b"skos_fp_algo": b"polars-ahash-0.0.1"}),
        str(tmp_path / "shard-old.parquet"))
    with pytest.raises(StoreAlgoMismatch, match="rebuild the store"):
        load_store(str(tmp_path))
    # unstamped legacy shards are refused too
    pq.write_table(t, str(tmp_path / "shard-old.parquet"))
    with pytest.raises(StoreAlgoMismatch, match="unstamped"):
        load_store(str(tmp_path))


# ---------------------------------------------------------------------------
# Cross-run NEAR-dup ingest
# ---------------------------------------------------------------------------

_ND_A = [
    (0, "alpha bravo charlie delta echo foxtrot golf hotel india"),
    (2, "one two three four five six seven eight nine ten"),
    (4, "totally distinct words here nothing shared at all okay"),
]
_ND_B = [
    # near-dup of doc 0 (one word appended -> jaccard ~0.78? compute:
    # identical text = jaccard 1.0 -> definitely flagged)
    (1, "alpha bravo charlie delta echo foxtrot golf hotel india"),
    # novel
    (3, "completely new content with fresh vocabulary only here"),
]


def _nd_docs(rows):
    import pyarrow as pa
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })).repartition(2)


def test_near_dup_ingest_two_rounds(ray_session, tmp_path):
    from skosconverter_ray.stages.incremental import ingest_near_dup

    store = str(tmp_path / "nd")
    fa = {r["doc_id"]: r["dup_of_prior"]
          for b in ingest_near_dup(_nd_docs(_ND_A), store)
          .iter_batches(batch_format="pyarrow") for r in b.to_pylist()}
    assert fa == {0: False, 2: False, 4: False}

    fb = {r["doc_id"]: r["dup_of_prior"]
          for b in ingest_near_dup(_nd_docs(_ND_B), store)
          .iter_batches(batch_format="pyarrow") for r in b.to_pylist()}
    assert fb == {1: True, 3: False}

    # idempotence: replaying round B flags everything (3 now matches
    # its own stored copy)
    fb2 = {r["doc_id"]: r["dup_of_prior"]
           for b in ingest_near_dup(_nd_docs(_ND_B), store)
           .iter_batches(batch_format="pyarrow") for r in b.to_pylist()}
    assert fb2 == {1: True, 3: True}


def test_near_dup_store_refuses_algo_mismatch(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pt

    from skosconverter_ray.stages.incremental import (
        NearDupStoreAlgoMismatch, ingest_near_dup)

    store = tmp_path / "nd"
    (store / "index").mkdir(parents=True)
    pq.write_table(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "band": pa.array([0], pa.int32()),
                  "key": pa.array([7], pa.int64())})
        .replace_schema_metadata({b"skos_nd_algo": b"other-algo"}),
        store / "index" / "shard-x.parquet")
    with _pt.raises(NearDupStoreAlgoMismatch):
        ingest_near_dup(_nd_docs(_ND_A), str(store))

def _nd_oracle(new_rows, stored_rows, threshold):
    """All-pairs oracle: doc id -> whether its exact word-3-gram
    jaccard (``dedup.shingle_set``) vs any stored doc reaches
    ``threshold``."""
    import numpy as np

    from skosconverter_ray.stages.dedup import shingle_set

    stored = [shingle_set(t) for _, t in stored_rows]
    out = {}
    for i, t in new_rows:
        sa = shingle_set(t)
        best = 0.0
        for sb in stored:
            if sa.size and sb.size:
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                best = max(best, inter / (sa.size + sb.size - inter))
        out[i] = best >= threshold
    return out


def test_near_dup_ingest_distributed_verify(ray_session, tmp_path):
    """Verification is the two-exchange task cogroup vs the stored
    shingle SHARDS (read as a Dataset, never onto the driver): each
    round's flags equal the all-pairs oracle's, including LSH
    candidates below the threshold, a pair at exactly 8/10, a doc
    too short for a 3-gram and the idempotent replay."""
    import numpy as np

    from skosconverter_ray.stages.incremental import ingest_near_dup

    rng = np.random.default_rng(11)
    vocab = [f"v{i}" for i in range(400)]
    fresh = iter(f"n{i}" for i in range(10_000))
    base = [rng.choice(vocab, size=20, replace=False).tolist()
            for _ in range(10)]
    edge = "one two three four five six seven eight nine ten"
    rows_a = [(2 * i, " ".join(w)) for i, w in enumerate(base)]
    rows_a.append((100, edge))
    rows_b, nid = [], 1
    for w in base:
        # jaccard 18/19, 15/21 and 13/23 against w
        for keep, n_new in ((20, 1), (17, 3), (15, 5)):
            tail = [next(fresh) for _ in range(n_new)]
            rows_b.append((nid, " ".join(w[:keep] + tail)))
            nid += 2
    rows_b += [(101, edge + " eleven twelve"),   # jaccard exactly 0.8
               (103, "too short"),
               (105, " ".join(next(fresh) for _ in range(15)))]

    def flags(rows):
        return {r["doc_id"]: r["dup_of_prior"]
                for b in ingest_near_dup(_nd_docs(rows), store)
                .iter_batches(batch_format="pyarrow")
                for r in b.to_pylist()}

    store = str(tmp_path / "nd")
    assert flags(rows_a) == {i: False for i, _ in rows_a}

    want_b = _nd_oracle(rows_b, rows_a, 0.8)
    assert flags(rows_b) == want_b
    assert want_b[101] and not want_b[103] and not want_b[105]
    assert sum(want_b.values()) == 11       # 10 one-word edits + edge

    novel_b = [r for r in rows_b if not want_b[r[0]]]
    assert flags(rows_b) == _nd_oracle(rows_b, rows_a + novel_b, 0.8)


def test_shard_store_core(tmp_path):
    """The shared ShardStore core behind BOTH incremental stores:
    stamped atomic writes, footer-only row counts, loud refusal of
    foreign or unstamped shards."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from skosconverter_ray.stages.incremental import (ShardStore,
                                                      StoreAlgoMismatch)

    st = ShardStore(str(tmp_path), b"algo_key", "algo-v1")
    t = pa.table({"h": pa.array([1, 2, 3], pa.int64())})
    p1 = st.write(t)
    p2 = st.write(t, kind="sub")
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert st.num_rows() == 3 and st.num_rows("sub") == 3
    assert st.shard_paths() == [p1] and st.shard_paths("sub") == [p2]
    # a shard stamped by another identity is refused on every read op
    other = ShardStore(str(tmp_path), b"algo_key", "algo-v2")
    with pytest.raises(StoreAlgoMismatch, match="rebuild"):
        other.shard_paths()
    # unstamped legacy shards are refused too
    pq.write_table(t, str(tmp_path / "shard-legacy.parquet"))
    with pytest.raises(StoreAlgoMismatch, match="unstamped"):
        st.num_rows()

def test_store_compaction(ray_session, tmp_path):
    """Compaction merges shards to one (dedup on key), preserves
    query results for BOTH stores, and an interrupted compaction
    (merged shard written, inputs not yet removed) only duplicates
    rows — never changes answers."""
    import os

    import pyarrow.parquet as pq

    from skosconverter_ray.stages.incremental import (
        _fp_store, _nd_store, ingest_near_dup, ingest_round,
        load_store)

    # exact store: 3 rounds -> 3 shards -> 1 after compaction
    store = str(tmp_path / "fps")
    ingest_round(_docs(["a b c", "d e f"]), store)
    ingest_round(_docs(["d e f", "g h i"], start=10), store)
    ingest_round(_docs(["j k l"], start=20), store)
    before = list(load_store(store))
    st = _fp_store(store)
    assert len(st.shard_paths()) == 3
    st.compact(key="h")
    assert len(st.shard_paths()) == 1
    assert list(load_store(store)) == before

    # near-dup store: compact both kinds, flags unchanged
    nd = str(tmp_path / "nd")
    ingest_near_dup(_nd_docs(_ND_A), nd)
    ingest_near_dup(_nd_docs(_ND_B), nd)
    nds = _nd_store(nd)
    nds.compact("index")
    nds.compact("shingles", key="doc_id")
    fb2 = {r["doc_id"]: r["dup_of_prior"]
           for b in ingest_near_dup(_nd_docs(_ND_B), nd)
           .iter_batches(batch_format="pyarrow") for r in b.to_pylist()}
    assert fb2 == {1: True, 3: True}

    # interrupted compaction: merged shard exists ALONGSIDE inputs
    p = st.shard_paths()[0]
    dup = str(tmp_path / "fps" / "shard-zzzcrash.parquet")
    pq.write_table(pq.read_table(p).replace_schema_metadata(None),
                   dup)  # unstamped -> refused
    import pytest

    from skosconverter_ray.stages.incremental import StoreAlgoMismatch
    with pytest.raises(StoreAlgoMismatch):
        load_store(store)
    os.remove(dup)
    # a STAMPED duplicate shard (the real crash artifact) is benign
    st.write(pq.read_table(p))
    assert list(load_store(store)) == before
