"""The checks that sf0.01 oracle rows used to compute inside their
queries, each against a second engine or an exact path. A registered
query runs its own pipeline once and returns what SQL can compute;
each test here holds one dropped check on the same sf0.01 input and
with the same tolerance, and fails whenever that check would have.
The sampled checks of embedding_pca and embedding_kmeans (~4k
vectors) and embedding_semantic_dedup (~2k) covered all 500 sf0.01
vectors, so these run on the whole table."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from skosconverter_ray import queries as Q


def _pairs(ds, a: str, b: str) -> set:
    return {(r[a], r[b]) for r in ds.take_all()}


# --- doc_bpe_train / doc_bpe_encode -------------------------------------

@pytest.fixture(scope="module")
def bpe(ray_session, sf001):
    """(word counts, merges, encoded docs) of the BPE queries."""
    from skosconverter_ray.stages.bpe import bpe_train

    wc = Q._bpe_word_counts(sf001)
    merges = bpe_train(wc, n_merges=12)
    return wc, merges, Q._bpe_encode(sf001, merges)


def test_bpe_train_matches_sequential_trainer(bpe):
    """doc_bpe_train's seq_parity: the distributed merge list EXACTLY
    equals the naive in-memory trainer on the same word counts (the
    count-desc/pair-asc tie-break makes the list unique)."""
    from skosconverter_ray.stages.bpe import bpe_train_sequential

    wc, merges, _ = bpe
    counts: dict[str, int] = {}
    for b in wc.iter_batches(batch_format="pyarrow", batch_size=8192):
        for w, c in zip(b["word"].to_pylist(), b["cnt"].to_pylist()):
            counts[w] = counts.get(w, 0) + c
    assert merges == bpe_train_sequential(counts, 12)


def test_bpe_encode_matches_sequential_encoder(sf001, bpe):
    """doc_bpe_encode's encode_parity: on a hash-bounded doc sample,
    per-doc subtoken counts of the actor-pool encoder equal the
    scan-per-rank sequential encoder's."""
    import polars as pl
    import pyarrow.parquet as pq

    from skosconverter_ray.stages.bpe import encode_word_sequential

    _, merges, enc = bpe
    keep_mod = max(1, Q._meta_rows(sf001, "documents") // 64)
    per_doc: dict[int, int] = {}
    for b in enc.iter_batches(batch_format="pyarrow", batch_size=8192):
        dids = b["doc_id"].to_numpy(zero_copy_only=False)
        nsub = b["n_subtokens"].to_numpy(zero_copy_only=False)
        sel = ((np.abs(dids) % 1000003) * 2654435761 % 1000003) \
            % keep_mod == 0
        per_doc.update(zip(dids[sel].tolist(), nsub[sel].tolist()))
    assert per_doc
    tab = pq.read_table(f"{sf001}/documents.parquet",
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "in", sorted(per_doc))])
    want = {}
    for d, txt in zip(tab["doc_id"].to_pylist(), tab["text"].to_pylist()):
        words = pl.Series([txt]).str.to_lowercase() \
            .str.extract_all(r"[a-z]+")[0].to_list()
        want[d] = sum(len(encode_word_sequential(w, merges)) for w in words)
    assert {d: per_doc.get(d, -1) for d in want} == want


def test_bpe_encode_compresses(bpe):
    """doc_bpe_encode's compressed: n_words <= n_subtokens <= letters
    in words over the whole corpus (each word is >= 1 token, merging
    only shrinks)."""
    wc, _, enc = bpe
    n_words = n_sub = n_chars = 0
    for b in enc.iter_batches(batch_format="pyarrow", batch_size=8192):
        n_words += pc.sum(b["n_words"]).as_py() or 0
        n_sub += pc.sum(b["n_subtokens"]).as_py() or 0
    for b in wc.iter_batches(batch_format="pyarrow", batch_size=8192):
        lens = pc.utf8_length(b["word"]).to_numpy(zero_copy_only=False)
        n_chars += int((lens * b["cnt"].to_numpy(zero_copy_only=False))
                       .sum())
    assert 0 < n_words <= n_sub <= n_chars


# --- doc_dedup_simhash ---------------------------------------------------

def test_simhash_banding_equals_brute_force(ray_session, sf001):
    """doc_dedup_simhash's banding_equals_brute: the banded pair set
    (hamming <= 3) equals a blocked all-pairs hamming scan over the
    same signatures."""
    from skosconverter_ray.stages.dedup import (simhash_batch,
                                                simhash_near_dup_pairs)

    docs = Q._read(sf001, "documents", ["doc_id", "text"])
    banded = _pairs(simhash_near_dup_pairs(docs, max_hamming=3),
                    "doc_a", "doc_b")
    sigs = {}
    for b in docs.map_batches(lambda t: simhash_batch(t, "text"),
                              batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        sigs.update(zip(b["doc_id"].to_pylist(), b["simhash"].to_pylist()))
    ids = sorted(sigs)
    s = np.array([sigs[i] for i in ids], np.int64).astype(np.uint64)
    brute = set()
    for lo in range(0, len(ids), 1024):
        x = s[lo:lo + 1024, None] ^ s[None, :]
        ham = np.zeros(x.shape, np.int64)
        while x.any():
            ham += (x & np.uint64(1)).astype(np.int64)
            x >>= np.uint64(1)
        for a, b in zip(*np.where(ham <= 3)):
            if a + lo < b:
                brute.add((ids[a + lo], ids[b]))
    assert len(ids) == Q._meta_rows(sf001, "documents")
    assert banded == brute


# --- embedding_pca / embedding_kmeans / embedding_semantic_dedup --------

@pytest.fixture(scope="module")
def embeddings(ray_session, sf001):
    """(vec_ids, float64 matrix) of the sf0.01 embeddings table."""
    import pyarrow.parquet as pq

    from skosconverter_ray.functions.arrays import list_column_to_matrix

    t = pq.read_table(f"{sf001}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    return (t["vec_id"].to_numpy(),
            list_column_to_matrix(t["embedding"].combine_chunks()))


def test_pca_matches_numpy(sf001, embeddings):
    """embedding_pca's numpy_parity: the streaming PCA stage's top-3
    eigenvalues and explained ratios equal an exact single-matrix
    numpy recomputation within 1e-6."""
    from skosconverter_ray.stages.similarity import embedding_pca

    got = {r["component"]: (r["eigenvalue"], r["explained_ratio"])
           for r in embedding_pca(Q._read(sf001, "embeddings",
                                          ["embedding"]), top_k=3)
           .take_all()}
    m = embeddings[1]
    cov = (m.T @ m) / len(m) - np.outer(m.mean(axis=0), m.mean(axis=0))
    evals = np.linalg.eigvalsh(cov)[::-1]
    total = float(evals.sum()) or 1.0
    for i in range(3):
        assert abs(got[i][0] - evals[i]) < 1e-6
        assert abs(got[i][1] - evals[i] / total) < 1e-6


def test_kmeans_matches_sequential(sf001, embeddings):
    """embedding_kmeans's numpy_parity: the distributed engine and the
    identical-semantics sequential engine give centroids within 1e-6
    and equal cluster counts."""
    from skosconverter_ray.stages.similarity import kmeans, kmeans_sequential

    ids, mat = embeddings
    cd, nd, _ = kmeans(Q._read(sf001, "embeddings", ["vec_id", "embedding"]),
                       k=8, n_iter=5)
    cs, ns, _ = kmeans_sequential(mat, ids, k=8, n_iter=5)
    assert np.abs(cd - cs).max() < 1e-6
    assert (nd == ns).all()


@pytest.fixture(scope="module", params=[0.80, 0.40],
                ids=["thr0.80", "thr0.40"])
def semdedup(request, sf001, embeddings):
    """(threshold, centroids, {vec_id: (keep, cluster)}) of
    embedding_semantic_dedup's pipeline at the query's 0.80, where
    sf0.01 drops none of its 500 vectors, and at 0.40, where it drops
    24, so that a missed drop shows too."""
    cent, out = Q._semantic_dedup(sf001, request.param)
    return request.param, cent, {r["vec_id"]: (r["keep"], r["cluster"])
                                 for r in out.take_all()}


def test_semantic_dedup_matches_sequential(embeddings, semdedup):
    """embedding_semantic_dedup's numpy_parity: with the same
    centroids, the distributed keep mask equals the sequential
    engine's."""
    from skosconverter_ray.stages.similarity import semantic_dedup_sequential

    ids, mat = embeddings
    thr, cent, got = semdedup
    keep = semantic_dedup_sequential(mat, ids, cent, threshold=thr)
    assert len(got) == len(ids)
    assert {int(i): got[int(i)][0] for i in ids} == \
        {int(i): bool(k) for i, k in zip(ids, keep)}


def test_semantic_dedup_drops_only_covered(embeddings, semdedup):
    """embedding_semantic_dedup's crosscluster_free: every dropped
    vector has a lower-id member of its own cluster at cosine >= the
    threshold. At 0.40 sf0.01 drops vectors, so this checks real
    drops, not only that none is made wrongly."""
    ids, mat = embeddings
    thr, _, got = semdedup
    m = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-30)[:, None]
    order = np.argsort(ids, kind="stable")
    dropped, uncovered = 0, []
    for pos, i in enumerate(order):
        keep, cluster = got[int(ids[i])]
        if keep:
            continue
        dropped += 1
        earlier = [j for j in order[:pos] if got[int(ids[j])][1] == cluster]
        if not (earlier and (m[earlier] @ m[i] >= thr - 1e-12).any()):
            uncovered.append(int(ids[i]))
    assert uncovered == []
    assert dropped > 0 or thr == 0.80


# --- embedding_neardup_lsh, ann_topk_ivf, ann_topk_lsh ------------------

@pytest.fixture(scope="module")
def exact_pairs(ray_session, sf001):
    from skosconverter_ray.stages.dedup import embedding_near_dup_pairs

    return _pairs(embedding_near_dup_pairs(
        Q._read(sf001, "embeddings", ["vec_id", "embedding"]),
        threshold=0.45), "vec_a", "vec_b")


def test_neardup_exact_pair_count_matches_duckdb(sf001, exact_pairs):
    """embedding_neardup_lsh's n_exact_pairs: the exact blocked path
    finds as many pairs at cosine >= 0.45 as DuckDB's all-pairs
    join."""
    import duckdb

    n = duckdb.sql(f"""
        WITH e AS (SELECT vec_id,
                          list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
                   FROM read_parquet('{sf001}/embeddings.parquet'))
        SELECT count(*) FROM e a JOIN e b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.v, b.v) >= 0.45""").fetchone()[0]
    assert len(exact_pairs) == n


def test_neardup_lsh_precision_and_recall(sf001, exact_pairs):
    """embedding_neardup_lsh's precision_ok and recall_ok: every LSH
    pair is an exact pair, and the LSH path finds >= 85% of them."""
    from skosconverter_ray.stages.similarity import embedding_neardup_lsh

    lsh = _pairs(embedding_neardup_lsh(
        Q._read(sf001, "embeddings", ["vec_id", "embedding"]),
        threshold=0.45, n_bits=6), "vec_a", "vec_b")
    assert lsh <= exact_pairs
    assert len(lsh) >= 0.85 * len(exact_pairs)


@pytest.mark.parametrize("engine, floor", [("ivf", 0.75), ("lsh", 0.85)])
def test_ann_topk_recall(ray_session, sf001, engine, floor):
    """ann_topk_ivf's and ann_topk_lsh's recall_ok: the approximate
    top-10 holds at least ``floor`` of ann_topk_cosine's brute-force
    top-10."""
    from skosconverter_ray.stages.similarity import ann_ivf_topk, ann_lsh_topk

    q, ds = Q._ann_query(sf001)
    approx = (ann_ivf_topk(ds, q, k=10, n_probe=6, exclude_ids=(0,))
              if engine == "ivf"
              else ann_lsh_topk(ds, q, k=10, exclude_ids=(0,)))
    brute = {r["vec_id"] for r in Q.ann_topk_cosine(sf001).take_all()}
    got = {r["vec_id"] for r in approx.take_all()}
    assert len(brute) == 10
    assert len(got & brute) / len(brute) >= floor


# --- doc_top_terms_cms, events_value_quantiles_sketch, HLL -------------

@pytest.fixture(scope="module")
def cms_top20(ray_session, sf001):
    """(sketch estimates, exact counts, bound) of the 20 most frequent
    tokens."""
    from skosconverter_ray.stages.sketch import (cms_estimate, count_min,
                                                 frequent_items)

    toks = Q._cms_tokens(sf001).materialize()
    width = 8192
    mat = count_min(toks, "tok", width=width)
    t = Q._collect(frequent_items(toks, "tok", capacity=4096),
                   pa.schema([("item", pa.string()), ("est", pa.int64())]))
    t = t.take(pc.sort_indices(t, sort_keys=[("est", "descending"),
                                             ("item", "ascending")]))[:20]
    n_total = int(mat[0].sum())
    return (cms_estimate(mat, t["item"]),
            t["est"].to_numpy(zero_copy_only=False),
            16 * ((n_total + width - 1) // width))


def test_cms_never_undercounts(cms_top20):
    """doc_top_terms_cms's cms_ge_exact: a Count-Min point query never
    undercounts."""
    est, exact, _ = cms_top20
    assert len(est) == 20 and (est >= exact).all()


def test_cms_within_bound(cms_top20):
    """doc_top_terms_cms's cms_within_bound: est - exact <=
    16*ceil(N/width) on each top-20 term (4x the expected collision
    mass per row; deterministic for the fixed salts)."""
    est, exact, bound = cms_top20
    assert (est - exact <= bound).all()


def test_dd_quantiles_within_2pct(ray_session, sf001):
    """events_value_quantiles_sketch's sketch_within_2pct: every DDSketch
    estimate (rel_err=0.01) is within 2% of the exact quantile_disc
    value, for every event type."""
    from skosconverter_ray.stages.quantile import per_key_quantiles
    from skosconverter_ray.stages.sketch import dd_quantiles

    qs = {"p50": 0.5, "p95": 0.95, "p99": 0.99}
    est = {r["event_type"]: r for r in dd_quantiles(
        Q._read(sf001, "events", ["event_type", "value"]),
        "event_type", "value", qs, rel_err=0.01).take_all()}
    exact = per_key_quantiles(
        Q._read(sf001, "events", ["event_type", "value"]),
        "event_type", "value", qs).take_all()
    assert exact and len(est) == len(exact)
    for r in exact:
        e = est[r["event_type"]]
        for name in qs:
            assert abs(e[name] - r[name]) <= 0.02 * abs(r[name]) + 1e-12


def test_hll_within_5pct(ray_session, sf001):
    """events_distinct_users_hll's hll_within_5pct: each per-event-type
    HLL estimate is within 5% of the exact distinct user count."""
    import pyarrow.parquet as pq

    from skosconverter_ray.stages.sketch import distinct_count_hll

    est = {r["event_type"]: r["n_distinct_est"] for r in distinct_count_hll(
        Q._read(sf001, "events", ["event_type", "user_id"]),
        "event_type", "user_id").take_all()}
    exact = pq.read_table(f"{sf001}/events.parquet",
                          columns=["event_type", "user_id"]) \
        .group_by("event_type").aggregate([("user_id", "count_distinct")])
    want = dict(zip(exact["event_type"].to_pylist(),
                    exact["user_id_count_distinct"].to_pylist()))
    assert want and set(est) == set(want)
    for key, n in want.items():
        assert abs(est[key] - n) <= 0.05 * n


# --- media_dedup_phash --------------------------------------------------

def test_phash_coarsens_exact_pixels():
    """media_dedup_phash's coarsens_exact: the average-hash partition of
    the seed-42 image store has no more groups than its exact-pixel
    partition (a shape-tagged CRC; 14 against 16)."""
    import zlib

    from skosconverter_ray.stages.multimodal import (_resolve_store,
                                                     average_hash, decode_bmp)

    phash, exact = set(), set()
    for _fmt, payload in _resolve_store(Q._media_image_store()).values():
        img = decode_bmp(payload)
        phash.add(average_hash(img))
        exact.add((zlib.crc32(img.tobytes()), img.shape))
    assert len(phash) <= len(exact)


# --- graph_checkpoint_resume / incremental_neardup ----------------------

def test_checkpoint_resume_matches_uninterrupted_write(ray_session, sf001,
                                                       tmp_path):
    """graph_checkpoint_resume's identical: the interrupted-then-resumed
    write holds the same rows as one uninterrupted write."""
    import pyarrow.parquet as pq

    from skosconverter_ray.state.manifest import write_partitioned

    Q._resumed_write(sf001, str(tmp_path / "resumed"))
    write_partitioned(Q._read(sf001, "documents", Q._RESUME_COLS),
                      str(tmp_path / "full"), key_col="doc_id", n_parts=8,
                      stage="docs", lineage=sf001)

    def rows(d):
        return pq.read_table(tmp_path / d).select(Q._RESUME_COLS) \
            .sort_by([("doc_id", "ascending")])

    assert rows("full").num_rows == Q._meta_rows(sf001, "documents")
    assert rows("resumed").equals(rows("full"))


def test_incremental_reingest_flags_every_doc(ray_session, sf001, tmp_path):
    """incremental_neardup's reingest_all_dup: replaying round B against
    the updated store flags every doc dup-of-prior (each matches its
    own stored copy at jaccard 1), so no novel row appends."""
    rounds = Q._neardup_rounds(sf001, str(tmp_path), (0, 1, 1))
    (b_n, _), (b2_n, b2_dup) = rounds[1], rounds[2]
    assert b_n > 0 and b2_n == b_n and b2_dup == b2_n
