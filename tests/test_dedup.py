"""Near-dup / similarity / multimodal operator tests.

Oracles are sequential Python brute force over small corpora — the
distributed pipelines must agree exactly (MinHash banding is lossless
at j>=0.8 within ~5e-8; SimHash quarter-banding is pigeonhole-exact)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from skosconverter_ray.stages import dedup


def _mk_docs():
    """12 docs: 3 exact/near-dup families + singletons."""
    base = ("the quick brown fox jumps over the lazy dog while the cat "
            "watches from the warm windowsill and the birds sing").split()
    docs = {}
    docs[0] = " ".join(base)
    docs[1] = " ".join(base)                       # exact dup of 0
    docs[2] = " ".join(base[:-1] + ["loudly"])     # near dup of 0
    other = ("colorless green ideas sleep furiously under the bright "
             "neon sign of the all night diner on route sixty six").split()
    docs[3] = " ".join(other)
    docs[4] = " ".join(other[:-2] + ["nine", "nine"])  # near dup of 3
    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(50)]
    for i in range(5, 12):
        docs[i] = " ".join(rng.choice(vocab, size=40))
    return docs


def _brute_jaccard_pairs(docs: dict, threshold: float):
    def sh(t):
        w = t.split()
        return {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}

    sets = {k: sh(v) for k, v in docs.items()}
    out = {}
    ids = sorted(docs)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            j = inter / (len(sets[a]) + len(sets[b]) - inter)
            if j >= threshold:
                out[(a, b)] = j
    return out


def test_minhash_lsh_matches_bruteforce(ray_session):
    docs = _mk_docs()
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in docs.items()])
    got = dedup.minhash_near_dup_pairs(ds, threshold=0.8, num_partitions=4)
    rows = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in got.take_all()}
    expect = _brute_jaccard_pairs(docs, 0.8)
    assert rows.keys() == expect.keys()
    for k in expect:
        assert rows[k] == pytest.approx(expect[k], abs=0)  # bitwise


def test_short_docs_excluded_from_neardup(ray_session):
    """Docs with < 3 words have no word 3-gram: the oracle's
    WHERE len(w) >= 3 excludes them, so identical short docs must NOT
    pair up (they previously shingled to a whole-text gram and paired
    at jaccard 1.0)."""
    docs = {0: "hi", 1: "hi", 2: "two words", 3: "two words", 4: ""}
    assert dedup.shingle_set("two words").size == 0
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in docs.items()])
    got = dedup.minhash_near_dup_pairs(ds, threshold=0.8, num_partitions=2)
    assert got.take_all() == []


def test_minhash_signature_estimates_jaccard():
    a = dedup.shingle_set("the quick brown fox jumps over the lazy dog " * 20)
    b = dedup.shingle_set("the quick brown fox leaps over the lazy dog " * 20)
    sa, sb = dedup.minhash_signature(a), dedup.minhash_signature(b)
    est = (sa == sb).mean()
    inter = np.intersect1d(a, b).size
    true = inter / (a.size + b.size - inter)
    assert abs(est - true) < 0.2


def _brute_simhash_pairs(docs: dict, max_h: int):
    hs = {k: dedup.simhash64(v) for k, v in docs.items()}
    out = {}
    ids = sorted(docs)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = int(hs[a] ^ hs[b]).bit_count()
            if d <= max_h:
                out[(a, b)] = d
    return out


def test_simhash_banding_exact(ray_session):
    docs = _mk_docs()
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in docs.items()])
    got = dedup.simhash_near_dup_pairs(ds, max_hamming=3)
    rows = {(r["doc_a"], r["doc_b"]): r["hamming"] for r in got.take_all()}
    # quarter banding is pigeonhole-exact for hamming<=3: d<=3 bit
    # flips cannot touch all four 16-bit quarters
    assert rows == _brute_simhash_pairs(docs, 3)


def test_embedding_neardup_bruteforce(ray_session):
    rng = np.random.RandomState(3)
    base = rng.normal(size=(6, 16))
    vecs = np.vstack([base, base[0] + 0.01 * rng.normal(size=16)])
    ds = rd.from_items([
        {"vec_id": i, "embedding": vecs[i].astype(np.float32).tolist()}
        for i in range(len(vecs))
    ])
    got = dedup.embedding_near_dup_pairs(ds, threshold=0.95)
    pairs = {(r["vec_a"], r["vec_b"]) for r in got.take_all()}
    assert (0, 6) in pairs
    m = vecs.astype(np.float32).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    expect = {(i, j) for i in range(7) for j in range(i + 1, 7)
              if sims[i, j] >= 0.95}
    assert pairs == expect


def test_ann_lsh_recall(ray_session):
    from skosconverter_ray.stages.similarity import ann_lsh_topk

    sf = "/root/testdata/sf0.001"
    emb = rd.read_parquet(f"{sf}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    tbl = pa.concat_tables(emb.iter_batches(batch_format="pyarrow"))
    mat = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = np.asarray(tbl["vec_id"].to_pylist())
    q = mat[ids == 0][0]
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    sims = (mat @ (q / np.linalg.norm(q))) / norms
    order = np.argsort(-sims)
    exact = [int(ids[i]) for i in order if ids[i] != 0][:10]

    got = ann_lsh_topk(emb, q, k=10, exclude_ids=(0,)).take_all()
    got_ids = [r["vec_id"] for r in got]
    recall = len(set(got_ids) & set(exact)) / 10
    assert recall >= 0.7, f"LSH recall {recall} vs exact {exact}"


def test_media_features_plumbing(ray_session):
    from skosconverter_ray import corpus, vocab
    from skosconverter_ray.stages import multimodal

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=1, n_concepts=10,
                                               seed=1))
    docs_tbl = corpus.generate_documents_table(50, voc, seed=1)
    kinds = ("image", "audio", "table")
    n_media = sum(1 for spans in docs_tbl["spans"].to_pylist()
                  for s in spans if s["kind"] in kinds and s["media_ref"])

    ds = rd.from_arrow(docs_tbl)
    out = ds.map_batches(
        multimodal.MediaFeatureExtractor,
        fn_constructor_kwargs={"fake": True, "kinds": kinds},
        batch_format="pyarrow", batch_size=16, concurrency=(1, 2))
    rows = out.take_all()
    assert len(rows) == n_media
    assert all(len(r["feature"]) == multimodal.FEATURE_DIM for r in rows)
    # determinism: same ref -> same feature on any worker
    f0 = multimodal._fake_feature("media://abc", "image")
    f1 = multimodal._fake_feature("media://abc", "image")
    assert np.array_equal(f0, f1)

    # the non-fake path marks the codec boundary explicitly
    ext = multimodal.MediaFeatureExtractor(fake=False)
    with pytest.raises(NotImplementedError):
        ext._decode_and_embed("media://x", "image")

    # frame sampling plan is deterministic and bounded
    fs = multimodal.FrameSampler(every_s=2.0, max_frames=4)
    plan = fs(docs_tbl)
    assert plan.num_rows <= n_media * 4


def test_average_hash_keeps_bit_63():
    """Two 8×8 patterns that differ only in the last cell (bit 63)
    must hash differently; the sign bit of the int64 is a hash bit."""
    from skosconverter_ray.stages.multimodal import (average_hash,
                                                     box_resize)

    cells = np.zeros(64, np.uint8)
    cells[::3] = 255
    cells[63] = 0
    low = np.repeat(cells.reshape(8, 8, 1), 3, axis=2)
    high = low.copy()
    high[7, 7] = 255
    h_low, h_high = average_hash(low), average_hash(high)
    assert h_low != h_high
    assert (h_low ^ h_high) & ((1 << 64) - 1) == 1 << 63
    assert h_high < 0 <= h_low
    # cell i is bit i
    want = sum(1 << i for i in range(0, 63, 3))
    assert h_low == want
    # the per-bit loop as the reference, on random 16x16 images
    rng = np.random.default_rng(5)
    for _ in range(20):
        img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        gray = box_resize(img, 8, 8).astype(np.int64).sum(axis=2)
        ref = 0
        for i, b in enumerate(gray.reshape(-1) > gray.mean()):
            ref |= int(b) << i
        assert average_hash(img) == ref - (ref >> 63 << 64)


def test_embedding_lsh_allpairs_recall(ray_session):
    """Sign-LSH bucketed all-pairs path: precision must be exact
    (cosine verified in-bucket), recall >= 0.9 vs brute force on
    planted high-similarity near-dups."""
    from skosconverter_ray.stages.similarity import embedding_neardup_lsh

    rng = np.random.RandomState(5)
    base = rng.normal(size=(600, 32))
    planted = base[:120] + 0.12 * rng.normal(size=(120, 32))
    vecs = np.vstack([base, planted])  # pair (i, 600+i) is a near-dup
    n = len(vecs)
    ds = rd.from_items([
        {"vec_id": i, "embedding": vecs[i].tolist()} for i in range(n)
    ])

    m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = m @ m.T
    thr = 0.85
    expect = {(i, j): round(float(sims[i, j]), 4)
              for i in range(n) for j in range(i + 1, n)
              if sims[i, j] >= thr}
    assert len(expect) >= 100  # the plant worked

    got = {(r["vec_a"], r["vec_b"]): r["cos_sim"]
           for r in embedding_neardup_lsh(ds, threshold=thr).take_all()}
    # precision 1.0: every reported pair is a true pair, exact cosine
    for k, v in got.items():
        assert k in expect and v == pytest.approx(expect[k], abs=1e-9)
    recall = len(got) / len(expect)
    assert recall >= 0.9, f"LSH all-pairs recall {recall}"


def test_embedding_near_dup_routes_to_lsh(ray_session, monkeypatch):
    """Above ``_EMB_BRUTE_MAX`` rows the public entry point uses the
    bucketed path (no driver-side whole-table concat)."""
    from skosconverter_ray.stages import dedup as ddp

    monkeypatch.setattr(ddp, "_EMB_BRUTE_MAX", 0)
    rng = np.random.RandomState(9)
    base = rng.normal(size=(40, 16))
    vecs = np.vstack([base, base[:10] + 0.05 * rng.normal(size=(10, 16))])
    ds = rd.from_items([
        {"vec_id": i, "embedding": vecs[i].tolist()}
        for i in range(len(vecs))
    ])
    got = {(r["vec_a"], r["vec_b"])
           for r in ddp.embedding_near_dup_pairs(ds, threshold=0.9).take_all()}
    assert any(b == a + 40 for a, b in got)  # planted dups found


def test_ann_ivf_recall(ray_session):
    """IVF (spherical kmeans + n_probe) recall >= 0.7 vs exact top-10
    on the sandbox embeddings — same bar as the LSH ANN path."""
    from skosconverter_ray.stages.similarity import ann_ivf_topk

    sf = "/root/testdata/sf0.001"
    emb = rd.read_parquet(f"{sf}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    tbl = pa.concat_tables(emb.iter_batches(batch_format="pyarrow"))
    mat = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = np.asarray(tbl["vec_id"].to_pylist())
    q = mat[ids == 0][0]
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    sims = (mat @ (q / np.linalg.norm(q))) / norms
    order = np.argsort(-sims)
    exact = [int(ids[i]) for i in order if ids[i] != 0][:10]

    got = ann_ivf_topk(emb, q, k=10, exclude_ids=(0,)).take_all()
    got_ids = [r["vec_id"] for r in got]
    recall = len(set(got_ids) & set(exact)) / 10
    assert recall >= 0.7, f"IVF recall {recall} vs exact {exact}"
    # deterministic: same seed, same result
    again = [r["vec_id"]
             for r in ann_ivf_topk(emb, q, k=10, exclude_ids=(0,)).take_all()]
    assert again == got_ids


def test_real_wav_bmp_decode_features(ray_session):
    """The REAL stdlib decode path: WAV/BMP bytes round-trip through
    wave/struct decoders, features reflect actual signal content, and
    the actor-pool stage resolves the store once per actor."""
    import ray

    from skosconverter_ray import corpus, vocab
    from skosconverter_ray.stages import multimodal as mm

    # WAV: a pure 1 kHz sine must put the spectral centroid near 1 kHz
    ref = "media://wavtest"
    samples, rate = mm.decode_wav(mm.synth_wav_bytes(ref))
    assert rate == 8000 and samples.size > 0
    assert np.abs(samples).max() <= 1.0
    t = np.arange(8000) / 8000
    import io, wave as wv
    buf = io.BytesIO()
    with wv.open(buf, "wb") as w:
        w.setnchannels(1); w.setsampwidth(2); w.setframerate(8000)
        w.writeframes((0.9 * np.sin(2 * np.pi * 1000 * t) * 32000)
                      .astype("<i2").tobytes())
    feats = mm.audio_features(*mm.decode_wav(buf.getvalue()))
    assert feats[0] == pytest.approx(1.0)          # duration 1s
    assert feats[1] == pytest.approx(0.9 * 32000 / 32768 / np.sqrt(2), rel=0.01)  # RMS
    assert feats[3] == pytest.approx(1000 / 4000, rel=0.05)  # centroid

    # BMP: encode->decode is lossless; gradient means are mid-scale
    img = mm.decode_bmp(mm.synth_bmp_bytes("media://bmptest"))
    assert img.ndim == 3 and img.shape[2] == 3
    f = mm.image_features(img)
    assert 0.3 < f[3] < 0.7 and 0.3 < f[4] < 0.7  # R,G gradient means
    # left half darker in R than right half (x gradient)
    assert img[:, : img.shape[1] // 2, 0].mean() \
        < img[:, img.shape[1] // 2:, 0].mean()

    # end-to-end: real decode via the actor pool on the synthetic corpus
    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=1, n_concepts=10,
                                               seed=1))
    docs_tbl = corpus.generate_documents_table(40, voc, seed=1)
    store = mm.build_media_store(docs_tbl)
    n_store_refs = store.num_rows
    if n_store_refs == 0:
        pytest.skip("corpus sample has no image/audio spans")
    out = mm.extract_media_features(
        rd.from_arrow(docs_tbl), concurrency=(1, 2), batch_size=16,
        fake=False, store_ref=ray.put(store), kinds=("image", "audio"))
    rows = out.take_all()
    assert rows and all(len(r["feature"]) == mm.FEATURE_DIM for r in rows)
    assert any(any(v != 0 for v in r["feature"]) for r in rows)

    # unknown formats stay a loud codec boundary
    ext = mm.MediaFeatureExtractor(
        fake=False,
        store_ref=pa.table({"media_ref": ["media://x"],
                            "format": ["jpeg"],
                            "payload": [b"\xff\xd8"]},
                           schema=mm.MEDIA_STORE_SCHEMA))
    with pytest.raises(NotImplementedError):
        ext._decode_and_embed("media://x", "image")


def test_rolling_hash_fingerprint_oracle():
    """Rolling hash equals the sequential Rabin-Karp recurrence and is
    order/content sensitive."""
    from skosconverter_ray.queries import _RK_BASE, rolling_hash64

    def oracle(text):
        h = 0
        for c in text:
            h = (h * int(_RK_BASE) + ord(c)) % (1 << 64)
        return h & ((1 << 63) - 1)

    for t in ("", "a", "ab", "ba", "hello world", "hello worle",
              "x" * 500, "unicode ✓ σ"):
        assert rolling_hash64(t) == oracle(t), t
    assert rolling_hash64("ab") != rolling_hash64("ba")


def test_frame_sampler_real_wav_durations(ray_session):
    """With a store, frame grids come from TRUE WAV durations and rows
    carry real window RMS; storeless refs keep the plan fallback."""
    from skosconverter_ray.stages import multimodal as mm

    ref = "media://framewav"
    store = pa.table({
        "media_ref": [ref], "format": ["wav"],
        "payload": [mm.synth_wav_bytes(ref)],
    }, schema=mm.MEDIA_STORE_SCHEMA)
    samples, rate = mm.decode_wav(mm.synth_wav_bytes(ref))
    true_dur = samples.size / rate

    docs = pa.table({
        "doc_id": pa.array(["d0"]),
        "spans": pa.array([[{"kind": "audio", "text": "",
                             "media_ref": ref, "offset": 0}]]),
    })
    fs = mm.FrameSampler(every_s=0.1, max_frames=100, store_ref=store)
    plan = fs(docs)
    n_expected = min(100, max(1, int(np.ceil(true_dur / 0.1))))
    assert plan.num_rows == n_expected
    rms = plan["frame_rms"].to_pylist()
    assert all(r >= 0 for r in rms) and max(rms) > 0.1  # real signal

    # storeless ref -> plan rows marked rms = -1
    fs2 = mm.FrameSampler(every_s=2.0, max_frames=4)
    plan2 = fs2(docs)
    assert set(plan2["frame_rms"].to_pylist()) == {-1.0}


# ---------------------------------------------------------------------------
# neardup_clusters (connected components over the pair graph)
# ---------------------------------------------------------------------------


def test_neardup_clusters_chain_and_triangle(ray_session):
    import ray.data as rd

    from skosconverter_ray.stages.dedup import neardup_clusters

    # chain 1-2-3 (transitive!), triangle 10-11-12, isolated pair 20-21
    pairs = [(2, 1), (2, 3), (10, 11), (11, 12), (10, 12), (20, 21)]
    ds = rd.from_items([{"doc_a": a, "doc_b": b} for a, b in pairs])
    got = sorted((r["doc_id"], r["rep_id"])
                 for r in neardup_clusters(ds).take_all())
    assert got == [(1, 1), (2, 1), (3, 1),
                   (10, 10), (11, 10), (12, 10),
                   (20, 20), (21, 20)]


def test_neardup_clusters_distributed_path(ray_session, monkeypatch):
    """Same result through the hash-min propagation scale path."""
    import ray.data as rd

    from skosconverter_ray.stages import canonicalize
    from skosconverter_ray.stages.dedup import neardup_clusters

    monkeypatch.setattr(canonicalize, "_DRIVER_UF_MAX", 0)
    pairs = [(2, 1), (2, 3), (10, 11), (11, 12), (20, 21)]
    ds = rd.from_items([{"doc_a": a, "doc_b": b} for a, b in pairs])
    got = sorted((r["doc_id"], r["rep_id"])
                 for r in neardup_clusters(ds).take_all())
    assert got == [(1, 1), (2, 1), (3, 1),
                   (10, 10), (11, 10), (12, 10),
                   (20, 20), (21, 20)]


def test_embedding_pca_matches_numpy(ray_session):
    """Distributed second-moment PCA == direct numpy eigendecomposition."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from skosconverter_ray.stages.similarity import embedding_pca

    rng = np.random.default_rng(11)
    # anisotropic cloud: known dominant directions
    base = rng.normal(size=(400, 8)) * np.array(
        [5.0, 3.0, 1.0, 0.5, 0.25, 0.1, 0.05, 0.01])
    t = pa.table({"embedding": pa.array(base.tolist(),
                                        pa.list_(pa.float32()))})
    out = embedding_pca(rd.from_arrow(t).repartition(7), top_k=4)
    rows = sorted(out.take_all(), key=lambda r: r["component"])

    m = base.astype(np.float32).astype(np.float64)
    cov = np.cov(m, rowvar=False, bias=True)
    evals = np.linalg.eigvalsh(cov)[::-1]
    ratios = evals / evals.sum()
    for i, r in enumerate(rows):
        assert abs(r["eigenvalue"] - evals[i]) < 1e-6 * max(1, evals[i])
        assert abs(r["explained_ratio"] - ratios[i]) < 1e-5


def test_edit_distance1_pairs_injected_typos(ray_session):
    """Deletion-neighborhood banding finds EXACTLY the distance-1
    pairs a brute-force O(n^2) Levenshtein oracle finds."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from skosconverter_ray.stages.dedup import (
        _within_edit1,
        edit_distance1_pairs,
    )

    rng = np.random.default_rng(23)
    alphabet = "abcdefgh"
    base = {"".join(rng.choice(list(alphabet), size=rng.integers(4, 9)))
            for _ in range(60)}
    typos = set()
    for w in list(base)[:25]:
        i = int(rng.integers(0, len(w)))
        kind = rng.integers(0, 3)
        if kind == 0:          # substitution
            typos.add(w[:i] + rng.choice(list(alphabet)) + w[i + 1:])
        elif kind == 1:        # deletion
            typos.add(w[:i] + w[i + 1:])
        else:                  # insertion
            typos.add(w[:i] + rng.choice(list(alphabet)) + w[i:])
    vocab = sorted((base | typos) - {""})

    def lev(a, b):
        la, lb = len(a), len(b)
        d = np.arange(lb + 1)
        for i in range(1, la + 1):
            prev, d[0] = d[0], i
            for j in range(1, lb + 1):
                cur = min(d[j] + 1, d[j - 1] + 1,
                          prev + (a[i - 1] != b[j - 1]))
                prev, d[j] = d[j], cur
        return d[lb]

    want = {(a, b) for i, a in enumerate(vocab) for b in vocab[i + 1:]
            if lev(a, b) == 1}
    # sanity: the helper agrees with full Levenshtein on dist<=1
    for i, a in enumerate(vocab):
        for b in vocab[i + 1:]:
            assert _within_edit1(a, b) == (lev(a, b) <= 1), (a, b)
    assert want, "fixture produced no distance-1 pairs"

    ds = rd.from_arrow(pa.table({"term": pa.array(vocab, pa.string())}))
    got = {(r["term_a"], r["term_b"])
           for r in edit_distance1_pairs(ds, num_buckets=8).take_all()}
    assert got == want


def test_image_resize_exact_and_roundtrip(ray_session):
    """box_resize is exact integer block means; encode_bmp inverts
    decode_bmp; the ImageResizer actor stage emits one row per image
    span with a checksum matching a local recompute."""
    import numpy as np
    import ray

    from skosconverter_ray import corpus, vocab
    from skosconverter_ray.stages import multimodal as mm

    # exactness on a hand-built image
    img = np.arange(16 * 24 * 3, dtype=np.uint8).reshape(16, 24, 3)
    t = mm.box_resize(img, 8, 8)
    want = img.reshape(8, 2, 8, 3, 3).astype(np.int64).sum(
        axis=(1, 3)) // 6
    assert (t == want).all()
    assert mm.decode_bmp(mm.encode_bmp(t)).tobytes() == t.tobytes()
    with pytest.raises(NotImplementedError):
        mm.box_resize(img, 7, 8)  # non-integer block factor

    # actor-stage plumbing on the pinned corpus
    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2,
                                               n_concepts=10, seed=5))
    docs_tbl = corpus.generate_documents_table(40, voc, seed=5)
    store_ref = ray.put(mm.build_media_store(docs_tbl))
    docs = corpus.documents_dataset(40, voc, seed=5,
                                    override_num_blocks=4)
    rows = mm.resize_images(docs, store_ref=store_ref,
                            concurrency=(1, 2), batch_size=16).take_all()
    n_image_spans = sum(
        1 for spans in docs_tbl["spans"].to_pylist()
        for s in spans if s["kind"] == "image" and s["media_ref"])
    assert len(rows) == n_image_spans and rows
    store = mm._resolve_store(ray.get(store_ref))
    for r in rows[:10]:
        src = mm.decode_bmp(store[r["media_ref"]][1])
        local = mm.box_resize(src, 8, 8)
        assert r["pixel_sum"] == int(local.astype(np.int64).sum())
        assert mm.decode_bmp(r["thumb"]).tobytes() == local.tobytes()


def _exact_score_pairs(texts, threshold: float, *, containment: bool):
    """All-pairs oracle over ``dedup.shingle_set``: ``(a, b) -> score``
    for every ordered pair a != b (a < b for jaccard) whose exact
    jaccard or containment |A∩B|/|A| reaches ``threshold``, computed
    with the same integer counts as the verify kernels."""
    sets = [dedup.shingle_set(t) for t in texts]
    out = {}
    for a in range(len(texts)):
        for b in range(len(texts)):
            if a == b or (not containment and b < a):
                continue
            sa, sb = sets[a], sets[b]
            if sa.size == 0 or sb.size == 0:
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            if containment:
                score = inter / sa.size
                if score >= threshold - 1e-12:
                    out[(a, b)] = round(score, 6)
            else:
                score = inter / (sa.size + sb.size - inter)
                if score >= threshold:
                    out[(a, b)] = score
    return out


def test_minhash_distributed_verify_parity(ray_session):
    """The two-exchange cogroup verify emits exactly the all-pairs
    oracle's pairs and bitwise jaccards: near-dups, LSH candidates
    below the threshold (which the verify must drop) and one pair at
    exactly the threshold (7 shared 3-grams of 10)."""
    texts = []
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lam mu nu xi omicron pi rho sigma tau upsilon").split()
    rng = np.random.default_rng(3)
    for i in range(300):
        words = rng.choice(base, size=12).tolist()
        texts.append(" ".join(words))
        if i % 5 == 0:
            texts.append(" ".join(words) + " phi")  # near-dup
        if i % 7 == 0:
            texts.append(" ".join(words[:9]) + " chi psi omega")
    edge = "one two three four five six seven eight nine"
    texts += [edge, edge + " ten eleven twelve"]      # jaccard 7/10
    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(len(texts))), "text": texts})) \
        .repartition(5).materialize()

    got = {(r["doc_a"], r["doc_b"]): r["jaccard"]
           for r in dedup.minhash_near_dup_pairs(ds, threshold=0.7)
           .take_all()}
    want = _exact_score_pairs(texts, 0.7, containment=False)
    assert got == want
    assert want[(len(texts) - 2, len(texts) - 1)] == 0.7
    assert any(j < 1.0 for j in want.values())


def test_containment_catches_embedded_doc_jaccard_misses(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from skosconverter_ray.stages.dedup import (containment_pairs,
                                                minhash_near_dup_pairs)

    short = "alpha bravo charlie delta echo foxtrot golf"
    host = (short + " " + " ".join(f"filler{i}a filler{i}b filler{i}c"
                                   for i in range(30)))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([short, host,
                          "unrelated text with other words entirely "
                          "nothing shared here at all"], pa.string()),
    })).repartition(2)

    got = {(r["doc_a"], r["doc_b"]): r["containment"]
           for r in containment_pairs(docs, threshold=0.9).take_all()}
    # the short doc is fully contained in the host (containment 1.0
    # in the a->b direction only: the host is NOT contained in short)
    assert got.get((1, 2)) == 1.0
    assert (2, 1) not in got and (1, 3) not in got

    # and symmetric jaccard does NOT flag the pair (the host dilutes
    # the union) — the reason containment exists
    jac = minhash_near_dup_pairs(docs, threshold=0.8).take_all()
    assert not any({r["doc_a"], r["doc_b"]} == {1, 2} for r in jac)


def test_containment_prefix_filter_exactness(ray_session):
    """Randomized: prefix-filtered result == brute-force containment."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from skosconverter_ray.stages.dedup import (containment_pairs,
                                                shingle_set)

    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(6, 30)))
             for _ in range(40)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    got = {(r["doc_a"], r["doc_b"]) for r in
           containment_pairs(docs, threshold=0.7).take_all()}
    sets = [shingle_set(t) for t in texts]
    want = set()
    for a in range(40):
        for b in range(40):
            if a == b or sets[a].size == 0:
                continue
            inter = np.intersect1d(sets[a], sets[b],
                                   assume_unique=True).size
            if inter / sets[a].size >= 0.7 - 1e-12:
                want.add((a, b))
    assert got == want

def test_containment_distributed_verify_parity(ray_session):
    """Containment verification rides the same two-exchange task
    cogroup as minhash: pairs and rounded containments equal the
    all-pairs oracle's, and the prefix filter's candidates include
    pairs below the threshold that the verify must drop."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]
    texts = []
    for i in range(20):
        short = " ".join(rng.choice(vocab, size=8))
        host = short + " " + " ".join(rng.choice(vocab, size=25))
        texts += [short, host,
                  " ".join(rng.choice(vocab, size=rng.integers(6, 30)))]
    edge = "one two three four five six seven eight nine ten eleven twelve"
    texts += [edge, "one two three four five six seven eight nine zero"]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)

    got = {(r["doc_a"], r["doc_b"]): r["containment"]
           for r in dedup.containment_pairs(docs, threshold=0.7)
           .take_all()}
    want = _exact_score_pairs(texts, 0.7, containment=True)
    assert got == want
    # 7 of the edge doc's 10 3-grams recur in its host
    assert want[(len(texts) - 2, len(texts) - 1)] == 0.7
