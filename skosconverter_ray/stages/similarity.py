"""Approximate-nearest-neighbor search over an embedding column.

Baseline (queries.ann_topk_cosine): brute-force cosine — broadcast
query matrix, per-batch float64 matmul, global ``sort().limit(k)``.
Exact, one pass, but O(n·q·d) flops.

Scale path here: **random-hyperplane LSH**. Each vector is sign-hashed
into ``n_tables`` buckets of ``n_bits`` bits; a data vector is a
candidate for a query iff it shares a bucket in at least one table.
The filter runs inside the same per-batch map (the query buckets are a
broadcast set — no shuffle, no index build), so the pipeline stays a
single streaming pass that prunes ~(1 - recall-mass) of the corpus
before the exact-cosine rerank. Recall is tunable via
(n_bits, n_tables): more bits = stronger pruning but lower recall per
table. The defaults (4 bits x 24 tables) favor recall on corpora whose
true neighbors sit at modest cosine (~0.5, like the sandbox corpus);
high-similarity near-dup workloads should raise n_bits. Tests assert
recall >= 0.7 vs the brute-force top-k on the sandbox corpus.

At 100 TB the same shape holds: hyperplanes ride in the task closure
(n_tables x n_bits x dim floats), candidates stream into the final
top-k (a tree-reduce over per-block partial top-k, here expressed as
sort+limit on the tiny candidate set).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.arrays import list_column_to_matrix


def _hyperplanes(dim: int, n_bits: int, n_tables: int,
                 seed: int = 0xA11) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.normal(size=(n_tables, n_bits, dim))


def _bucket_codes(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(n, d) x (T, B, d) -> (T, n) integer bucket codes."""
    n_tables, n_bits, _ = planes.shape
    codes = np.zeros((n_tables, mat.shape[0]), dtype=np.int64)
    weights = (1 << np.arange(n_bits)).astype(np.int64)
    for t in range(n_tables):
        signs = (mat @ planes[t].T) > 0  # (n, B)
        codes[t] = signs.astype(np.int64) @ weights
    return codes


def ann_lsh_topk(emb_ds, query_vec: np.ndarray, *, k: int = 10,
                 id_col: str = "vec_id", vec_col: str = "embedding",
                 n_bits: int = 4, n_tables: int = 24,
                 exclude_ids: tuple = ()):
    """LSH-bucketed top-k cosine for one query vector.

    Returns a Dataset of (vec_id, cos_sim), the k best candidates.
    """
    q = np.asarray(query_vec, dtype=np.float64)
    planes = _hyperplanes(q.shape[0], n_bits, n_tables)
    q_codes = _bucket_codes(q[None, :], planes)[:, 0]  # (T,)
    qn = q / (np.linalg.norm(q) or 1.0)
    excl = set(exclude_ids)

    def probe(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(batch[vec_col])
        codes = _bucket_codes(mat, planes)          # (T, n)
        cand = (codes == q_codes[:, None]).any(axis=0)
        if excl:
            cand &= ~np.isin(ids, list(excl))
        if not cand.any():
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cos_sim": pa.array([], pa.float64())})
        sub = mat[cand]
        norms = np.linalg.norm(sub, axis=1)
        norms[norms == 0] = 1.0
        sims = (sub @ qn) / norms
        return pa.table({
            "vec_id": pa.array(ids[cand]),
            "cos_sim": pa.array(np.round(sims, 6), pa.float64()),
        })

    out = emb_ds.map_batches(probe, batch_format="pyarrow")
    return out.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN: spherical k-means coarse quantizer + probe
# ---------------------------------------------------------------------------

def _spherical_kmeans(sample: np.ndarray, k: int, n_iter: int = 10,
                      seed: int = 0x1BF) -> np.ndarray:
    """Deterministic spherical k-means on a normalized sample ->
    (k, dim) normalized centroids. Empty clusters re-seed from the
    sample (seeded RNG), so the result is reproducible everywhere."""
    rng = np.random.RandomState(seed)
    n = sample.shape[0]
    k = min(k, n)
    cent = sample[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(n_iter):
        assign = (sample @ cent.T).argmax(axis=1)
        for c in range(k):
            members = sample[assign == c]
            if len(members) == 0:
                cent[c] = sample[rng.randint(n)]
                continue
            m = members.sum(axis=0)
            norm = np.linalg.norm(m)
            cent[c] = m / (norm or 1.0)
    return cent


def ann_ivf_topk(emb_ds, query_vec: np.ndarray, *, k: int = 10,
                 id_col: str = "vec_id", vec_col: str = "embedding",
                 n_centroids: int = 16, n_probe: int = 4,
                 sample_rows: int = 4096, seed: int = 0x1BF,
                 exclude_ids: tuple = ()):
    """IVF-style top-k cosine for one query: a coarse spherical-kmeans
    quantizer (trained on a bounded sample, driver-side) partitions
    the space; only rows whose nearest centroid is among the query's
    ``n_probe`` closest centroids get an exact-cosine evaluation.

    One streaming pass — assignment, probe filter, and exact rerank
    fuse into a single map over zero-copy batches; centroids ride in
    the task closure ((n_centroids x dim) floats). At 100 TB with a
    standing query workload, the same centroids instead key a
    partitioned materialization (groupby(centroid) -> bucket files)
    so each query reads only n_probe/n_centroids of the corpus; the
    quantizer and probe math here are exactly that index's."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    excl = set(exclude_ids)

    sample_tbl = emb_ds.limit(sample_rows).take_all()
    smat = np.asarray([r[vec_col] for r in sample_tbl], dtype=np.float64)
    norms = np.linalg.norm(smat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    cents = _spherical_kmeans(smat / norms, n_centroids, seed=seed)
    probe = set(np.argsort(-(cents @ qn))[:n_probe].tolist())

    def scan(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(batch[vec_col])
        nr = np.linalg.norm(mat, axis=1, keepdims=True)
        nr[nr == 0] = 1.0
        matn = mat / nr
        assign = (matn @ cents.T).argmax(axis=1)
        keep = np.isin(assign, list(probe))
        if excl:
            keep &= ~np.isin(ids, list(excl))
        if not keep.any():
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cos_sim": pa.array([], pa.float64())})
        sims = matn[keep] @ qn
        return pa.table({
            "vec_id": pa.array(ids[keep]),
            "cos_sim": pa.array(np.round(sims, 6), pa.float64()),
        })

    out = emb_ds.map_batches(scan, batch_format="pyarrow")
    return out.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)


def _pq_train(sample: np.ndarray, m_sub: int, n_codes: int,
              n_iter: int = 12, seed: int = 0x9C7) -> np.ndarray:
    """Deterministic per-subspace L2 k-means (the product-quantization
    codebooks of Jégou et al. 2011): sample (n, dim) -> codebooks
    (m_sub, n_codes, dim/m_sub). Empty codes re-seed from the sample
    (seeded RNG) so the codebooks are reproducible everywhere."""
    rng = np.random.RandomState(seed)
    n, dim = sample.shape
    d_sub = dim // m_sub
    books = np.empty((m_sub, min(n_codes, n), d_sub))
    for s in range(m_sub):
        x = sample[:, s * d_sub:(s + 1) * d_sub]
        k = min(n_codes, n)
        cent = x[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(n_iter):
            # argmin ||x - c||^2 == argmax (x.c - |c|^2/2)
            sc = x @ cent.T - 0.5 * (cent * cent).sum(axis=1)
            assign = sc.argmax(axis=1)
            for c in range(k):
                members = x[assign == c]
                cent[c] = (members.mean(axis=0) if len(members)
                           else x[rng.randint(n)])
        books[s] = cent
    return books


def _pq_encode(matn: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, dim) normalized vectors -> (n, m_sub) uint8 PQ codes."""
    n, dim = matn.shape
    m_sub, _, d_sub = books.shape
    codes = np.empty((n, m_sub), np.uint8)
    for s in range(m_sub):
        x = matn[:, s * d_sub:(s + 1) * d_sub]
        cent = books[s]
        sc = x @ cent.T - 0.5 * (cent * cent).sum(axis=1)
        codes[:, s] = sc.argmax(axis=1)
    return codes


def ann_pq_topk(emb_ds, query_vec: np.ndarray, *, k: int = 10,
                id_col: str = "vec_id", vec_col: str = "embedding",
                m_sub: int = 8, n_codes: int = 32, rerank: int = 128,
                sample_rows: int = 4096, seed: int = 0x9C7,
                exclude_ids: tuple = ()):
    """Product-quantization ANN for one query (Jégou et al. 2011,
    "Product Quantization for Nearest Neighbor Search"): codebooks
    trained driver-side on a bounded sample; the scan computes each
    row's approximate cosine as m_sub asymmetric-distance TABLE
    LOOKUPS (query·codeword, precomputed per subspace — no full
    dot product), keeps only the batch's top-``rerank`` candidates by
    that proxy, and exact-reranks just those in place (the true vector
    is still in the batch — nothing is re-fetched). Global top-k by
    exact cosine follows over ≤ rerank rows per block.

    At 100 TB the codes (m_sub bytes/vector vs 4·dim) are the
    materialized index and the ADC table is the only per-query state;
    the encode/lookup math here is exactly that index's."""
    from ..functions.arrays import list_column_to_matrix

    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    excl = set(exclude_ids)

    sample_tbl = emb_ds.limit(sample_rows).take_all()
    smat = np.asarray([r[vec_col] for r in sample_tbl], dtype=np.float64)
    norms = np.linalg.norm(smat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    books = _pq_train(smat / norms, m_sub, n_codes, seed=seed)
    d_sub = books.shape[2]
    # ADC table: adc[s, c] = qn_sub(s) . codeword(s, c)
    adc = np.stack([books[s] @ qn[s * d_sub:(s + 1) * d_sub]
                    for s in range(m_sub)])

    def scan(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(batch[vec_col])
        nr = np.linalg.norm(mat, axis=1, keepdims=True)
        nr[nr == 0] = 1.0
        matn = mat / nr
        keep = ~np.isin(ids, list(excl)) if excl else \
            np.ones(len(ids), bool)
        ids, matn = ids[keep], matn[keep]
        if not len(ids):
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cos_sim": pa.array([], pa.float64())})
        codes = _pq_encode(matn, books)
        approx = adc[np.arange(books.shape[0]), codes].sum(axis=1)
        top = np.argsort(-approx, kind="stable")[:rerank]
        sims = matn[top] @ qn
        return pa.table({
            "vec_id": pa.array(ids[top]),
            "cos_sim": pa.array(np.round(sims, 6), pa.float64()),
        })

    out = emb_ds.map_batches(scan, batch_format="pyarrow")
    return out.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)


# ---------------------------------------------------------------------------
# All-pairs near-dup, sign-LSH bucketed (the scale path behind
# stages/dedup.embedding_near_dup_pairs — no driver materialization)
# ---------------------------------------------------------------------------

def _tables_for_recall(threshold: float, n_bits: int,
                       target_recall: float = 0.95) -> int:
    """Smallest table count reaching target recall at the threshold:
    p_bit = 1 - arccos(cos)/π, p_table = p_bit^bits,
    recall = 1 - (1 - p_table)^T."""
    p_bit = 1.0 - np.arccos(min(max(threshold, -1.0), 1.0)) / np.pi
    p_tab = p_bit ** n_bits
    if p_tab >= 1.0:
        return 1
    t = int(np.ceil(np.log(1.0 - target_recall) / np.log(1.0 - p_tab)))
    return int(min(max(t, 1), 64))


def embedding_neardup_lsh(emb_ds, *, id_col: str = "vec_id",
                          vec_col: str = "embedding",
                          threshold: float = 0.85,
                          n_bits: int = 8, n_tables: int | None = None,
                          num_buckets: int = 64, seed: int = 0xE513):
    """All-pairs cosine >= threshold via sign-LSH bucketing — the
    distributed replacement for the brute-force path's driver-side
    broadcast matrix.

    Shape (mirrors the MinHash near-dup pipeline):
    1. each vector emits ``n_tables`` rows keyed by its (table,
       sign-code) bucket, carrying its normalized embedding — the ONE
       shuffle, n_tables x data volume;
    2. the task exchange (shardutil.scatter_apply_by_value, no sort)
       gathers each bucket: equal-(table, code) runs found by lexsort,
       intra-run matmul emits pairs with EXACT cosine >= threshold
       (precision 1.0 — the approximation only loses recall);
    3. a final bucket_aggregate dedups pairs that collided in several
       tables.

    Recall is tunable: with defaults (8 bits, auto tables targeting
    0.95) a pair at cosine 0.85 is caught with p ≈ 0.95+; recall falls
    off for pairs near/below the threshold — this is a NEAR-DUP
    detector for high-similarity thresholds, not an exact join
    (``dedup.embedding_near_dup_pairs`` takes the exact brute path up
    to ``dedup._EMB_BRUTE_MAX`` rows, for when exactness vs an oracle
    matters).

    Hub/skew note: m exact-duplicate vectors share every bucket ->
    O(m^2) pairs, the same blow-up (and the same upstream-exact-dedup
    mitigation) as MinHash LSH.
    """
    if n_tables is None:
        n_tables = _tables_for_recall(threshold, n_bits)
    planes_cache: dict[int, np.ndarray] = {}

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(batch[vec_col])
        if mat.ndim != 2 or mat.shape[0] == 0:
            return pa.table({"_bucket": pa.array([], pa.int32()),
                             "table": pa.array([], pa.int32()),
                             "code": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "vec": pa.array([], pa.list_(pa.float64()))})
        dim = mat.shape[1]
        planes = planes_cache.get(dim)
        if planes is None:
            planes = _hyperplanes(dim, n_bits, n_tables, seed=seed)
            planes_cache[dim] = planes
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        matn = mat / norms
        codes = _bucket_codes(matn, planes)  # (T, n)
        n = mat.shape[0]
        table_idx = np.repeat(np.arange(n_tables, dtype=np.int64), n)
        flat_codes = codes.reshape(-1)
        mix = ((table_idx.astype(np.uint64) * np.uint64(0x9E3779B1)
                + flat_codes.astype(np.uint64) * np.uint64(0x85EBCA6B))
               % np.uint64(num_buckets)).astype(np.int32)
        rep = np.tile(np.arange(n, dtype=np.int64), n_tables)
        return pa.table({
            "_bucket": pa.array(mix, pa.int32()),
            "table": pa.array(table_idx.astype(np.int32), pa.int32()),
            "code": pa.array(flat_codes, pa.int64()),
            "vec_id": pa.array(ids[rep]),
            "vec": pa.array(list(matn[rep]), pa.list_(pa.float64())),
        })

    def bucket_pairs(group: pa.Table) -> pa.Table:
        table = group["table"].to_numpy(zero_copy_only=False)
        code = group["code"].to_numpy(zero_copy_only=False)
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((code, table))
        t_s, c_s = table[order], code[order]
        run_start = np.flatnonzero(np.concatenate(
            ([True], (t_s[1:] != t_s[:-1]) | (c_s[1:] != c_s[:-1]))))
        run_end = np.concatenate((run_start[1:], [len(order)]))
        vecs = None  # decoded lazily — most runs are singletons
        a_out, b_out, cs = [], [], []
        for s, e in zip(run_start, run_end):
            if e - s < 2:
                continue
            if vecs is None:
                from ..functions.arrays import list_column_to_matrix

                vecs = list_column_to_matrix(group["vec"], np.float64)
            members = order[s:e]
            sub = vecs[members]
            sims = sub @ sub.T
            mids = ids[members]
            iu, ju = np.triu_indices(len(members), k=1)
            hit = sims[iu, ju] >= threshold
            for i, j in zip(iu[hit], ju[hit]):
                a, b = mids[i], mids[j]
                if a == b:
                    continue
                if a > b:
                    a, b = b, a
                a_out.append(a)
                b_out.append(b)
                cs.append(round(float(sims[i, j]), 4))
        return pa.table({"vec_a": pa.array(a_out, pa.int64()),
                         "vec_b": pa.array(b_out, pa.int64()),
                         "cos_sim": pa.array(cs, pa.float64())})

    from .shardutil import scatter_apply_by_value
    from .skew import bucket_aggregate

    rows = emb_ds.map_batches(emit, batch_format="pyarrow", batch_size=1024)
    pairs = scatter_apply_by_value(rows.materialize(), "_bucket",
                                   num_buckets, bucket_pairs)

    return bucket_aggregate(pairs, ["vec_a", "vec_b"],
                            [("min", "cos_sim", "cos_sim")],
                            bucket_key="vec_a")


# ---------------------------------------------------------------------------
# Distributed PCA over an embedding column (training-data analysis:
# effective dimensionality, whitening prep, 2-D projection for QA)
# ---------------------------------------------------------------------------

def embedding_pca(emb_ds, *, vec_col: str = "embedding", top_k: int = 3):
    """One streaming pass of per-batch second-moment partials
    (n, sum, X^T X — each a d x d-bounded blob, mergeable under
    addition), folded on the driver into the covariance eigenproblem.
    Only O(d^2) floats per block ever leave a worker, never the
    vectors; d << corpus is the same dimension assumption every dense
    retriever makes. Returns (component, eigenvalue,
    explained_ratio) rows for the top_k principal components.
    """
    def partial(batch: pa.Table) -> pa.Table:
        mat = list_column_to_matrix(batch[vec_col]).astype(np.float64)
        return pa.table({
            "n": pa.array([mat.shape[0]], pa.int64()),
            "s": pa.array([mat.sum(axis=0)], pa.list_(pa.float64())),
            "ss": pa.array([(mat.T @ mat).ravel()], pa.list_(pa.float64())),
        })

    n_tot = 0
    s_tot = None
    ss_tot = None
    parts = emb_ds.map_batches(partial, batch_format="pyarrow")
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=1024):
        for i in range(b.num_rows):
            n_tot += b["n"][i].as_py()
            s = np.asarray(b["s"][i].as_py())
            ss = np.asarray(b["ss"][i].as_py())
            s_tot = s if s_tot is None else s_tot + s
            ss_tot = ss if ss_tot is None else ss_tot + ss
    if not n_tot:
        raise ValueError("embedding_pca: empty input")
    d = len(s_tot)
    mean = s_tot / n_tot
    cov = ss_tot.reshape(d, d) / n_tot - np.outer(mean, mean)
    evals = np.linalg.eigvalsh(cov)[::-1]           # descending
    total = float(evals.sum()) or 1.0
    k = min(top_k, d)
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "component": pa.array(range(k), pa.int64()),
        "eigenvalue": pa.array(np.round(evals[:k], 8), pa.float64()),
        "explained_ratio": pa.array(np.round(evals[:k] / total, 6),
                                    pa.float64()),
    }))


def kmeans(emb_ds, *, k: int = 8, n_iter: int = 5,
           vec_col: str = "embedding", id_col: str = "vec_id"):
    """Distributed Lloyd's k-means over an embedding column.

    The 100-TB shape: centroids are a (k x d) broadcast (``ray.put``
    once per iteration), assignment is one matmul per batch, and each
    batch emits only a (k, d+1) partial (per-cluster count + vector
    sum — mergeable under addition), folded on the driver exactly like
    :func:`embedding_pca`'s moments. The vectors themselves never
    leave their blocks and nothing corpus-sized lands on the driver.

    Deterministic: init = the k vectors with the smallest ``id_col``
    (stable under block order), fixed iteration count. Returns
    ``(centroids: (k, d) ndarray, counts: (k,) ndarray,
    inertias: [float per iteration])`` — inertia is computed against
    the iteration's INPUT centroids, so the sequence is non-increasing
    (Lloyd's invariant) up to float noise.
    """
    import ray

    from ..functions.arrays import list_column_to_matrix

    # deterministic seed centroids: k smallest ids, one bounded pass
    # (k x d on the driver — the same dimension assumption as PCA)
    seed_rows: list[tuple] = []
    for b in emb_ds.select_columns([id_col, vec_col]).iter_batches(
            batch_format="pyarrow", batch_size=8192):
        ids = b[id_col].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(b[vec_col])
        for i in np.argsort(ids, kind="stable")[:k]:
            seed_rows.append((ids[i], mat[i]))
        seed_rows.sort(key=lambda r: r[0])
        del seed_rows[k:]
    if not seed_rows:
        raise ValueError("kmeans: empty input")
    cent = np.stack([v for _i, v in seed_rows]).astype(np.float64)
    kk = len(cent)

    inertias: list[float] = []
    counts = np.zeros(kk)
    for _ in range(n_iter):
        ref = ray.put(cent)

        def partial(batch: pa.Table, _ref=ref) -> pa.Table:
            c = ray.get(_ref)
            m = list_column_to_matrix(batch[vec_col])
            # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; argmin over c
            d2 = (-2.0 * (m @ c.T)
                  + (c * c).sum(axis=1)[None, :])
            a = d2.argmin(axis=1)
            best = d2[np.arange(len(m)), a] + (m * m).sum(axis=1)
            cnt = np.bincount(a, minlength=len(c)).astype(np.float64)
            sums = np.zeros_like(c)
            np.add.at(sums, a, m)
            return pa.table({
                "cnt": pa.array([cnt], pa.list_(pa.float64())),
                "sum": pa.array([sums.ravel()], pa.list_(pa.float64())),
                "inertia": pa.array([float(best.sum())], pa.float64()),
            })

        cnt_tot = np.zeros(kk)
        sum_tot = np.zeros_like(cent)
        inertia = 0.0
        for b in emb_ds.map_batches(partial, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow", batch_size=1024):
            for i in range(b.num_rows):
                cnt_tot += np.asarray(b["cnt"][i].as_py())
                sum_tot += np.asarray(b["sum"][i].as_py()) \
                    .reshape(cent.shape)
                inertia += b["inertia"][i].as_py()
        inertias.append(inertia)
        nz = cnt_tot > 0
        cent = np.where(nz[:, None], sum_tot / np.maximum(cnt_tot, 1)[:, None],
                        cent)  # empty cluster keeps its centroid
        counts = cnt_tot
    return cent, counts, inertias


def kmeans_sequential(mat: np.ndarray, ids: np.ndarray, *, k: int = 8,
                      n_iter: int = 5):
    """In-memory oracle with IDENTICAL semantics to :func:`kmeans`
    (same init rule, same update, same empty-cluster handling) for
    bounded-sample parity checks and pytests."""
    order = np.argsort(ids, kind="stable")[:k]
    cent = mat[order].astype(np.float64)
    inertias = []
    counts = np.zeros(len(cent))
    for _ in range(n_iter):
        d2 = (-2.0 * (mat @ cent.T) + (cent * cent).sum(axis=1)[None, :])
        a = d2.argmin(axis=1)
        best = d2[np.arange(len(mat)), a] + (mat * mat).sum(axis=1)
        inertias.append(float(best.sum()))
        cnt = np.bincount(a, minlength=len(cent)).astype(np.float64)
        sums = np.zeros_like(cent)
        np.add.at(sums, a, mat)
        nz = cnt > 0
        cent = np.where(nz[:, None], sums / np.maximum(cnt, 1)[:, None],
                        cent)
        counts = cnt
    return cent, counts, inertias


def semantic_dedup(emb_ds, *, centroids: np.ndarray,
                   threshold: float = 0.92,
                   vec_col: str = "embedding", id_col: str = "vec_id",
                   num_buckets: int | None = None):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): assign each vector to its nearest k-means
    centroid, then within each cluster drop every item whose cosine
    similarity to a LOWER-id cluster member is >= ``threshold``
    (min-id representative — deterministic, order-free).

    The 100-TB shape: ``centroids`` (k x d, from :func:`kmeans`) is a
    ``ray.put`` broadcast; assignment is one matmul per batch; the
    pairwise check never crosses clusters, so the only exchange is ONE
    hash scatter by cluster id (task-level scatter/gather — no sort),
    and per-task work is bounded by the largest cluster, which the
    caller controls via k (SemDeDup's design point is k ~ n/1000).

    Returns a Dataset of ``(id_col, cluster: int32, keep: bool)``.
    Keep decisions are bit-stable across block splits: each pair's
    dot product reduces over the fixed vector dimension, and rows are
    id-sorted inside each cluster before the scan.
    """
    import ray

    from .shardutil import scatter_apply_by_value
    from ..functions.arrays import list_column_to_matrix

    cent = np.ascontiguousarray(centroids, dtype=np.float64)
    ref = ray.put(cent)
    B = num_buckets or min(32, max(4, len(cent)))

    def assign(batch: pa.Table, _ref=ref, _B=B) -> pa.Table:
        c = ray.get(_ref)
        m = list_column_to_matrix(batch[vec_col])
        d2 = -2.0 * (m @ c.T) + (c * c).sum(axis=1)[None, :]
        a = d2.argmin(axis=1).astype(np.int32)
        return pa.table({
            id_col: batch[id_col],
            vec_col: batch[vec_col],
            "cluster": pa.array(a, pa.int32()),
            "_bucket": pa.array(a % _B, pa.int32()),
        })

    out_schema = pa.schema([
        (id_col, pa.int64()), ("cluster", pa.int32()),
        ("keep", pa.bool_()),
    ])

    def dedup_bucket(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        cl = tbl["cluster"].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(tbl[vec_col])
        norm = np.linalg.norm(mat, axis=1)
        mat = mat / np.maximum(norm, 1e-30)[:, None]
        # id-sorted cluster runs: one argsort, then a vectorized
        # lower-triangle scan per cluster slice
        order = np.lexsort((ids, cl))
        ids, cl, mat = ids[order], cl[order], mat[order]
        keep = np.ones(len(ids), bool)
        starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
        bounds = np.r_[starts, len(cl)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            n = e - s
            if n < 2:
                continue
            sim = mat[s:e] @ mat[s:e].T
            dup = np.tril(sim >= threshold, k=-1).any(axis=1)
            keep[s:e] = ~dup
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "cluster": pa.array(cl, pa.int32()),
            "keep": pa.array(keep),
        }, schema=out_schema)

    assigned = emb_ds.map_batches(assign, batch_format="pyarrow")
    return scatter_apply_by_value(assigned.materialize(), "_bucket", B,
                                  dedup_bucket)


def semantic_dedup_sequential(mat: np.ndarray, ids: np.ndarray,
                              centroids: np.ndarray,
                              threshold: float = 0.92) -> np.ndarray:
    """In-memory oracle with IDENTICAL semantics to
    :func:`semantic_dedup` given the same centroids: returns the keep
    mask aligned to ``ids``'s input order."""
    cent = np.ascontiguousarray(centroids, dtype=np.float64)
    d2 = -2.0 * (mat @ cent.T) + (cent * cent).sum(axis=1)[None, :]
    a = d2.argmin(axis=1)
    m = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-30)[:, None]
    keep = np.ones(len(ids), bool)
    for c in np.unique(a):
        idx = np.flatnonzero(a == c)
        idx = idx[np.argsort(ids[idx], kind="stable")]
        if len(idx) < 2:
            continue
        sim = m[idx] @ m[idx].T
        dup = np.tril(sim >= threshold, k=-1).any(axis=1)
        keep[idx] = ~dup
    return keep
