"""list_column_to_matrix: flat-buffer fast path + fallbacks."""
import numpy as np
import pyarrow as pa

from skosconverter_ray.functions.arrays import list_column_to_matrix


def test_uniform_list_fast_path():
    col = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                   pa.list_(pa.float32()))
    m = list_column_to_matrix(col)
    assert m.dtype == np.float64 and m.shape == (3, 2)
    np.testing.assert_allclose(m, [[1, 2], [3, 4], [5, 6]])


def test_chunked_and_sliced_offsets():
    base = pa.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]],
                    pa.list_(pa.float64()))
    sliced = base.slice(1, 2)  # nonzero starting offset
    np.testing.assert_allclose(list_column_to_matrix(sliced),
                               [[1, 2], [3, 4]])
    chunked = pa.chunked_array([base, base])
    assert list_column_to_matrix(chunked).shape == (6, 2)


def test_ragged_raises_like_per_row_conversion():
    import pytest

    ragged = pa.array([[1.0], [2.0, 3.0]], pa.list_(pa.float64()))
    with pytest.raises(ValueError):
        list_column_to_matrix(ragged)


def test_empty_and_fixed_size_list():
    empty = pa.array([], pa.list_(pa.float64()))
    assert list_column_to_matrix(empty).shape == (0, 0)
    fsl = pa.FixedSizeListArray.from_arrays(
        pa.array([1.0, 2.0, 3.0, 4.0]), 2)
    np.testing.assert_allclose(list_column_to_matrix(fsl),
                               [[1, 2], [3, 4]])


def test_pq_encode_decode_identifies_nearest_codeword():
    import numpy as np

    from skosconverter_ray.stages.similarity import _pq_encode, _pq_train

    rng = np.random.default_rng(3)
    x = rng.normal(size=(512, 16))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    books = _pq_train(x, m_sub=4, n_codes=8, seed=1)
    codes = _pq_encode(x, books)
    assert codes.shape == (512, 4) and codes.max() < 8
    # each code really is the L2-nearest codeword of its subvector
    for s in range(4):
        sub = x[:, s * 4:(s + 1) * 4]
        d = ((sub[:, None, :] - books[s][None, :, :]) ** 2).sum(axis=2)
        assert (codes[:, s] == d.argmin(axis=1)).all()


def test_pq_topk_exact_on_separable_data(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from skosconverter_ray.stages.similarity import ann_pq_topk

    rng = np.random.default_rng(11)
    base = rng.normal(size=(200, 32))
    q = rng.normal(size=32)
    # plant 10 vectors nearly parallel to q — the unambiguous top-10
    planted = q[None, :] + 0.01 * rng.normal(size=(10, 32))
    mat = np.vstack([base, planted])
    ids = np.arange(len(mat))
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat]),
    })).repartition(4)
    got = {r["vec_id"] for r in ann_pq_topk(ds, q, k=10).take_all()}
    assert got == set(range(200, 210))


def test_pq_topk_rows_equal_brute_force_sf001(ray_session, sf001):
    """ann_topk_pq returns exactly ann_topk_cosine's top-10 rows
    (vec_id and rounded cos_sim) on the sf0.01 embeddings."""
    from skosconverter_ray.queries import ann_topk_cosine, ann_topk_pq

    def rows(ds):
        return [(r["vec_id"], r["cos_sim"]) for r in ds.take_all()]

    brute = rows(ann_topk_cosine(sf001))
    assert len(brute) == 10
    assert rows(ann_topk_pq(sf001)) == brute
