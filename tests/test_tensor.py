import tracemalloc

import numpy as np
import pytest

import tempofact.tensor as tensor_mod
from tempofact.tensor import (
    DenseTensor3,
    KruskalTensor,
    khatri_rao,
    reconstruct,
)
from util import matricize, random_kruskal, triple_sum_tensor

_BLOCK = tensor_mod._BLOCK_BANKS


def test_matricize_degenerate_dims():
    x = DenseTensor3(np.array([[[5.0]]]))
    for mode in (1, 2, 3):
        assert matricize(x, mode).tolist() == [[5.0]]


def test_matricize_enumeration_placement():
    # x_{ijk} = 4i + 2j + k; mode-1 columns run k-major, j-minor.
    vals = np.arange(8.0).reshape(2, 2, 2)
    x = DenseTensor3(vals, "count")
    m1 = matricize(x, 1)
    expected = np.zeros((2, 4))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected[i, j + 2 * k] = vals[i, j, k]
    assert np.array_equal(m1, expected)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_factor_form_identity(mode):
    rng = np.random.default_rng(11)
    k = random_kruskal(rng, (3, 4, 5), 2)
    x = reconstruct(k)
    pairs = {
        1: (k.A, khatri_rao(k.C, k.B)),
        2: (k.B, khatri_rao(k.C, k.A)),
        3: (k.C, khatri_rao(k.B, k.A)),
    }
    lead, kr = pairs[mode]
    gap = np.linalg.norm(matricize(x, mode) - lead @ kr.T)
    assert gap / np.linalg.norm(x.values) < 1e-12


@pytest.mark.parametrize("shape,k,days", [
    # One restart's R = 3, then two stacked (k = 2R), as lockstep restarts send.
    ((7, 5, 9), 3, "some"), ((7, 5, 9), 6, "some"), ((7, 5, 9), 6, "none"),
    ((1, 5, 9), 2, "all"), ((7, 1, 9), 2, "some"), ((7, 5, 1), 2, "none"), ((4, 3, 6), 8, "all"),
    # The edges of the block grid: no bank, one bank, one block less one,
    # one block, one block and one, two blocks and three.
    ((0, 5, 9), 3, "some"), ((1, 5, 9), 3, "some"), ((_BLOCK - 1, 4, 9), 3, "some"),
    ((_BLOCK, 4, 9), 3, "all"), ((_BLOCK + 1, 4, 9), 3, "some"), ((2 * _BLOCK + 3, 4, 9), 6, "some"),
])
def test_seam_products_match_matricize_oracle(shape, k, days):
    # mode3, mode3_days and slab_sum against the mode-3 unfolding, which is
    # D x NT with column i + N j, and bit for bit against one np.matmul over
    # the whole stack of slabs.
    rng = np.random.default_rng(41 + k)
    n, t, d = shape
    x = DenseTensor3(rng.random(shape))
    x3 = matricize(x, 3)
    m = rng.random((d, k))
    s = rng.random((n, k, t))
    picked = {"some": np.flatnonzero(rng.random(d) < 0.5), "none": np.arange(0),
              "all": np.arange(d)}[days]
    m_days = rng.random((len(picked), k))
    for got, want, whole in (
        (x.mode3(m), (x3.T @ m).reshape(n, t, k, order="F"), np.matmul(x.values, m)),
        (x.mode3_days(picked, m_days), (x3[picked].T @ m_days).reshape(n, t, k, order="F"),
         np.matmul(x.values[:, :, picked], m_days)),
        (x.slab_sum(s), (x3 @ s.transpose(2, 0, 1).reshape(n * t, k)).T,
         np.matmul(s, x.values).sum(axis=0)),
    ):
        assert got.shape == want.shape == whole.shape
        assert got.tobytes() == whole.tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("block", [1, 3, 1000])
def test_slab_sum_does_not_depend_on_the_block_size(monkeypatch, block):
    # k = D = 1 included: there numpy sums the whole stack pairwise, while
    # the running sum stays one slab at a time.
    rng = np.random.default_rng(44)
    n = 2 * _BLOCK + 3
    for k, d in ((1, 1), (3, 7)):
        x, s = DenseTensor3(rng.random((n, 4, d))), rng.random((n, k, 4))
        want = x.slab_sum(s)
        with monkeypatch.context() as patch:
            patch.setattr(tensor_mod, "_BLOCK_BANKS", block)
            assert x.slab_sum(s).tobytes() == want.tobytes()


def test_block_products_allocate_nothing_per_bank():
    # Beyond their results, slab_sum and mode3_days (every day picked) hold
    # one block's partials or gathered columns, whatever the bank count: the
    # whole-stack forms hold N x k x D and N x T x D.
    def temporaries(n):
        rng = np.random.default_rng(43)
        x = DenseTensor3(rng.random((n, 4, 300)))
        s, m, days = rng.random((n, 3, 4)), rng.random((300, 3)), np.arange(300)
        extra = []
        for product in (lambda: x.slab_sum(s), lambda: x.mode3_days(days, m)):
            tracemalloc.start()
            try:
                out = product()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - out.nbytes)
        return extra

    few, many = temporaries(4 * _BLOCK), temporaries(16 * _BLOCK)
    for small, large in zip(few, many):
        assert large <= small + 1024, (few, many)


def test_khatri_rao_identity_case():
    out = khatri_rao(np.eye(2), np.eye(2))
    assert out.shape == (4, 2)
    assert out[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert out[:, 1].tolist() == [0.0, 0.0, 0.0, 1.0]


def test_khatri_rao_hand_expansion():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert khatri_rao(a, b).tolist() == [[0.0, 2.0], [1.0, 0.0], [0.0, 4.0], [3.0, 0.0]]


def test_khatri_rao_gram_identity():
    rng = np.random.default_rng(21)
    a, b = rng.random((3, 2)), rng.random((4, 2))
    kr = khatri_rao(a, b)
    gap = np.abs(kr.T @ kr - (a.T @ a) * (b.T @ b)).max()
    assert gap < 1e-12


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


def test_reconstruct_rank_one():
    k = KruskalTensor(np.array([[1.0], [0.0]]), np.array([[1.0]]), np.array([[1.0]]))
    x = reconstruct(k)
    assert x.values[0, 0, 0] == 1.0
    assert x.values[1, 0, 0] == 0.0


def test_reconstruct_zero_factors():
    k = KruskalTensor(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((4, 2)))
    assert not reconstruct(k).values.any()


def test_reconstruct_matches_triple_sum_oracle():
    rng = np.random.default_rng(31)
    k = random_kruskal(rng, (3, 4, 5), 2)
    oracle = triple_sum_tensor(k.weights, k.A, k.B, k.C)
    assert np.abs(reconstruct(k).values - oracle).max() < 1e-12
    assert reconstruct(k).values.min() >= 0.0


def test_dense_tensor_rejects_bad_values():
    with pytest.raises(ValueError):
        DenseTensor3(np.array([[[-1.0]]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tensor entries must be finite"):
            DenseTensor3(np.array([[[1.0, bad]]]))
    with pytest.raises(ValueError):
        DenseTensor3(np.zeros((2, 2)))


def test_dense_tensor_checks_values_without_a_mask():
    # A finiteness mask of the tensor would be a bool array of a.nbytes / 8.
    a = np.ones((20, 50, 100))
    tracemalloc.start()
    try:
        DenseTensor3(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 16


def test_dense_tensor_stores_contiguous_values():
    base = np.arange(24.0).reshape(2, 3, 4)
    x = DenseTensor3(base.transpose(2, 1, 0))
    assert x.values.flags.c_contiguous
    assert np.array_equal(x.values, base.transpose(2, 1, 0))
    # Contiguous float64 input is kept as is, not copied.
    y = np.ones((2, 3, 4))
    assert DenseTensor3(y).values.base is y


def test_constructors_leave_caller_arrays_writable():
    y = np.ones((2, 3, 4))
    x = DenseTensor3(y)
    a, b, c, w = np.ones((2, 1)), np.ones((3, 1)), np.ones((4, 1)), np.ones(1)
    k = KruskalTensor(a, b, c, w)
    for arr in (y, a, b, c, w):
        assert arr.flags.writeable
        arr[...] = 2.0
    assert x.values[0, 0, 0] == 2.0  # shared, not copied
    for stored in (x.values, k.A, k.B, k.C, k.weights):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[...] = 0.0


def test_kruskal_validation():
    with pytest.raises(ValueError, match="factor A has negative entries"):
        KruskalTensor(-np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="factor C has non-finite entries"):
            KruskalTensor(np.ones((2, 1)), np.ones((2, 1)), np.array([[1.0], [bad]]))
        with pytest.raises(ValueError, match="weights must be finite"):
            KruskalTensor(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), np.array([bad]))
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        KruskalTensor(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), np.array([-1.0]))
    with pytest.raises(ValueError):
        KruskalTensor(np.ones((2, 1)), np.ones((2, 2)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        KruskalTensor(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), np.array([1.0, 2.0]))


def test_normalize_convention():
    rng = np.random.default_rng(5)
    k = random_kruskal(rng, (4, 3, 6), 3)
    kn = k.normalize()
    for mat in (kn.A, kn.B, kn.C):
        assert np.abs(np.linalg.norm(mat, axis=0) - 1.0).max() < 1e-12
    gap = np.abs(reconstruct(kn).values - reconstruct(k).values).max()
    assert gap < 1e-12


def test_normalize_keeps_zero_columns():
    k = KruskalTensor(np.zeros((3, 1)), np.ones((2, 1)), np.ones((2, 1)))
    kn = k.normalize()
    assert not kn.A.any()
    assert kn.weights[0] == 0.0


def test_permute_round_trip():
    rng = np.random.default_rng(6)
    k = random_kruskal(rng, (4, 3, 6), 3)
    order = np.array([2, 0, 1])
    inverse = np.argsort(order)
    back = k.permute(order).permute(inverse)
    assert np.array_equal(back.A, k.A)
    assert np.array_equal(back.weights, k.weights)
    with pytest.raises(ValueError):
        k.permute(np.array([0, 0, 1]))
