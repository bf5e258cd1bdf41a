import tracemalloc

import numpy as np
import pytest

from tempofact.tensor import (
    DenseTensor3,
    KruskalTensor,
    khatri_rao,
    reconstruct,
)
from util import matricize, random_kruskal, triple_sum_tensor


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
