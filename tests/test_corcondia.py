import numpy as np
import pytest

from tempofact.als import FitConfig, fit_best
from tempofact.corcondia import (
    DegenerateFactorError,
    core_consistency,
    rank_scan,
    tucker_core,
)
from tempofact.tensor import KruskalTensor, reconstruct
from util import random_kruskal, random_tensor


def _superdiagonal(r):
    g = np.zeros((r, r, r))
    idx = np.arange(r)
    g[idx, idx, idx] = 1.0
    return g


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_unit_superdiagonal_scores_100(rank):
    assert core_consistency(_superdiagonal(rank)) == 100.0


def test_single_off_entry_scores_50():
    g = _superdiagonal(2)
    g[0, 1, 0] = 1.0
    assert core_consistency(g) == 50.0


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_exact_model_core_is_superdiagonal(rank):
    rng = np.random.default_rng(40 + rank)
    k = random_kruskal(rng, (6, 5, 7), rank)
    x = reconstruct(k)
    core = tucker_core(x, k)
    off = core - _superdiagonal(rank)
    assert np.abs(off).max() < 1e-8
    assert abs(core_consistency(core) - 100.0) < 1e-6


def test_rank_one_core_is_scalar_one():
    rng = np.random.default_rng(50)
    k = KruskalTensor(rng.random((4, 1)), rng.random((3, 1)), rng.random((5, 1)),
                      np.array([2.5]))
    core = tucker_core(reconstruct(k), k)
    assert core.shape == (1, 1, 1)
    assert abs(core[0, 0, 0] - 1.0) < 1e-12


def test_misfit_produces_off_superdiagonal_mass():
    rng = np.random.default_rng(51)
    x = random_tensor(rng, (6, 5, 7))
    k = random_kruskal(rng, (6, 5, 7), 2)  # unfitted factors
    core = tucker_core(x, k)
    off = core.copy()
    idx = np.arange(2)
    off[idx, idx, idx] = 0.0
    assert np.abs(off).max() > 0.0


def test_score_invariant_to_column_rescaling():
    rng = np.random.default_rng(52)
    k = random_kruskal(rng, (6, 5, 7), 3)
    x = reconstruct(k)
    scales = np.array([0.1, 3.0, 7.5])
    rescaled = KruskalTensor(k.A * scales, k.B / scales, k.C * scales,
                             k.weights / scales)
    a = core_consistency(tucker_core(x, k))
    b = core_consistency(tucker_core(x, rescaled))
    assert abs(a - b) < 1e-8


def test_core_matches_dense_least_squares_oracle():
    rng = np.random.default_rng(53)
    x = random_tensor(rng, (4, 3, 3))
    k = fit_best(x, FitConfig(rank=2, restarts=3, seed=1, max_sweeps=60))
    core = tucker_core(x, k.factors)

    kn = k.factors.normalize()
    a, b, cw = kn.A, kn.B, kn.weighted_C
    big_k = np.kron(cw, b)  # (D*T) x R^2 design of the matricized core problem
    design = np.kron(big_k, a)
    x1 = np.reshape(np.moveaxis(x.values, 0, 0), (4, -1), order="F")
    g1_vec = np.linalg.lstsq(design, x1.ravel(order="F"), rcond=None)[0]
    g1 = core.reshape(2, 4, order="F")
    assert np.abs(g1.ravel(order="F") - g1_vec).max() < 1e-8


def _pinv_core(x, k, bank_mode_first=False):
    """The core from ``np.linalg.pinv`` of each factor: the reference formula,
    contracted day mode first as ``tucker_core`` does, or bank mode first."""
    kn = k.normalize()
    ap, bp, cp = (np.linalg.pinv(m, rcond=1e-12) for m in (kn.A, kn.B, kn.weighted_C))
    if bank_mode_first:
        g = np.einsum("ni,ijk->njk", ap, x.values, optimize=True)
        g = np.einsum("mj,njk->nmk", bp, g, optimize=True)
        return np.einsum("pk,nmk->nmp", cp, g, optimize=True)
    n, t, _ = x.dims
    r = k.rank
    g = (ap @ np.matmul(x.values, cp.T).reshape(n, t * r)).reshape(r, t, r)
    return np.matmul(bp, g)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_core_equals_pinv_formula(rank):
    rng = np.random.default_rng(60 + rank)
    for dims in ((6, 5, 7), (4, 9, 5), (40, 12, 300)):
        x = random_tensor(rng, dims)
        k = random_kruskal(rng, dims, rank)
        core = tucker_core(x, k)
        assert np.array_equal(core, _pinv_core(x, k))
        other_order = _pinv_core(x, k, bank_mode_first=True)
        assert np.abs(core - other_order).max() <= 1e-12 * np.abs(other_order).max()


def test_degenerate_factor_raises_with_name():
    rng = np.random.default_rng(54)
    a = rng.random((6, 2))
    a[:, 1] = a[:, 0]  # exactly collinear bank factor
    k = KruskalTensor(a, rng.random((5, 2)), rng.random((7, 2)))
    x = random_tensor(rng, (6, 5, 7))
    with pytest.raises(DegenerateFactorError) as err:
        tucker_core(x, k)
    assert err.value.factor == "A"

    for pos, name in enumerate("ABC"):
        mats = [rng.random((n, 2)) for n in (6, 5, 7)]
        mats[pos][:, 0] = 0.0  # zeroed component
        with pytest.raises(DegenerateFactorError) as err2:
            tucker_core(x, KruskalTensor(*mats))
        assert err2.value.factor == name


@pytest.mark.parametrize("dims,name", [((3, 6, 40), "A"), ((6, 3, 40), "B"),
                                       ((6, 8, 4), "C")])
def test_factor_wider_than_tall_is_degenerate(dims, name):
    # R = 5 above one mode's size: that factor's rank is at most its row
    # count, and an economy SVD does not show the missing singular values.
    rng = np.random.default_rng(57)
    x = random_tensor(rng, dims)
    with pytest.raises(DegenerateFactorError) as err:
        tucker_core(x, random_kruskal(rng, dims, 5))
    assert (err.value.factor, err.value.cond) == (name, np.inf)
    report = rank_scan(x, 5, 85.0, FitConfig(rank=1, restarts=2, max_sweeps=30, seed=3))
    scan = report.records[-1]
    assert scan.cc_values == (None, None)
    assert [k for k, why in scan.failures if why.startswith(f"factor {name} ")] == [0, 1]


def test_core_dim_mismatch():
    rng = np.random.default_rng(55)
    with pytest.raises(ValueError):
        tucker_core(random_tensor(rng, (3, 3, 3)), random_kruskal(rng, (3, 3, 4), 1))


def test_rank_scan_on_exact_rank_two_tensor():
    rng = np.random.default_rng(56)
    x = reconstruct(random_kruskal(rng, (10, 8, 12), 2))
    report = rank_scan(x, 3, 85.0, FitConfig(rank=1, restarts=5, seed=9, max_sweeps=200))
    by_rank = {rec.rank: rec for rec in report.records}
    assert by_rank[2].cc_mean > 99.0
    passing = [r for r, rec in by_rank.items() if rec.cc_mean is not None and rec.cc_mean > 85.0]
    assert report.selected_rank == max(passing)
    assert 2 in passing
    for rec in report.records:
        if rec.cc_mean is not None:
            lo, hi = rec.cc_ci95
            assert lo <= rec.cc_mean <= hi
        assert len(rec.cc_values) == 5
        assert len(rec.failures) == sum(1 for c in rec.cc_values if c is None)


def test_rank_scan_boundary_rank_one():
    rng = np.random.default_rng(57)
    x = reconstruct(random_kruskal(rng, (6, 5, 7), 1))
    report = rank_scan(x, 1, 85.0, FitConfig(rank=1, restarts=3, seed=2))
    assert report.selected_rank == 1
    assert abs(report.records[0].cc_mean - 100.0) < 1e-6


def test_rank_scan_single_restart_ci_degenerates_to_mean():
    rng = np.random.default_rng(58)
    x = reconstruct(random_kruskal(rng, (6, 5, 7), 1))
    report = rank_scan(x, 1, 85.0, FitConfig(rank=1, restarts=1, seed=2))
    rec = report.records[0]
    assert rec.cc_ci95 == (rec.cc_mean, rec.cc_mean)


def test_rank_scan_validates_rmax():
    rng = np.random.default_rng(59)
    with pytest.raises(ValueError):
        rank_scan(random_tensor(rng, (3, 3, 3)), 0, 85.0, FitConfig(rank=1, restarts=1))
