from pathlib import Path

import numpy as np
import pytest

from tempofact import nnls as nnls_mod
from tempofact.nnls import kkt_residual, solve_nnls
from util import nnls_objective, nnls_oracle_objective


def _random_problem(rng, r=None, m=None):
    """A random ``(gram, crossterm)`` pair."""
    r = r if r is not None else int(rng.integers(1, 7))
    m = m if m is not None else int(rng.integers(1, 5))
    h = rng.standard_normal((r + 2, r))
    return h.T @ h, h.T @ rng.standard_normal((r + 2, m))


def test_clamped_negative_solution():
    sol = solve_nnls(np.eye(2), np.array([[1.0], [-1.0]]))
    assert sol.W.tolist() == [[1.0, 0.0]]
    assert sol.converged


def test_interior_solution_equals_unconstrained():
    sol = solve_nnls(np.eye(3), np.array([[2.0], [3.0], [5.0]]))
    assert sol.W.tolist() == [[2.0, 3.0, 5.0]]


def _initial_passive_sets(rng, ct):
    """No initial set, then warm starts from all-false, all-true and random sets."""
    shape = ct.T.shape
    return [None, np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool),
            rng.random(shape) < 0.5]


def test_matches_exhaustive_active_set_oracle():
    rng = np.random.default_rng(17)
    start_rng = np.random.default_rng(41)
    for _ in range(100):
        gram, ct = _random_problem(rng)
        for passive in _initial_passive_sets(start_rng, ct):
            sol = solve_nnls(gram, ct, passive=passive)
            assert sol.converged
            assert sol.W.min() >= 0.0
            assert sol.kkt_residual <= 1e-8
            for col in range(ct.shape[1]):
                got = nnls_objective(gram, ct[:, col], sol.W[col])
                want = nnls_oracle_objective(gram, ct[:, col])
                assert abs(got - want) < 1e-8


def test_support_and_relative_kkt_residual_invariant_under_scaling():
    # Scaling gram and crossterm by c leaves W unchanged and scales the
    # gradient by c, so the support must not move and the KKT residual,
    # relative to the right-hand side, must stay within tolerance.
    rng = np.random.default_rng(19)
    for _ in range(100):
        gram1, ct1 = _random_problem(rng)
        ref = None
        for c in (1e-6, 1.0, 1e6):
            gram, ct = c * gram1, c * ct1
            tol = 1e-8 * float(np.abs(ct).max())
            sol = solve_nnls(gram, ct, tol=tol)
            assert sol.converged
            assert kkt_residual(gram, ct, sol.W) <= tol
            if ref is None:
                ref = sol.W > 0
            assert np.array_equal(sol.W > 0, ref)


def test_slightly_negative_passive_variable_is_pivoted_out():
    # A 4-variable update captured from an over-factored alternating fit
    # (the A factor, 120 rows, cond(gram) ~ 31): the warm-start solve leaves
    # one passive variable at -3.7e-7.  Judged against a threshold in
    # crossterm units it looked feasible, was clipped to 0, and left a
    # gradient error of 3.7e-2 on its neighbours.
    data = np.load(Path(__file__).parent / "data" / "nnls_stall_r4.npz")
    gram, ct, passive = data["gram"], data["crossterm"], data["passive"]
    tol = 1e-8 * float(np.abs(ct).max())
    for start in (passive, None):
        sol = solve_nnls(gram, ct, tol=tol, passive=start)
        assert sol.converged
        assert sol.kkt_residual <= tol
        assert kkt_residual(gram, ct, sol.W) <= tol


def test_objective_dominates_trivial_candidates():
    rng = np.random.default_rng(23)
    for _ in range(50):
        gram, ct = _random_problem(rng, m=1)
        h = ct[:, 0]
        w = solve_nnls(gram, ct).W[0]
        obj = nnls_objective(gram, h, w)
        assert obj <= nnls_objective(gram, h, np.zeros_like(h)) + 1e-12
        clamped = np.maximum(np.linalg.solve(gram, h), 0.0)
        assert obj <= nnls_objective(gram, h, clamped) + 1e-12


def test_returns_unconstrained_solution_when_feasible():
    rng = np.random.default_rng(29)
    hits = 0
    for _ in range(200):
        gram, ct = _random_problem(rng, m=1)
        unconstrained = np.linalg.solve(gram, ct[:, 0])
        if unconstrained.min() < 0:
            continue
        hits += 1
        w = solve_nnls(gram, ct).W[0]
        assert np.abs(w - unconstrained).max() < 1e-8
    assert hits > 5


def test_kkt_residual_reproducible():
    rng = np.random.default_rng(31)
    gram, ct = _random_problem(rng, r=5, m=3)
    sol = solve_nnls(gram, ct)
    recomputed = kkt_residual(gram, ct, sol.W)
    assert abs(recomputed - sol.kkt_residual) < 1e-12


def test_partition_of_right_hand_sides_is_identical():
    rng = np.random.default_rng(37)
    h = rng.standard_normal((10, 4))
    cases = [(h.T @ h, h.T @ rng.standard_normal((10, 61)), 23)]
    # A column whose unconstrained solution (1, -5e-12) sits just past the
    # pivot threshold of 0, beside a column with a large right-hand side.
    near = np.array([[1.0, 0.5], [0.5, 1.0]])
    cases.append((near, near @ np.array([[1.0, 1e4], [-5e-12, 1.0]]), 1))
    for gram, ct, cut in cases:
        r, m = ct.shape
        for passive in (None, rng.random((m, r)) < 0.5):
            whole = solve_nnls(gram, ct, passive=passive).W
            split = np.vstack([
                solve_nnls(gram, ct[:, part],
                           passive=None if passive is None else passive[part]).W
                for part in (slice(None, cut), slice(cut, None))
            ])
            assert np.array_equal(whole, split)


def test_non_convergence_reports_best_iterate(monkeypatch):
    monkeypatch.setattr(nnls_mod, "_ROUNDS_PER_VARIABLE", 0)
    sol = solve_nnls(np.eye(2), np.array([[1.0], [1.0]]))
    assert not sol.converged
    assert sol.W.tolist() == [[0.0, 0.0]]
    assert sol.kkt_residual > 0.0


def test_zero_crossterm_is_immediately_feasible():
    sol = solve_nnls(np.zeros((2, 2)), np.zeros((2, 3)))
    assert sol.converged
    assert not sol.W.any()
    assert sol.iterations == 0


def test_singular_gram_handled_by_ridge():
    # Rank-deficient gram with a consistent crossterm still yields a
    # feasible nonnegative solution close to optimal.
    gram = np.array([[1.0, 1.0], [1.0, 1.0]])
    ct = np.array([[1.0], [1.0]])
    sol = solve_nnls(gram, ct)
    assert sol.W.min() >= 0.0
    assert abs(sol.W[0].sum() - 1.0) < 1e-6


def test_system_that_cholesky_accepts_and_lu_cannot_invert_takes_the_ridge():
    # The Gram of a rank-5 fit's first update on a 2 x 2 x 2 tensor: its
    # eigenvalues run from 4e-17 to 1.46, so Cholesky factors it while LU
    # finds a zero pivot.
    gram = np.array([
        [0.06489062044412032, 0.03739654149207394, 0.19773976367361484,
         0.014177051896233429, 0.1125288066290119],
        [0.03739654149207394, 0.4736516901163984, 0.31385450325523984,
         0.12447291284822662, 0.16745248102181345],
        [0.19773976367361484, 0.31385450325523984, 0.913862089050417,
         0.1330822950250517, 0.565144909664169],
        [0.014177051896233429, 0.12447291284822662, 0.1330822950250517,
         0.05088951187548057, 0.08034315886170929],
        [0.1125288066290119, 0.16745248102181345, 0.565144909664169,
         0.08034315886170929, 0.3588864174272606],
    ])
    np.linalg.cholesky(gram)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(gram)
    sol = solve_nnls(gram, np.ones((5, 2)), passive=np.ones((2, 5), dtype=bool))
    assert sol.W.shape == (2, 5)
    assert sol.W.min() >= 0.0


def test_problem_validation():
    with pytest.raises(ValueError, match="symmetric"):
        solve_nnls(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="inconsistent"):
        solve_nnls(np.eye(2), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="square"):
        solve_nnls(np.ones((2, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="tol"):
        solve_nnls(np.eye(2), np.zeros((2, 1)), tol=0.0)
    assert solve_nnls([[1, 0], [0, 1]], [[2], [-1]]).W.tolist() == [[2.0, 0.0]]
    with pytest.raises(ValueError, match="passive"):
        solve_nnls(np.eye(2), np.zeros((2, 3)), passive=np.ones((2, 3), dtype=bool))


def test_empty_initial_passive_set_is_the_cold_start():
    rng = np.random.default_rng(43)
    gram, ct = _random_problem(rng, r=5, m=30)
    cold = solve_nnls(gram, ct)
    warm = solve_nnls(gram, ct, passive=np.zeros((30, 5), dtype=bool))
    assert np.array_equal(cold.W, warm.W)
    assert cold.iterations == warm.iterations > 0


def test_optimal_initial_support_needs_no_exchange_round():
    # The solve of the initial passive set is not counted in iterations.
    rng = np.random.default_rng(47)
    gram, ct = _random_problem(rng, r=5, m=30)
    cold = solve_nnls(gram, ct)
    warm = solve_nnls(gram, ct, passive=cold.W > 0)
    assert warm.converged
    assert warm.iterations == 0
    np.testing.assert_allclose(warm.W, cold.W, rtol=1e-10, atol=1e-12)


def test_non_positive_definite_column_alone_takes_the_ridge_path(monkeypatch):
    # Variables 0 and 1 have identical columns in H, with integer entries, so
    # the padded system of a passive set holding both is exactly singular.
    # Only column 0 starts from such a set; in every other column one of the
    # two variables has a right-hand side that keeps it out of the support.
    h = np.array([[1, 1, 0], [2, 2, 1], [2, 2, 0], [0, 0, 2], [0, 0, 2]], dtype=float)
    gram = h.T @ h
    ct = np.array([[0.4, 0.2, -0.2, 0.3, -0.4, -0.1],
                   [0.4, -0.3, -0.1, -0.5, 0.1, -0.2],
                   [0.1, 0.1, 0.5, 0.2, 0.6, -0.3]])
    passive = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1], [0, 0, 0]],
                       dtype=bool)
    per_column = []
    real_solve_one = nnls_mod._solve_one
    monkeypatch.setattr(nnls_mod, "_solve_one", lambda *args: per_column.append(1)
                        or real_solve_one(*args))
    mixed = solve_nnls(gram, ct, passive=passive)
    assert per_column  # the batch fell back to one solve per column
    assert mixed.W.min() >= 0.0
    want = nnls_oracle_objective(gram, ct[:, 0])
    assert abs(nnls_objective(gram, ct[:, 0], mixed.W[0]) - want) < 1e-8
    per_column.clear()
    for col in range(1, 6):
        alone = solve_nnls(gram, ct[:, [col]], passive=passive[[col]])
        assert np.array_equal(alone.W[0], mixed.W[col])
    assert not per_column


def test_only_the_columns_of_a_singular_pattern_take_the_ridge_path(monkeypatch):
    # Columns 0 and 1 share the exactly singular pattern {0, 1}; the other
    # patterns are positive definite.  A budget of no exchange rounds keeps
    # the solve to the initial passive set, so exactly two columns may reach
    # _solve_one.
    h = np.array([[1, 1, 0], [2, 2, 1], [2, 2, 0], [0, 0, 2], [0, 0, 2]], dtype=float)
    gram = h.T @ h
    rng = np.random.default_rng(53)
    ct = rng.standard_normal((3, 8))
    passive = np.array([[1, 1, 0], [1, 1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1],
                        [0, 0, 0], [1, 0, 1]], dtype=bool)
    seen = []
    real_solve_one = nnls_mod._solve_one
    monkeypatch.setattr(nnls_mod, "_solve_one", lambda system, rhs, *rest: seen.append(rhs)
                        or real_solve_one(system, rhs, *rest))
    monkeypatch.setattr(nnls_mod, "_ROUNDS_PER_VARIABLE", 0)
    mixed = solve_nnls(gram, ct, passive=passive)
    assert len(seen) == 2
    for rhs, col in zip(seen, (0, 1)):
        assert np.array_equal(rhs, np.where(passive[col], ct[:, col], 0.0))
    seen.clear()
    for col in range(2, 8):
        alone = solve_nnls(gram, ct[:, [col]], passive=passive[[col]])
        assert np.array_equal(alone.W[0], mixed.W[col])
    assert not seen


def test_columns_sharing_a_few_patterns_match_their_solves_alone():
    rng = np.random.default_rng(59)
    h = rng.standard_normal((9, 4))
    gram = h.T @ h
    ct = h.T @ rng.standard_normal((9, 240))
    patterns = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
    passive = patterns[rng.integers(0, len(patterns), 240)]
    batch = solve_nnls(gram, ct, passive=passive)
    assert batch.converged
    for col in range(240):
        alone = solve_nnls(gram, ct[:, [col]], passive=passive[[col]])
        assert np.array_equal(alone.W[0], batch.W[col])


@pytest.mark.parametrize("r, m", [(1, 40), (12, 5)])
def test_one_variable_and_more_patterns_than_columns_match_the_oracle(r, m):
    # R = 12 allows 4096 patterns for 5 columns: every column its own group.
    rng = np.random.default_rng(61 + r)
    start_rng = np.random.default_rng(67)
    for _ in range(3):
        gram, ct = _random_problem(rng, r=r, m=m)
        want = [nnls_oracle_objective(gram, h) for h in ct.T]
        for passive in _initial_passive_sets(start_rng, ct):
            sol = solve_nnls(gram, ct, passive=passive)
            assert sol.converged
            for col in range(m):
                got = nnls_objective(gram, ct[:, col], sol.W[col])
                assert abs(got - want[col]) < 1e-8


def test_pattern_codes_wider_than_64_bits():
    # With a diagonal gram each variable is its own problem: w = max(h / g, 0).
    rng = np.random.default_rng(71)
    r, m = 70, 6
    diag = rng.uniform(0.5, 2.0, r)
    ct = rng.standard_normal((r, m))
    for passive in (None, rng.random((m, r)) < 0.5):
        sol = solve_nnls(np.diag(diag), ct, passive=passive)
        assert sol.converged
        np.testing.assert_allclose(sol.W, np.maximum(ct / diag[:, None], 0.0).T, rtol=1e-12)
