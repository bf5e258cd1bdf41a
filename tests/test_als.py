import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from tempofact.als import (
    FitConfig,
    FitError,
    FitResult,
    _restart,
    best_restart,
    fit_best,
    fit_once,
    fit_restarts,
)
from tempofact.synthetic import SyntheticConfig, generate
from tempofact.tensor import (
    DenseTensor3,
    KruskalTensor,
    khatri_rao,
    reconstruct,
)
from util import best_match, cosine, matricize, random_kruskal, random_tensor


def _objective(x, k):
    return float(np.sum((x.values - reconstruct(k).values) ** 2))


def _start_from(monkeypatch, A, B, C):
    """Make every restart start from the given factors instead of its seed's."""
    import tempofact.als as als_mod

    monkeypatch.setattr(als_mod, "_initial_factors", lambda *args: (A, B, C))


def _swept(monkeypatch, x, k):
    """One sweep from ``k``, with its weights folded into the day factors."""
    _start_from(monkeypatch, k.A, k.B, k.C * k.weights)
    return fit_once(x, FitConfig(rank=k.rank, max_sweeps=1), seed=0).factors


def test_sweep_is_fixed_point_on_exact_rank_one(monkeypatch):
    rng = np.random.default_rng(2)
    k = random_kruskal(rng, (5, 4, 6), 1)
    x = reconstruct(k)
    before = _objective(x, k)
    after = _objective(x, _swept(monkeypatch, x, k))
    assert abs(after - before) < 1e-12


def test_sweep_never_increases_objective(monkeypatch):
    rng = np.random.default_rng(3)
    for _ in range(100):
        dims = tuple(rng.integers(3, 7, size=3))
        x = random_tensor(rng, dims)
        k = random_kruskal(rng, dims, 2)
        assert _objective(x, _swept(monkeypatch, x, k)) <= _objective(x, k) + 1e-10


def _oracle_fit(x, cfg, seed):
    """Drive :func:`_restart` to its end, answering each request from the
    textbook unfolding ``matricize(x, 3)`` instead of the slab products."""
    n, t, d = x.dims
    x3 = matricize(x, 3)  # D x NT, column i + N j
    restart, product = _restart(x.dims, float(np.sum(x.values**2)), cfg, seed), None
    try:
        while True:
            op, *operands = restart.send(product)
            if op is DenseTensor3.mode3_days:  # days and M, for X[:, :, days] @ M
                days, m = operands
                product = (x3[days].T @ m).reshape(n, t, -1, order="F")
            elif op is DenseTensor3.mode3:  # C, for X x_3 C
                product = (x3.T @ operands[0]).reshape(n, t, -1, order="F")
            else:  # slab i is (B * A[i])^T; as rows j N + i it is khatri_rao(B, A)
                assert op is DenseTensor3.slab_sum
                kr = operands[0].transpose(2, 0, 1).reshape(n * t, -1)
                product = kr.T @ x3.T
    except StopIteration as done:
        return done.value


def test_restart_answered_by_the_unfolded_oracle_matches_fit_once(monkeypatch):
    counts = _count_candidates(monkeypatch)
    rng = np.random.default_rng(30)
    for trial in range(24):
        dims = tuple(int(v) for v in rng.integers(3, 10, size=3))
        x = random_tensor(rng, dims)
        cfg = FitConfig(rank=1 + trial % 4, max_sweeps=60)
        want, got = fit_once(x, cfg, seed=trial), _oracle_fit(x, cfg, seed=trial)
        assert got.sweeps_used == want.sweeps_used, trial
        np.testing.assert_allclose(got.objective_trace, want.objective_trace,
                                   rtol=1e-10, atol=0.0)
    assert counts["accepted"] > 0 and counts["rejected"] > 0


def _answered_requests(x, cfg, seed):
    """Drive one restart with the tensor's own products; yield each request
    ``(op, *operands)`` with the generator, which is suspended at that
    request."""
    restart, product = _restart(x.dims, x.norm2, cfg, seed), None
    try:
        while True:
            request = restart.send(product)
            yield request, restart
            op, *operands = request
            product = op(x, *operands)
    except StopIteration:
        return


def _random_fits(seed, trials):
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        dims = tuple(int(v) for v in rng.integers(3, 12, size=3))
        yield random_tensor(rng, dims), FitConfig(rank=1 + trial % 4, max_sweeps=60), trial


def test_derived_first_pass_matches_the_direct_pass():
    # After a rejected candidate the next sweep's A and B updates use X x_3 C
    # derived from the candidate's pass, a correction over the clipped days
    # and the sweep's own pass; when the sweep asks for its C product, y
    # and C are still those of the sweep's start.
    checked, corrections, clipped = 0, 0, 0
    for x, cfg, seed in _random_fits(34, 40):
        corrected = False
        for request, restart in _answered_requests(x, cfg, seed):
            if corrected:
                state = restart.gi_frame.f_locals
                want = np.matmul(x.values, state["C"])
                assert np.abs(state["y"] - want).max() <= 1e-12 * np.abs(want).max()
                checked += 1
            corrected = request[0] is DenseTensor3.mode3_days
            if corrected:
                _, days, m = request
                assert m.shape == (len(days), cfg.rank) and (m <= 0.0).all()
                corrections += 1
                clipped += len(days) > 0
    assert checked > 20 and corrections > checked / 2 and clipped > 0, (checked, clipped)


def test_restart_never_recomputes_a_first_pass_after_a_rejected_candidate():
    # Sweep 1 asks for X x_3 C; from sweep 2 on every first pass is a
    # candidate's, used as is or corrected, so a restart of S >= 2 sweeps
    # makes 2 S + 1 full passes.
    full, days, slabs = DenseTensor3.mode3, DenseTensor3.mode3_days, DenseTensor3.slab_sum
    rejected = 0
    for x, cfg, seed in _random_fits(35, 40):
        kinds = [request[0] for request, _ in _answered_requests(x, cfg, seed)]
        assert set(kinds) <= {full, days, slabs}
        rejected += kinds.count(days)
        assert all(after is not full for before, after in zip(kinds, kinds[1:])
                   if before is days)
        sweeps = kinds.count(slabs)
        assert len(kinds) - kinds.count(days) == (2 * sweeps + 1 if sweeps > 1 else 2)
    assert rejected > 20


def test_restarts_share_one_squared_norm(monkeypatch):
    # ||X||^2 is a pass over the tensor: the tensor takes it once, not each
    # restart or restart thread.  cached_property takes no lock from Python
    # 3.12 on, and the sleep widens the window in which two threads would race.
    calls = []
    real_vdot = np.vdot

    def vdot(a, b):
        calls.append(a.size)
        time.sleep(0.01)
        return real_vdot(a, b)

    monkeypatch.setattr(np, "vdot", vdot)
    cfg = FitConfig(rank=2, max_sweeps=5, restarts=3)
    for jobs in (1, 2):
        calls.clear()
        x = random_tensor(np.random.default_rng(36), (5, 4, 6))
        for _ in range(2):
            assert all(isinstance(r, FitResult) for r in fit_restarts(x, cfg, jobs))
        assert calls == [x.values.size], jobs


@pytest.mark.parametrize("k", [-60, -30, 30])
def test_fit_does_not_depend_on_the_tensor_units(k):
    # Scaling by 2^k is exact, so only the cube root in the scaled start
    # differs: every threshold must scale with the data, none may have a floor.
    x, _ = generate(SyntheticConfig(n_banks=60, intervals=10, days=300, seed=7))
    cfg = FitConfig(rank=3)
    base = fit_once(x, cfg, seed=3)
    scaled = fit_once(DenseTensor3(x.values * 2.0**k), cfg, seed=3)
    assert scaled.sweeps_used == base.sweeps_used
    for mat in ("A", "B", "C"):
        np.testing.assert_allclose(getattr(scaled.factors, mat), getattr(base.factors, mat),
                                   rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(scaled.factors.weights, base.factors.weights * 2.0**k,
                               rtol=1e-12)


def test_zero_tensor_reaches_zero_objective():
    x = DenseTensor3(np.zeros((3, 4, 5)))
    res = fit_once(x, FitConfig(rank=2, restarts=1), seed=0)
    assert res.objective_trace[-1] == 0.0
    assert res.rel_error == 0.0


def test_fit_once_deterministic():
    rng = np.random.default_rng(9)
    x = random_tensor(rng, (6, 5, 7))
    cfg = FitConfig(rank=2, max_sweeps=40, restarts=1, seed=1)
    a = fit_once(x, cfg, seed=123)
    b = fit_once(x, cfg, seed=123)
    assert a.objective_trace == b.objective_trace
    assert np.array_equal(a.factors.A, b.factors.A)
    assert np.array_equal(a.factors.weights, b.factors.weights)
    assert a.rel_error == b.rel_error


def test_fit_recovers_exact_rank_two_model():
    rng = np.random.default_rng(14)
    x = reconstruct(random_kruskal(rng, (10, 8, 12), 2))
    best = fit_best(x, FitConfig(rank=2, restarts=20, seed=7))
    assert best.rel_error < 1e-6


def test_rank_one_model_class_is_exact():
    rng = np.random.default_rng(15)
    x = reconstruct(random_kruskal(rng, (6, 5, 7), 1))
    best = fit_best(x, FitConfig(rank=1, restarts=5, seed=3))
    assert best.rel_error < 1e-8


def test_single_restart_equals_fit_once_with_derived_seed():
    rng = np.random.default_rng(16)
    x = random_tensor(rng, (5, 4, 6))
    cfg = FitConfig(rank=2, max_sweeps=30, restarts=1, seed=11)
    via_best = fit_best(x, cfg)
    direct = fit_once(x, cfg, seed=11)
    assert via_best.objective_trace == direct.objective_trace
    assert np.array_equal(via_best.factors.C, direct.factors.C)


def test_restart_list_independent_of_jobs():
    rng = np.random.default_rng(17)
    x = random_tensor(rng, (6, 4, 5))
    cfg = FitConfig(rank=2, max_sweeps=25, restarts=4, seed=2)
    serial = fit_restarts(x, cfg, jobs=1)
    parallel = fit_restarts(x, cfg, jobs=2)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert a.objective_trace == b.objective_trace
        assert np.array_equal(a.factors.B, b.factors.B)


def test_traces_monotone_and_factors_nonnegative():
    rng = np.random.default_rng(19)
    for trial in range(30):
        dims = tuple(rng.integers(4, 9, size=3))
        x = random_tensor(rng, dims)
        rank = int(rng.integers(1, 4))
        res = fit_once(x, FitConfig(rank=rank, max_sweeps=60, restarts=1), seed=trial)
        trace = np.array(res.objective_trace)
        assert (np.diff(trace) <= 1e-10).all()
        assert 0.0 <= res.rel_error <= 1.0
        for mat in (res.factors.A, res.factors.B, res.factors.C):
            assert mat.min() >= 0.0


def test_fit_best_aggregate_failure(monkeypatch):
    import tempofact.als as als_mod

    rng = np.random.default_rng(99)
    x = random_tensor(rng, (4, 4, 4))
    monkeypatch.setattr(als_mod, "_try_fit", lambda *args: None)
    with pytest.raises(als_mod.FitError, match="all 3 restarts"):
        als_mod.fit_best(x, FitConfig(rank=1, restarts=3))


def test_best_restart_breaks_ties_by_seed():
    rng = np.random.default_rng(98)
    x = random_tensor(rng, (4, 4, 4))
    fits = [fit_once(x, FitConfig(rank=1, max_sweeps=5), seed=s) for s in (5, 3, 4)]
    tied = [fits[0], None, replace(fits[1], rel_error=fits[0].rel_error), None]
    best = best_restart(tied)
    assert best.seed == 3 and best.rel_error == fits[0].rel_error
    assert best_restart(fits) is min(fits, key=lambda r: r.rel_error)
    with pytest.raises(FitError, match="all 2 restarts failed"):
        best_restart([None, None])


def test_normalized_result_reconstructs_identically():
    rng = np.random.default_rng(20)
    k = random_kruskal(rng, (5, 6, 4), 3)
    gap = np.abs(reconstruct(k.normalize()).values - reconstruct(k).values).max()
    assert gap < 1e-12


def test_recovery_matches_ground_truth_components():
    rng = np.random.default_rng(21)
    truth = random_kruskal(rng, (12, 10, 14), 4)
    x = reconstruct(truth)
    best = fit_best(x, FitConfig(rank=4, restarts=20, seed=5))
    assert best.rel_error < 1e-5
    truth_n = truth.normalize()
    fit_n = best.factors
    for true_mat, fit_mat in ((truth_n.A, fit_n.A), (truth_n.B, fit_n.B), (truth_n.C, fit_n.C)):
        scores = np.array(
            [[cosine(true_mat[:, i], fit_mat[:, j]) for j in range(4)] for i in range(4)]
        )
        _, matched = best_match(scores)
        assert min(matched) >= 0.99


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(rank=0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, max_sweeps=0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, restarts=0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, rel_tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, rel_tol=np.inf)
    with pytest.raises(ValueError):
        FitConfig(rank=1, seed=-1)
    with pytest.raises(ValueError):
        FitConfig(rank=1, init="gaussian")
    with pytest.raises(ValueError):
        fit_once(DenseTensor3(np.zeros((0, 0, 0))), FitConfig(rank=1), seed=0)


@pytest.mark.parametrize("shape,rank", [
    pytest.param((7, 5, 9), 1, id="1"), pytest.param((7, 5, 9), 4, id="4"),
    # Degenerate slabs: one bank, one interval, one day; and R > T.
    ((1, 5, 9), 3), ((7, 1, 9), 3), ((7, 5, 1), 3), ((7, 5, 9), 6),
])
def test_two_pass_products_match_unfolded_oracle(monkeypatch, shape, rank):
    # Each update's right-hand side must equal the textbook MTTKRP
    # X_(n) @ (khatri-rao of the other two factors), with the factors that
    # are current at that point of the sweep.
    import tempofact.als as als_mod

    rng = np.random.default_rng(31 + rank)
    n, t, d = shape
    x = random_tensor(rng, shape)
    A0, B0, C0 = rng.random((n, rank)), rng.random((t, rank)), rng.random((d, rank))
    _start_from(monkeypatch, A0, B0, C0)
    seen = []
    real_update = als_mod._update_factor

    def recording_update(proj, gram_u, gram_v, passive):
        W, gram = real_update(proj, gram_u, gram_v, passive)
        seen.append((proj.copy(), gram, W))
        return W, gram

    monkeypatch.setattr(als_mod, "_update_factor", recording_update)
    fit_once(x, FitConfig(rank=rank, max_sweeps=1), seed=0)
    (proj_a, gram_a, A1), (proj_b, gram_b, B1), (proj_c, gram_c, _) = seen
    for mode, proj, gram, left, right in (
        (1, proj_a, gram_a, C0, B0),
        (2, proj_b, gram_b, C0, A1),
        (3, proj_c, gram_c, B1, A1),
    ):
        kr = khatri_rao(left, right)
        np.testing.assert_allclose(proj, matricize(x, mode) @ kr, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gram, kr.T @ kr, rtol=1e-12, atol=1e-12)


def test_sweep_never_copies_the_tensor():
    # The slab products must take the read-only tensor as it is, and hold one
    # block of banks' partials at a time: a strided operand that numpy had to
    # copy would allocate the whole tensor again, and the whole stack's
    # partials are N x R x D.  Two sweeps make all three kinds of pass, the
    # candidate's included.
    import tracemalloc

    import tempofact.tensor as tensor_mod

    rng = np.random.default_rng(33)
    block, rank = tensor_mod._BLOCK_BANKS, 3
    x = random_tensor(rng, (8 * block, 4, 600))
    tracemalloc.start()
    try:
        fit_once(x, FitConfig(rank=rank, max_sweeps=2), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    partials = block * rank * x.dims[2] * 8
    assert peak < 3 * partials < x.values.nbytes / 2, (peak, partials)


@pytest.mark.parametrize("block", [1, 3, 1000])
def test_fit_does_not_depend_on_the_block_size(monkeypatch, block):
    import tempofact.tensor as tensor_mod

    rng = np.random.default_rng(34)
    x = random_tensor(rng, (2 * tensor_mod._BLOCK_BANKS + 3, 6, 40))
    cfg = FitConfig(rank=3, max_sweeps=30, rel_tol=1e-300)
    calls = []
    real_mode3_days = DenseTensor3.mode3_days

    def counted(self, days, m):
        calls.append(len(days))
        return real_mode3_days(self, days, m)

    monkeypatch.setattr(DenseTensor3, "mode3_days", counted)
    want = fit_once(x, cfg, seed=0)
    assert calls  # a rejected candidate's correction ran
    monkeypatch.setattr(tensor_mod, "_BLOCK_BANKS", block)
    got = fit_once(x, cfg, seed=0)
    assert np.array(got.objective_trace).tobytes() == np.array(want.objective_trace).tobytes()
    for name in ("A", "B", "C", "weights"):
        assert getattr(got.factors, name).tobytes() == getattr(want.factors, name).tobytes()


def test_fit_restarts_rejects_nonpositive_jobs():
    x = random_tensor(np.random.default_rng(32), (3, 3, 3))
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            fit_restarts(x, FitConfig(rank=1, restarts=2), jobs=jobs)


def _on_candidates(monkeypatch, score):
    """Call ``score(candidate, beta, misfit, swept_misfit)`` on each
    extrapolation candidate, where ``beta`` is its step, ``misfit`` is
    ``_misfit``'s value for it and ``swept_misfit`` that of the sweep it
    follows; ``score`` may return a misfit to use instead.

    ``_extrapolate`` makes the candidate and the next ``_misfit`` call
    scores it; every other ``_misfit`` call scores a plain sweep.
    """
    import tempofact.als as als_mod

    state = {"candidate": None, "swept": None}
    real_extrapolate, real_misfit = als_mod._extrapolate, als_mod._misfit

    def recording_extrapolate(factors, prev, beta):
        state["candidate"] = real_extrapolate(factors, prev, beta), beta
        return state["candidate"][0]

    def recording_misfit(*args):
        obj = real_misfit(*args)
        if state["candidate"] is None:
            state["swept"] = obj
            return obj
        (cand, beta), state["candidate"] = state["candidate"], None
        scored = score(cand, beta, obj, state["swept"])
        return obj if scored is None else scored

    monkeypatch.setattr(als_mod, "_extrapolate", recording_extrapolate)
    monkeypatch.setattr(als_mod, "_misfit", recording_misfit)


def _count_candidates(monkeypatch):
    """Count the extrapolation candidates that are accepted or rejected: a
    candidate is accepted when its score is below its sweep's misfit."""
    counts = {"accepted": 0, "rejected": 0}

    def count(cand, beta, obj, swept):
        counts["accepted" if obj < swept else "rejected"] += 1

    _on_candidates(monkeypatch, count)
    return counts


def test_extrapolated_fit_trace_never_increases(monkeypatch):
    counts = _count_candidates(monkeypatch)
    rng = np.random.default_rng(23)
    for trial in range(60):
        dims = tuple(rng.integers(3, 9, size=3))
        x = random_tensor(rng, dims)
        rank = 1 + trial % 4
        res = fit_once(x, FitConfig(rank=rank, max_sweeps=80, restarts=1), seed=trial)
        assert (np.diff(res.objective_trace) <= 1e-10).all(), (trial, rank)
        for mat in (res.factors.A, res.factors.B, res.factors.C):
            assert mat.min() >= 0.0
    assert counts["accepted"] > 0 and counts["rejected"] > 0


def test_candidate_score_matches_reconstruction(monkeypatch):
    # The candidate's misfit is computed from Ye = X x_3 Ce, the next
    # sweep's first pass; the oracle reconstructs the candidate densely.
    scored = []
    current = {}
    _on_candidates(monkeypatch,
                   lambda cand, beta, obj, swept: scored.append((current["x"], *cand, obj)))
    rng = np.random.default_rng(24)
    sweeps = 0
    for rank in (1, 2, 3, 4):
        x = current["x"] = random_tensor(rng, (7, 5, 9))
        res = fit_once(x, FitConfig(rank=rank, max_sweeps=15, restarts=1), seed=rank)
        sweeps += res.sweeps_used - 1  # every sweep after the first scores a candidate
    assert len(scored) == sweeps > 20
    for x, A, B, C, obj in scored:
        want = float(np.sum((x.values - reconstruct(KruskalTensor(A, B, C)).values) ** 2))
        assert abs(obj - want) <= 1e-9 * want


def test_extrapolated_restarts_are_bit_identical(monkeypatch):
    counts = _count_candidates(monkeypatch)
    rng = np.random.default_rng(25)
    x = random_tensor(rng, (9, 6, 11))
    cfg = FitConfig(rank=4, max_sweeps=150, restarts=3, seed=5)
    a, b = fit_once(x, cfg, seed=6), fit_once(x, cfg, seed=6)
    assert counts["accepted"] > 0 and counts["rejected"] > 0
    assert a.objective_trace == b.objective_trace and a.sweeps_used == b.sweeps_used
    for mat in ("A", "B", "C", "weights"):
        assert np.array_equal(getattr(a.factors, mat), getattr(b.factors, mat))
    serial = fit_restarts(x, cfg, jobs=1)
    parallel = fit_restarts(x, cfg, jobs=2)
    assert [r.seed for r in serial] == [r.seed for r in parallel] == [5, 6, 7]
    for s, p in zip(serial, parallel):
        assert (s.objective_trace, s.rel_error, s.converged) == \
            (p.objective_trace, p.rel_error, p.converged)
        for mat in ("A", "B", "C", "weights"):
            assert np.array_equal(getattr(s.factors, mat), getattr(p.factors, mat))


def test_failed_restart_carries_its_error(monkeypatch):
    import tempofact.als as als_mod

    real_fit_once = als_mod.fit_once

    def fail_seed_one(x, cfg, seed):
        if seed == 1:
            raise FitError("sweep 7: NNLS update stalled (forced)")
        return real_fit_once(x, cfg, seed)

    monkeypatch.setattr(als_mod, "fit_once", fail_seed_one)
    x = random_tensor(np.random.default_rng(26), (4, 4, 4))
    results = fit_restarts(x, FitConfig(rank=1, max_sweeps=10, restarts=3))
    assert isinstance(results[1], FitError)
    assert str(results[1]) == "sweep 7: NNLS update stalled (forced)"
    assert best_restart(results).seed in (0, 2)


def test_pool_has_no_more_workers_than_restarts(monkeypatch):
    # Surplus threads would sit idle; one thread runs the restarts on the
    # calling thread, with no pool.
    import tempofact.als as als_mod

    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(als_mod, "ThreadPoolExecutor", RecordingPool)
    x = random_tensor(np.random.default_rng(27), (5, 4, 6))
    cfg = FitConfig(rank=2, max_sweeps=8, seed=3)
    for restarts, jobs, want in ((2, 4, [2]), (3, 2, [2]), (1, 4, []), (3, 1, [])):
        cfg = replace(cfg, restarts=restarts)
        pools.clear()
        pooled = fit_restarts(x, cfg, jobs=jobs)
        assert pools == want
        serial = [fit_once(x, cfg, cfg.seed + k) for k in range(restarts)]
        assert [r.seed for r in pooled] == [r.seed for r in serial]
        for a, b in zip(pooled, serial):
            assert (a.objective_trace, a.rel_error, a.sweeps_used, a.converged) == \
                (b.objective_trace, b.rel_error, b.sweeps_used, b.converged)
            for mat in ("A", "B", "C", "weights"):
                assert np.array_equal(getattr(a.factors, mat), getattr(b.factors, mat))


def test_restart_error_other_than_fit_error_cancels_the_restarts_not_started(monkeypatch):
    import tempofact.als as als_mod

    real_fit_once = als_mod.fit_once
    started = []

    def first_raises(x, cfg, seed):
        started.append(seed)
        if seed == cfg.seed:
            raise ZeroDivisionError("forced")
        time.sleep(0.01)
        return real_fit_once(x, cfg, seed)

    monkeypatch.setattr(als_mod, "fit_once", first_raises)
    x = random_tensor(np.random.default_rng(28), (5, 4, 6))
    before = set(threading.enumerate())
    with pytest.raises(ZeroDivisionError, match="forced"):
        fit_restarts(x, FitConfig(rank=2, max_sweeps=8, restarts=20), jobs=2)
    assert 0 in started and len(started) < 20
    assert set(threading.enumerate()) == before


def _step_sizes(monkeypatch, candidate_wins: bool):
    """The extrapolation steps of a fit's 7 candidates, each scored below (or
    above) the sweep it follows, whatever its real misfit.

    A step is read off where the candidate lies: the least-squares ``beta``
    in ``Fe - F = beta (F - F_prev)`` over the entries ``max(., 0)`` left
    alone.  F is the sweep's three NNLS updates, recorded as they are made;
    F_prev is the candidate kept before the sweep, else the sweep before it.
    """
    import tempofact.als as als_mod

    updates, candidates = [], []
    real_update = als_mod._update_factor

    def recording_update(*args):
        factor, gram = real_update(*args)
        updates.append(factor)
        return factor, gram

    def score(cand, beta, obj, swept):
        candidates.append(cand)
        return swept * (0.5 if candidate_wins else 2.0)

    monkeypatch.setattr(als_mod, "_update_factor", recording_update)
    _on_candidates(monkeypatch, score)
    x = random_tensor(np.random.default_rng(28), (4, 3, 5))
    assert fit_once(x, FitConfig(rank=2, max_sweeps=8), seed=0).sweeps_used == 8
    swept = [updates[k:k + 3] for k in range(0, len(updates), 3)]
    steps = []
    for k, cand in enumerate(candidates, start=1):  # candidate k follows sweep k + 1
        prev = candidates[k - 2] if candidate_wins and k > 1 else swept[k - 1]
        fe, f, p = (np.concatenate([m.ravel() for m in ms]) for ms in (cand, swept[k], prev))
        kept = fe > 0
        step = (f - p)[kept]
        steps.append(float((fe - f)[kept] @ step / (step @ step)))
    return steps


def test_extrapolation_step_grows_and_shrinks_by_half_again(monkeypatch):
    # The step is uncapped: a run of accepted candidates takes it past 1.
    grown = _step_sizes(monkeypatch, candidate_wins=True)
    assert grown == pytest.approx([0.5 * 1.5**k for k in range(7)], rel=1e-9)
    shrunk = _step_sizes(monkeypatch, candidate_wins=False)
    assert shrunk == pytest.approx([0.5 / 1.5**k for k in range(7)], rel=1e-9)
