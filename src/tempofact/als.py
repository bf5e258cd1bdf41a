"""Rank-R nonnegative CP decomposition by alternating NNLS updates.

One sweep updates A, then B, then C, each by solving the nonnegative least
squares problem that keeps the other two factors fixed.  The normal
equations are assembled from small Gram matrices via the Hadamard identity
``(U kr V)^T (U kr V) = (U^T U) * (V^T V)``.  The right-hand sides (the
unfolded-tensor-times-Khatri-Rao products) come from two passes over the
C-ordered tensor, never unfolded into copies:

* ``Y = X x_3 C`` (N x T x R) serves both the A and the B products, since C
  does not change until the end of the sweep;
* ``sum_i (A kr B)_i^T X[i]`` gives the C product from the updated A and B.

This is the dimension-tree MTTKRP of Phan, Tichavsky & Cichocki (IEEE TSP
2013).  Each pass is one small product per bank slab ``X[i]`` (T x D), not
one product over the whole ``(N*T) x D`` view: with R columns a GEMM packs
its large operand into a buffer and then reads it only once, so a skinny
whole-tensor product pays for two trips through memory, while a slab is
packed while it is still in cache.  The C product and the correction below
walk the tensor's block grid of consecutive bank slabs
(:mod:`tempofact.tensor`), so beyond its result no pass holds more than one
block's partials or gathered columns, whatever the bank count; the block
size changes no bit of any product, so no fit depends on it.

A restart is the generator :func:`_restart`, which holds the factors, beta
and the trace but never the tensor.  Each request it yields names its
product: ``(op, *operands)``, where ``op`` is one of the
:class:`~tempofact.tensor.DenseTensor3` methods ``mode3`` (``X x_3 C``),
``slab_sum`` (with the ``(A kr B)`` slabs, for the C product) or
``mode3_days`` (some days' columns, for the correction below).
:func:`fit_once` answers it with ``op(x, *operands)``; no code in this
module reads the tensor's values.  Each sweep's misfit ``||X - Xhat||_F^2``
comes from the same products and the tensor's cached ``||X||^2``, with no
reconstruction.

Each NNLS update is warm-started from the support (``> 0`` pattern) of the
factor it replaces, which barely changes from one sweep to the next (Kim,
He & Park, J. Global Optim. 2014).  The rows of a factor share a handful
of distinct supports, and the solver factors one system per distinct
support, so most updates cost a few small factorizations and one batched
product.  The first sweep starts from the random initial factors, so a
restart remains a function of its seed alone.

From the second sweep on, each sweep is followed by an extrapolation step
(Ang & Gillis, Neural Computation 2019).  If the plain sweep took the
factors from F_prev to F, the candidate is ``Fe = max(F + beta (F -
F_prev), 0)`` for each factor.  Scoring it costs no extra pass when it is
accepted: its misfit needs ``Ye = X x_3 Ce``, which is exactly the first
pass of the next sweep, so ``||X||^2 - 2 sum(Ae * (Ye x_2 Be)) + sum(Ae^T Ae
* Be^T Be * Ce^T Ce)`` is evaluated and ``Ye`` is handed on.  A candidate
that lowers the misfit below the plain sweep's is kept and beta grows to
1.5 beta; otherwise F is kept and beta shrinks to beta / 1.5.  A rejected
candidate's pass still serves: ``X x_3`` is linear, so with ``L = C +
beta (C - C_prev)``, the candidate before clipping,

    X x_3 C = (X x_3 Ce + X x_3 min(L, 0) + beta X x_3 C_prev) / (1 + beta),

where ``X x_3 C_prev`` is the sweep's own first pass and ``min(L, 0)`` is
zero outside the days with a clipped entry, so the correction reads only
those days' columns.  From the third sweep on, every sweep makes two full
passes: its C product and its candidate's.  The derivation runs in this
direction only: dividing by 1 + beta damps the roundoff carried in ``X x_3
C_prev``, while deriving ``X x_3 Ce`` from ``X x_3 C`` would multiply it
by beta.  Beta starts at 0.5 and, as in Bro's PARAFAC line search (1998),
has no cap: capped at 1, it sat there in 59-83% of an over-factored rank's
sweeps while 95-97% of candidates were accepted.  Uncapped, the sweeps
fall by another third.
The trace is non-increasing: a plain sweep never raises the misfit and a
candidate is kept only when it lowers it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from tempofact.nnls import NnlsProblem, solve_nnls
from tempofact.tensor import DenseTensor3, KruskalTensor, khatri_rao

_INIT_MODES = ("random-uniform", "random-scaled")


class FitError(RuntimeError):
    """A decomposition could not be computed (inner solver stalled)."""


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one multi-restart CP fit."""

    rank: int
    max_sweeps: int = 500
    rel_tol: float = 1e-8
    restarts: int = 20
    seed: int = 0
    init: str = "random-scaled"

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not 0.0 < self.rel_tol < np.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.init not in _INIT_MODES:
            raise ValueError(f"init must be one of {_INIT_MODES}, got {self.init!r}")


@dataclass(frozen=True)
class FitResult:
    """A converged (or stopped) decomposition with its diagnostics."""

    factors: KruskalTensor
    rel_error: float
    sweeps_used: int
    converged: bool
    objective_trace: tuple[float, ...]
    seed: int


def _update_factor(
    proj: np.ndarray, gram_u: np.ndarray, gram_v: np.ndarray, passive: np.ndarray
):
    """NNLS update of one factor from its MTTKRP ``proj`` and the other two Grams.

    ``passive`` is the ``> 0`` pattern of the factor being replaced; the
    solve starts from it.
    """
    gram = gram_u * gram_v
    gram = 0.5 * (gram + gram.T)
    # In proj's units, whatever the tensor's.  W = 0 solves a zero proj
    # exactly, so the smallest positive tolerance serves there.
    tol = 1e-8 * float(np.abs(proj).max()) or np.finfo(float).smallest_subnormal
    sol = solve_nnls(NnlsProblem(gram, proj.T), tol=tol, passive=passive)
    if not sol.converged:
        raise FitError(
            f"NNLS update stalled (kkt residual {sol.kkt_residual:.3e} after "
            f"{sol.iterations} exchange rounds)"
        )
    return sol.W, gram


def _misfit(norm2: float, inner: float, xhat2: float) -> float:
    """``||X - Xhat||^2`` from ``||X||^2``, ``<X, Xhat>`` and ``||Xhat||^2``."""
    return max(norm2 - 2.0 * inner + xhat2, 0.0)


def _extrapolate(factors, prev, beta: float) -> list:
    """The candidate ``max(F + beta (F - F_prev), 0)`` of each factor."""
    return [np.maximum(f + beta * (f - p), 0.0) for f, p in zip(factors, prev)]


def _initial_factors(dims, norm2: float, rank: int, seed: int, init: str):
    rng = np.random.default_rng(seed)
    n, t, d = dims
    A = rng.random((n, rank))
    B = rng.random((t, rank))
    C = rng.random((d, rank))
    if init == "random-scaled":
        # Match the initial reconstruction norm to the data norm.
        g = (A.T @ A) * (B.T @ B) * (C.T @ C)
        init_norm = float(np.sqrt(max(g.sum(), 0.0)))
        scale = (np.sqrt(norm2) / init_norm) ** (1.0 / 3.0) if init_norm > 0 else 0.0
        A *= scale
        B *= scale
        C *= scale
    return A, B, C


def _restart(dims, norm2: float, cfg: FitConfig, seed: int):
    """One restart on a tensor of ``dims`` with ``norm2 = ||X||^2``.

    Yields ``(mode3, C)`` for ``X x_3 C`` (N x T x R), ``(slab_sum, S)`` with
    the N x R x T stack of ``(A kr B)`` slabs, slab i being ``(B * A[i])^T``,
    for the C update's ``sum_i (A kr B)_i^T X[i]`` (R x D), or, after a
    rejected candidate, ``(mode3_days, days, M)`` with day indices and a
    len(days) x R matrix; is sent each product and returns the FitResult.
    """
    A, B, C = _initial_factors(dims, norm2, cfg.rank, seed, cfg.init)
    y = None  # X x_3 C, when the last sweep left it
    beta = 0.5
    trace: list[float] = []
    converged = False
    for sweep_no in range(1, cfg.max_sweeps + 1):
        if y is None:
            y = yield DenseTensor3.mode3, C
        prev = A, B, C
        try:
            gram_c = C.T @ C
            A, _ = _update_factor(np.einsum("ijr,jr->ir", y, B), gram_c, B.T @ B, A > 0)
            gram_a = A.T @ A
            B, _ = _update_factor(np.einsum("ijr,ir->jr", y, A), gram_c, gram_a, B > 0)
            slabs = khatri_rao(A, B).reshape(len(A), len(B), -1).transpose(0, 2, 1)
            proj = (yield DenseTensor3.slab_sum, slabs).T
            C, gram = _update_factor(proj, B.T @ B, gram_a, C > 0)
        except FitError as err:
            raise FitError(f"sweep {sweep_no}: {err}") from err
        obj = _misfit(norm2, float((proj * C).sum()), float(((C.T @ C) * gram).sum()))
        y_sweep, y = y, None
        if sweep_no > 1:  # the candidate's first pass is the next sweep's
            ae, be, ce = cand = _extrapolate((A, B, C), prev, beta)
            y_cand = yield DenseTensor3.mode3, ce
            obj_cand = _misfit(norm2, float((ae * np.einsum("ijr,jr->ir", y_cand, be)).sum()),
                               float(((ae.T @ ae) * (be.T @ be) * (ce.T @ ce)).sum()))
            if obj_cand < obj:
                (A, B, C), y, obj = cand, y_cand, obj_cand
                beta *= 1.5
            else:  # derive X x_3 C in place, as in the module docstring
                lift = C + beta * (C - prev[2])
                days = np.flatnonzero((lift < 0.0).any(axis=1))
                y_cand += yield DenseTensor3.mode3_days, days, np.minimum(lift[days], 0.0)
                y_cand += np.multiply(y_sweep, beta, out=y_sweep)
                y_cand /= 1.0 + beta
                y = y_cand
                beta /= 1.5
        trace.append(obj)
        if len(trace) > 1 and abs(obj - trace[-2]) / max(trace[-2], 1e-300) < cfg.rel_tol:
            converged = True
            break
    rel = float(np.sqrt(trace[-1] / norm2)) if norm2 > 0 else 0.0
    return FitResult(KruskalTensor(A, B, C).normalize(), rel, len(trace), converged,
                     tuple(trace), seed)


def fit_once(x: DenseTensor3, cfg: FitConfig, seed: int) -> FitResult:
    """Fit one decomposition from the random start derived from ``seed``.

    Sweeps run until the relative change of the squared misfit drops below
    ``cfg.rel_tol`` or ``cfg.max_sweeps`` is reached; each sweep after the
    first is followed by the extrapolation step of the module docstring.
    Deterministic for a fixed (tensor, config, seed).  Drives :func:`_restart`
    and answers each of its requests ``(op, *operands)`` with ``op(x,
    *operands)``.
    """
    if 0 in x.dims:
        raise ValueError("cannot fit an empty tensor")
    restart = _restart(x.dims, x.norm2, cfg, seed)
    product = None
    try:
        while True:
            op, *operands = restart.send(product)
            product = op(x, *operands)
    except StopIteration as done:
        return done.value


def fit_restarts(x: DenseTensor3, cfg: FitConfig, jobs: int = 1) -> list:
    """Run ``cfg.restarts`` independent fits; restart k uses seed ``cfg.seed + k``.

    Returns one entry per restart, in restart order: a FitResult, or the
    FitError that ended that restart (its message says why).  The list is
    identical for any ``jobs`` value.  The pool has ``min(jobs, restarts)``
    workers, since a forked pool starts all of them at once, and one worker
    means no pool.  The tensor reaches each worker process once, through the
    pool initializer, and each task carries only its seed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [cfg.seed + k for k in range(cfg.restarts)]
    workers = min(jobs, len(seeds))
    if workers == 1:
        return [_try_fit(x, cfg, s) for s in seeds]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(x,)
    ) as pool:
        return list(pool.map(_worker_fit, [cfg] * len(seeds), seeds))


def _try_fit(x: DenseTensor3, cfg: FitConfig, seed: int):
    try:
        return fit_once(x, cfg, seed)
    except FitError as err:
        return err


# Set by the pool initializer inside each worker process, never in the parent.
_worker_tensor: DenseTensor3 | None = None


def _init_worker(x: DenseTensor3) -> None:
    global _worker_tensor
    _worker_tensor = x


def _worker_fit(cfg: FitConfig, seed: int):
    return _try_fit(_worker_tensor, cfg, seed)


def best_restart(results: list) -> FitResult:
    """The restart with the smallest relative error; ties go to the smaller seed.

    ``results`` is the list :func:`fit_restarts` returns; raises
    :class:`FitError` when every restart failed.
    """
    ok = [r for r in results if isinstance(r, FitResult)]
    if not ok:
        raise FitError(f"all {len(results)} restarts failed")
    return min(ok, key=lambda r: (r.rel_error, r.seed))


def fit_best(x: DenseTensor3, cfg: FitConfig, jobs: int = 1) -> FitResult:
    """Best-of-restarts fit, chosen by :func:`best_restart`.

    The outcome does not depend on the degree of parallelism.
    """
    return best_restart(fit_restarts(x, cfg, jobs))
