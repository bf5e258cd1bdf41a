"""Nonnegativity-constrained least squares by block principal pivoting.

Solves ``min_{W >= 0} ||H W^T - Y^T||_F^2`` for many right-hand sides at
once, given only the normal-equation products ``gram = H^T H`` (R x R) and
``crossterm = H^T Y^T`` (R x m).  Each of the m columns is an independent
R-variable problem; the solver iterates all of them together.  Each round
pads every active column's passive-set system to R x R (the passive block
of ``gram``, the identity on inactive variables, a zero right-hand side
there) and solves the whole stack with one batched ``numpy.linalg`` call, so
no column's result depends on which other columns share its batch.

The pivoting rule is full block exchange with an anti-cycling safeguard:
a column that goes three consecutive exchanges without reducing its
infeasibility count falls back to flipping only its highest-index
infeasible variable until the count drops again.

A solve may be warm-started from an initial passive set, such as the
support of the previous iterate in an alternating fit.  That set is solved
once before the first exchange; ``iterations`` counts exchange rounds only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NnlsProblem:
    """Normal-equation form of a batched NNLS problem.

    ``gram`` must be symmetric positive semidefinite; ``ridge`` is added to
    its diagonal only when a principal submatrix turns out not to be
    positive definite (zero factor columns do this transiently during ALS).
    A ridge of 0 selects the default ``1e-12 * trace(gram) / R``.
    """

    gram: np.ndarray
    crossterm: np.ndarray
    ridge: float = 0.0

    def __post_init__(self) -> None:
        g = np.asarray(self.gram, dtype=np.float64)
        c = np.asarray(self.crossterm, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"gram must be square, got shape {g.shape}")
        if c.ndim != 2 or c.shape[0] != g.shape[0]:
            raise ValueError(
                f"crossterm shape {c.shape} inconsistent with gram shape {g.shape}"
            )
        scale = max(1.0, float(np.abs(g).max())) if g.size else 1.0
        if g.size and float(np.abs(g - g.T).max()) > 1e-12 * scale:
            raise ValueError("gram matrix is not symmetric")
        if self.ridge < 0.0:
            raise ValueError("ridge must be nonnegative")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "crossterm", c)

    @property
    def n_vars(self) -> int:
        return self.gram.shape[0]

    @property
    def n_rhs(self) -> int:
        return self.crossterm.shape[1]


@dataclass(frozen=True)
class NnlsSolution:
    """Solution bundle: W is m x R with one solved column of the problem per row."""

    W: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool


def kkt_residual(gram: np.ndarray, crossterm: np.ndarray, W: np.ndarray) -> float:
    """Worst-case KKT violation of W for the given normal equations.

    For each entry, the gradient ``g = gram @ w - h`` must satisfy
    ``|g| <= tol`` where w > 0 and ``g >= -tol`` where w == 0; the returned
    value is the smallest tol for which that holds.
    """
    if W.size == 0:
        return 0.0
    g = gram @ W.T - crossterm
    pos = W.T > 0
    res = 0.0
    if pos.any():
        res = float(np.abs(g[pos]).max())
    if (~pos).any():
        res = max(res, float(np.maximum(-g[~pos], 0.0).max()))
    return res


def solve_nnls(
    problem: NnlsProblem,
    tol: float = 1e-8,
    max_iter: int | None = None,
    passive: np.ndarray | None = None,
) -> NnlsSolution:
    """Solve every column of ``problem`` to KKT tolerance ``tol``.

    ``passive`` is an optional m x R boolean initial passive set, laid out
    like W (for instance the ``W > 0`` pattern of a previous solution); the
    default starts every column from the empty set.  ``max_iter`` bounds
    the number of exchange rounds any single column may take (default
    ``5 * R``); the solve of the initial set is not an exchange round.
    Columns that exhaust the budget are clamped to their best iterate and
    the solution is flagged unconverged; the reported KKT residual always
    describes the returned W.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    gram, ct = problem.gram, problem.crossterm
    r, m = problem.n_vars, problem.n_rhs
    if passive is not None:
        passive = np.asarray(passive, dtype=bool)
        if passive.shape != (m, r):
            raise ValueError(f"passive set shape {passive.shape} must be {(m, r)}")
    if max_iter is None:
        max_iter = 5 * r
    if r == 0 or m == 0:
        return NnlsSolution(np.zeros((m, r)), 0.0, 0, True)

    # Pivot-feasibility threshold: well above roundoff, far below signal.
    scale = max(1.0, float(np.abs(gram).max()), float(np.abs(ct).max()) if ct.size else 0.0)
    eps = 1e-12 * scale

    X = np.zeros((r, m))
    Y = -ct.copy()
    F = np.zeros((r, m), dtype=bool)
    if passive is not None and passive.any():
        F[:] = passive.T
        _solve_passive(gram, ct, F, X, Y, np.arange(m), problem.ridge)
    alpha = np.full(m, 3, dtype=int)
    best_inf = np.full(m, r + 1, dtype=int)
    col_iters = np.zeros(m, dtype=int)
    passes = 0

    while True:
        infeas = (F & (X < -eps)) | (~F & (Y < -eps))
        n_inf = infeas.sum(axis=0)
        active = (n_inf > 0) & (col_iters < max_iter)
        if not active.any():
            break
        cols = np.nonzero(active)[0]
        passes += 1

        improved = n_inf[cols] < best_inf[cols]
        best_inf[cols[improved]] = n_inf[cols[improved]]
        alpha[cols[improved]] = 3
        stuck = cols[~improved]
        alpha[stuck] -= 1

        full_cols = cols[alpha[cols] >= 0]
        single_cols = cols[alpha[cols] < 0]
        if full_cols.size:
            F[:, full_cols] ^= infeas[:, full_cols]
        if single_cols.size:
            # Highest-index infeasible variable of each stuck column.
            rev = infeas[::-1, single_cols]
            top = r - 1 - rev.argmax(axis=0)
            F[top, single_cols] = ~F[top, single_cols]

        col_iters[cols] += 1
        _solve_passive(gram, ct, F, X, Y, cols, problem.ridge)

    all_feasible = not bool((n_inf > 0).any())
    W = np.maximum(X, 0.0).T
    res = kkt_residual(gram, ct, W)
    return NnlsSolution(W, res, passes, all_feasible and res <= tol)


def _solve_passive(
    gram: np.ndarray,
    ct: np.ndarray,
    F: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    cols: np.ndarray,
    ridge: float,
) -> None:
    """Re-solve the passive-set least squares for the given columns in place.

    Column j's system is padded to R x R: ``gram`` where both variables are
    passive, the identity on inactive variables and zeros between the two,
    with the right-hand side zeroed on inactive variables.  Inactive
    entries of X are set to 0 and passive entries of the gradient Y to 0.
    """
    r = gram.shape[0]
    passive = F[:, cols].T  # k x R
    systems = np.where(passive[:, :, None] & passive[:, None, :], gram, 0.0)
    diag = np.arange(r)
    systems[:, diag, diag] = np.where(passive, gram[diag, diag], 1.0)
    rhs = np.where(passive, ct[:, cols].T, 0.0)[:, :, None]
    try:
        np.linalg.cholesky(systems)  # the positive-definiteness test
        sol = np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        sol = np.stack([_solve_one(s, b, gram, ridge) for s, b in zip(systems, rhs)])
    x = np.where(passive.T, sol[:, :, 0].T, 0.0)
    X[:, cols] = x
    y = gram @ x - ct[:, cols]
    y[passive.T] = 0.0
    Y[:, cols] = y


def _solve_one(system: np.ndarray, rhs: np.ndarray, gram: np.ndarray, ridge: float):
    """One padded system; a ridge is added to it when it is not positive definite."""
    r = gram.shape[0]
    if ridge <= 0.0:
        ridge = 1e-12 * float(np.trace(gram)) / r
    damped = system + ridge * np.eye(r)
    for candidate in (system, damped):
        try:
            np.linalg.cholesky(candidate)
            return np.linalg.solve(candidate, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(damped, rhs, rcond=None)[0]
