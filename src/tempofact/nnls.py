"""Nonnegativity-constrained least squares by block principal pivoting.

Solves ``min_{W >= 0} ||H W^T - Y^T||_F^2`` for many right-hand sides at
once, given only the normal-equation products ``gram = H^T H`` (R x R) and
``crossterm = H^T Y^T`` (R x m).  Each of the m columns is an independent
R-variable problem; the solver iterates all of them together (Kim & Park,
SIAM J. Sci. Comput. 2011).

Columns that share a passive set share its least-squares system, and the
columns of one solve share few distinct sets: at most ``min(2^R, k)`` of k
columns, and a handful in an alternating fit.  So each round groups its
columns by passive pattern (Van Benthem & Keenan, J. Chemometrics 2004),
pads each distinct pattern's system to R x R (the passive block of
``gram``, the identity on inactive variables), tests those few systems for
positive definiteness and inverts them, one batched ``numpy.linalg`` call
each (a system counts as positive definite only if both calls accept it),
then applies every inverse to all columns of its pattern in one
gather-and-product.  The product runs entry by entry in a fixed order, and
a pattern whose system is not positive definite is solved column by column
with a ridge, so a column's passive-set solution depends only on
``gram``, its own pattern and its own right-hand side, never on which other
columns share its batch.  The pivot threshold that decides which variables
are infeasible is also taken per column, so a column's whole pivoting
sequence, and its W, are the same in any batch.

A variable is infeasible when it is passive with ``X < 0`` (primal) or
inactive with gradient ``Y < 0`` (dual), each below a small threshold.  The
two live in different units: Y is in crossterm units and X in W units,
which are smaller by about ``max|gram|``.  So the dual threshold is
``eps = 1e-12 * max(max|gram|, max|crossterm_j|)`` and the primal one is
``eps / max|gram|`` (``eps`` itself when the Gram is zero).  A single
threshold in crossterm units would pass a passive X of, say, -4e-7 as
feasible when ``max|gram|`` is 6e5; the final ``max(X, 0)`` would then clip
it and leave a gradient error of ``gram[:, k] * 4e-7`` on the other
variables, far above the KKT tolerance.  No threshold has an absolute
floor: scaling the data by a power of two scales every threshold with it,
so the pivoting sequence does not depend on the data's units.

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

# Exchange rounds a column may take, per variable.
_ROUNDS_PER_VARIABLE = 5


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
    g = gram @ W.T - crossterm
    return float(np.where(W.T > 0, np.abs(g), -g).max(initial=0.0))


def solve_nnls(
    gram: np.ndarray,
    crossterm: np.ndarray,
    tol: float = 1e-8,
    passive: np.ndarray | None = None,
) -> NnlsSolution:
    """Solve every column of ``crossterm`` to KKT tolerance ``tol``.

    ``gram`` (R x R) must be symmetric positive semidefinite and
    ``crossterm`` is R x m.  When a passive-set system turns out not to be
    positive definite (zero factor columns do this transiently during ALS),
    or Cholesky accepts it but LU finds it singular, that column is solved
    with the ridge ``1e-12 * trace(gram) / R`` added to its diagonal.

    ``passive`` is an optional m x R boolean initial passive set, laid out
    like W (for instance the ``W > 0`` pattern of a previous solution); the
    default starts every column from the empty set.  A column may take
    ``_ROUNDS_PER_VARIABLE * R`` exchange rounds; the solve of the initial
    set is not one.  Columns that exhaust the budget are clamped to their
    best iterate and the solution is flagged unconverged; the reported KKT
    residual always describes the returned W.
    """
    gram = np.asarray(gram, dtype=np.float64)
    ct = np.asarray(crossterm, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram must be square, got shape {gram.shape}")
    if ct.ndim != 2 or ct.shape[0] != gram.shape[0]:
        raise ValueError(f"crossterm shape {ct.shape} inconsistent with gram shape {gram.shape}")
    if gram.size and float(np.abs(gram - gram.T).max()) > 1e-12 * float(np.abs(gram).max()):
        raise ValueError("gram matrix is not symmetric")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    r, m = ct.shape
    if passive is not None:
        passive = np.asarray(passive, dtype=bool)
        if passive.shape != (m, r):
            raise ValueError(f"passive set shape {passive.shape} must be {(m, r)}")
    if r == 0 or m == 0:
        return NnlsSolution(np.zeros((m, r)), 0.0, 0, True)

    # Pivot-feasibility thresholds of each column: well above roundoff, far
    # below signal, and a function of that column's own right-hand side.
    # ``eps`` is in crossterm units and tests the gradient Y; the primal X is
    # in W units, a factor ``max|gram|`` smaller, and is tested against
    # ``eps_x``.  A zero Gram has no W units: X is then tested against eps.
    g_scale = float(np.abs(gram).max())
    eps = 1e-12 * np.maximum(g_scale, np.abs(ct).max(axis=0))
    eps_x = eps / g_scale if g_scale > 0.0 else eps

    F = np.zeros((r, m), dtype=bool) if passive is None else passive.T.copy()
    X, Y = _solve_passive(gram, ct, F)
    alpha = np.full(m, 3, dtype=int)
    best_inf = np.full(m, r + 1, dtype=int)
    col_iters = np.zeros(m, dtype=int)
    passes = 0

    while True:
        # X is 0 off the passive set and Y is 0 on it.
        infeas = (X < -eps_x) | (Y < -eps)
        n_inf = infeas.sum(axis=0)
        infeasible = n_inf > 0
        active = infeasible & (col_iters < _ROUNDS_PER_VARIABLE * r)
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
        X[:, cols], Y[:, cols] = _solve_passive(gram, ct[:, cols], F[:, cols])

    all_feasible = not infeasible.any()
    W = np.maximum(X, 0.0).T
    res = kkt_residual(gram, ct, W)
    return NnlsSolution(W, res, passes, all_feasible and res <= tol)


def _solve_passive(gram: np.ndarray, ct: np.ndarray, passive: np.ndarray):
    """Passive-set least squares of each column of ``ct``: returns X and the gradient Y.

    Column j's system is padded to R x R: ``gram`` where both variables are
    in ``passive[:, j]``, the identity on inactive variables and zeros
    between the two, with the right-hand side zeroed on inactive variables.
    Inactive entries of X are 0, and so are passive entries of Y.
    """
    r = gram.shape[0]
    columns = passive.T  # k x R
    # Bit codes in the narrowest type that holds them (Python ints past 64 bits).
    weights = np.array([1 << i for i in range(r)], dtype=np.min_scalar_type((1 << r) - 1))
    _, first, which = np.unique(columns @ weights, return_index=True, return_inverse=True)
    patterns = columns[first]  # p x R, p <= min(2^R, k)
    systems = np.where(patterns[:, :, None] & patterns[:, None, :], gram, np.eye(r))
    try:
        np.linalg.cholesky(systems)  # the positive-definiteness test
        inverses, ridged = np.linalg.inv(systems), ()
    except np.linalg.LinAlgError:
        definite = np.array([_positive_definite(s) for s in systems])
        inverses = np.linalg.inv(np.where(definite[:, None, None], systems, np.eye(r)))
        ridged = np.flatnonzero(~definite[which])

    rhs = np.where(columns, ct.T, 0.0)  # k x R
    gathered = inverses[which]
    sol = gathered[:, :, 0] * rhs[:, :1]
    for b in range(1, r):  # entrywise in a fixed order, whatever the batch
        sol += gathered[:, :, b] * rhs[:, b : b + 1]
    for j in ridged:
        sol[j] = _solve_one(systems[which[j]], rhs[j], gram)
    x = np.where(passive, sol.T, 0.0)
    y = gram @ x - ct
    y[passive] = 0.0
    return x, y


def _positive_definite(system: np.ndarray) -> bool:
    """Whether Cholesky factors ``system`` and LU inverts it (near roundoff, only one may)."""
    try:
        np.linalg.cholesky(system)
        np.linalg.inv(system)
    except np.linalg.LinAlgError:
        return False
    return True


def _solve_one(system: np.ndarray, rhs: np.ndarray, gram: np.ndarray):
    """One column whose padded system is not positive definite, solved with a ridge."""
    r = gram.shape[0]
    ridge = 1e-12 * float(np.trace(gram)) / r
    damped = system + ridge * np.eye(r)
    if _positive_definite(damped):
        return np.linalg.solve(damped, rhs)
    return np.linalg.lstsq(damped, rhs, rcond=None)[0]
