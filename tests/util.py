"""Shared test helpers: independent oracles and component matching."""

from __future__ import annotations

import itertools
import math
from dataclasses import fields
from datetime import datetime

import numpy as np

from tempofact.ingest import Ledger
from tempofact.tensor import DenseTensor3, KruskalTensor

#: The trade a short ledger row completes: (timestamp, lender_id, borrower_id,
#: amount, proposer, maturity, lender_domestic, borrower_domestic).
TRADE = ("2008-09-15T09:10", "AAA", "BBB", 7.0, "lender", "ON", True, False)


def record_problem(amount, lender_id, borrower_id, proposer) -> str | None:
    """Why a trade with these fields breaks the ledger's row rules, or None:
    the one-row-at-a-time oracle of the parser's column masks, checking the
    rules in the order a row reports them."""
    if not amount > 0:
        return f"amount must be positive, got {amount!r}"
    if not amount < math.inf:
        return f"amount must be finite, got {amount!r}"
    if lender_id == borrower_id:
        return f"lender and borrower coincide: {lender_id!r}"
    if proposer not in ("lender", "borrower"):
        return f"proposer must be 'lender' or 'borrower', got {proposer!r}"
    return None


def ledger_of(rows) -> Ledger:
    """The Ledger of trade rows laid out like :data:`TRADE`.

    A row shorter than eight fields takes the rest from :data:`TRADE`, and
    a text stamp is parsed as ISO 8601.  Every row must pass the parser's
    rules, so a fixture holds only trades a ledger file could.
    """
    full = []
    for row in rows:
        ts, lender, borrower, amount, proposer, *rest = (*row, *TRADE[len(row):])
        if isinstance(ts, str):
            ts = datetime.fromisoformat(ts)
        problem = record_problem(amount, lender, borrower, proposer)
        if problem is not None:
            raise ValueError(problem)
        full.append((ts, lender, borrower, amount, proposer, *rest))
    return Ledger(*(list(zip(*full)) or [()] * len(TRADE)))


def ledger_rows(ledger: Ledger) -> list:
    """The trades of ``ledger`` as row tuples, the inverse of :func:`ledger_of`."""
    return list(zip(*(getattr(ledger, f.name).tolist() for f in fields(Ledger))))


def classify_role(row, bank_id: str) -> str:
    """Which of the four roles ``bank_id`` played in the trade ``row``: the
    per-trade oracle of ``analysis.bank_facts``'s role counts."""
    _, lender, borrower, _, proposer, *_ = row
    if bank_id == lender:
        return "aggressor_lender" if proposer == "borrower" else "quoter_lender"
    if bank_id == borrower:
        return "quoter_borrower" if proposer == "borrower" else "aggressor_borrower"
    raise ValueError(f"bank {bank_id!r} is not a side of this trade")


def matricize(x: DenseTensor3, mode: int) -> np.ndarray:
    """Mode-n unfolding (mode 1, 2 or 3) under ``tensor``'s convention: the
    oracle of the ALS sweep's slab products.

    Mode 1 returns an N x TD matrix, mode 2 a T x ND matrix and mode 3 a
    D x NT matrix, so ``matricize(reconstruct(K), 1)`` equals
    ``K.A @ khatri_rao(K.C, K.B).T`` up to roundoff.
    """
    a = x.values
    return np.reshape(np.moveaxis(a, mode - 1, 0), (a.shape[mode - 1], -1), order="F")


def moving_average_loop(series, window: int) -> np.ndarray:
    """Trailing mean of each point, one slice at a time: the oracle of
    ``ingest.moving_average``."""
    s = np.asarray(series, dtype=np.float64)
    out = np.empty_like(s)
    for i in range(len(s)):
        out[i] = s[max(0, i - window + 1): i + 1].mean()
    return out


def triple_sum_tensor(weights, A, B, C) -> np.ndarray:
    """Entrywise triple-sum reconstruction, the slow reference for reconstruct()."""
    n, r = A.shape
    t = B.shape[0]
    d = C.shape[0]
    out = np.zeros((n, t, d))
    for i in range(n):
        for j in range(t):
            for k in range(d):
                acc = 0.0
                for rr in range(r):
                    acc += weights[rr] * A[i, rr] * B[j, rr] * C[k, rr]
                out[i, j, k] = acc
    return out


def random_kruskal(rng, dims, rank) -> KruskalTensor:
    n, t, d = dims
    return KruskalTensor(rng.random((n, rank)), rng.random((t, rank)), rng.random((d, rank)))


def random_tensor(rng, dims, semantics="count") -> DenseTensor3:
    return DenseTensor3(rng.random(dims), semantics)


def nnls_oracle_objective(gram: np.ndarray, h: np.ndarray) -> float:
    """Exhaustive active-set search: best feasible quadratic value
    q(w) = w'Gw - 2h'w over all 2^R passive-set candidates (w=0 included)."""
    r = gram.shape[0]
    best = 0.0
    for mask in itertools.product((False, True), repeat=r):
        idx = [i for i in range(r) if mask[i]]
        if not idx:
            continue
        sub = gram[np.ix_(idx, idx)]
        try:
            w_sub = np.linalg.solve(sub, h[idx])
        except np.linalg.LinAlgError:
            continue
        if (w_sub < 0).any():
            continue
        w = np.zeros(r)
        w[idx] = w_sub
        best = min(best, float(w @ gram @ w - 2.0 * h @ w))
    return best


def nnls_objective(gram: np.ndarray, h: np.ndarray, w: np.ndarray) -> float:
    return float(w @ gram @ w - 2.0 * h @ w)


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float) - np.mean(x)
    y = np.asarray(y, dtype=float) - np.mean(y)
    denom = np.linalg.norm(x) * np.linalg.norm(y)
    return float(x @ y / denom) if denom > 0 else float("nan")


def cosine(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = np.linalg.norm(x) * np.linalg.norm(y)
    return float(x @ y / denom) if denom > 0 else float("nan")


def similarity(x, y) -> float:
    """Pearson correlation, falling back to uncentered cosine when either
    vector is (numerically) constant and correlation is undefined."""
    if np.ptp(x) < 1e-12 * max(1.0, float(np.max(np.abs(x)))) or np.ptp(y) < 1e-12 * max(
        1.0, float(np.max(np.abs(y)))
    ):
        return cosine(x, y)
    return pearson(x, y)


def best_match(score_matrix: np.ndarray):
    """Assignment of targets (rows) to components (columns) maximizing the
    total score; returns (permutation, matched scores)."""
    r = score_matrix.shape[0]
    best_perm, best_total = None, -np.inf
    for perm in itertools.permutations(range(r)):
        total = sum(score_matrix[i, perm[i]] for i in range(r))
        if total > best_total:
            best_total, best_perm = total, perm
    return best_perm, [float(score_matrix[i, best_perm[i]]) for i in range(r)]
