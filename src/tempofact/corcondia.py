"""Core consistency diagnostic and rank selection scan.

Given fitted CP factors, the least-squares Tucker core G (an R x R x R
tensor with the factors held fixed) is computed via factor pseudoinverses.
If the CP model explains the data, G collapses to the unit superdiagonal;
interactions between components push mass off the superdiagonal.  The core
consistency score

    cc = 100 * (1 - sum((G - I_sd)^2) / R)

is 100 for a perfect CP structure and can be arbitrarily negative.  A rank
scan fits every candidate rank with multiple restarts, averages the score
across restarts, and selects the largest rank whose mean score clears a
threshold.

Before the core is computed, component weights are folded into the day
factors so that the comparison target really is the *unit* superdiagonal;
this makes the score invariant to the scale indeterminacy of CP factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from tempofact.als import FitConfig, FitResult, fit_restarts
from tempofact.analysis import mean_ci95
from tempofact.tensor import DenseTensor3, KruskalTensor

_COND_LIMIT = 1e12


class DegenerateFactorError(ValueError):
    """A factor matrix is numerically rank deficient, so no core is defined."""

    def __init__(self, factor: str, cond: float):
        self.factor = factor
        self.cond = cond
        super().__init__(
            f"factor {factor} is numerically rank deficient (condition number "
            f"{cond:.3e} > {_COND_LIMIT:.0e})"
        )


def tucker_core(x: DenseTensor3, k: KruskalTensor) -> np.ndarray:
    """Least-squares R x R x R core of ``x`` for the fixed factors of ``k``
    (entries may be negative).

    Computed as the tensor contracted with the Moore-Penrose pseudoinverse
    of each (weight-folded) factor, which solves the core least squares
    problem without materializing any Kronecker product.  The day mode is
    contracted first, one product per bank slab, so the tensor is read
    once; the bank and interval contractions then act on N x T x R.  Raises
    :class:`DegenerateFactorError` when a factor's condition number exceeds
    1e12 (a zeroed component at an over-specified rank does this); a factor
    with more columns than rows has condition number inf.
    """
    if k.dims != x.dims:
        raise ValueError(f"factor dims {k.dims} do not match tensor dims {x.dims}")
    kn = k.normalize()
    pinvs = []
    for name, mat in (("A", kn.A), ("B", kn.B), ("C", kn.weighted_C)):
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        cond = np.inf if len(s) < mat.shape[1] or s[-1] == 0.0 else float(s[0] / s[-1])
        if cond > _COND_LIMIT:
            raise DegenerateFactorError(name, cond)
        # No small singular value is left to cut: past the check each exceeds
        # s[0] / 1e12.  Same order of operations as np.linalg.pinv.
        pinvs.append(vt.T @ ((1.0 / s)[:, None] * u.T))
    ap, bp, cp = pinvs
    n, t, _ = x.dims
    r = k.rank
    y = x.mode3(cp.T)  # the one pass over the tensor, N x T x R
    g = (ap @ y.reshape(n, t * r)).reshape(r, t, r)
    return np.matmul(bp, g)


def core_consistency(core: np.ndarray) -> float:
    """Score how close an R x R x R core is to the unit superdiagonal (100 = exact)."""
    r = core.shape[0]
    ident = np.zeros((r, r, r))
    idx = np.arange(r)
    ident[idx, idx, idx] = 1.0
    return float(100.0 * (1.0 - ((core - ident) ** 2).sum() / r))


@dataclass(frozen=True)
class RankScanRecord:
    """Per-rank scan outcome; ``None`` entries mark failed restarts.

    ``failures`` holds a ``(restart index, reason)`` pair per failed restart,
    so ``len(failures)`` is the number of failed restarts.
    """

    rank: int
    cc_values: tuple
    rel_errors: tuple
    cc_mean: float | None
    cc_ci95: tuple | None
    failures: tuple = ()


@dataclass(frozen=True)
class RankScanReport:
    """Scan over candidate ranks with the threshold-rule selection applied."""

    records: tuple
    selected_rank: int | None
    l_cc: float
    restarts: int
    seed: int


def rank_scan(
    x: DenseTensor3, r_max: int, l_cc: float, cfg: FitConfig, jobs: int = 1
) -> RankScanReport:
    """Fit ranks 1..r_max with ``cfg.restarts`` restarts each and score them.

    Every restart contributes its own core consistency value; the per-rank
    mean (with a Student-t 95% interval) drives the selection rule: the
    selected rank is the largest one whose mean score exceeds ``l_cc``.
    Restarts whose fit fails or whose core is degenerate are recorded as
    ``None``, with the error's message as the reason, and excluded from the
    mean; a rank fails only if every restart does.  Deterministic for fixed
    (tensor, cfg); independent of ``jobs``.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if not np.isfinite(l_cc):
        raise ValueError(f"l_cc must be finite, got {l_cc!r}")
    records = []
    for rank in range(1, r_max + 1):
        fits = fit_restarts(x, replace(cfg, rank=rank), jobs)
        ccs: list = []
        rels: list = []
        failures: list = []
        for k, fit in enumerate(fits):
            if not isinstance(fit, FitResult):
                ccs.append(None)
                rels.append(None)
                failures.append((k, str(fit)))
                continue
            rels.append(fit.rel_error)
            try:
                ccs.append(core_consistency(tucker_core(x, fit.factors)))
            except DegenerateFactorError as err:
                ccs.append(None)
                failures.append((k, str(err)))
        ok = [c for c in ccs if c is not None]
        mean, ci = None, None
        if ok:
            mean, half = (float(v) for v in mean_ci95(ok))
            ci = (mean - half, mean + half)
        records.append(RankScanRecord(rank, tuple(ccs), tuple(rels), mean, ci, tuple(failures)))
    passing = [rec.rank for rec in records if rec.cc_mean is not None and rec.cc_mean > l_cc]
    selected = max(passing) if passing else None
    return RankScanReport(tuple(records), selected, float(l_cc), cfg.restarts, cfg.seed)
