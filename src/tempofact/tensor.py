"""Dense 3-way tensors and the multilinear kernels everything else builds on.

Unfolding convention: the mode-n matricization puts mode n on the rows and
flattens the two remaining modes into columns with the earlier mode varying
fastest.  Under this convention a tensor assembled from factor matrices
A (banks), B (intervals), C (days) satisfies

    X_(1) = A (C kr B)^T,   X_(2) = B (C kr A)^T,   X_(3) = C (B kr A)^T,

where ``kr`` is the columnwise Kronecker (Khatri-Rao) product.  These
identities are exact and are enforced by the test suite.  No code here
unfolds a tensor.

:class:`DenseTensor3` is the one place outside ``io`` that reads a tensor's
values.  It offers the products the fit and the core consistency need, each
one ``np.matmul`` per bank slab ``X[i]`` (T x D): :meth:`DenseTensor3.mode3`
(``X x_3 M``), :meth:`DenseTensor3.mode3_days` (the same over some days)
and :meth:`DenseTensor3.slab_sum` (``sum_i S_i X[i]``), with ``||X||^2``
and the total mass.

No product allocates memory in proportion to the bank count N beyond its
result.  :meth:`~DenseTensor3.slab_sum` and :meth:`~DenseTensor3.mode3_days`
walk one block grid, consecutive runs of ``_BLOCK_BANKS`` slabs: the first
adds each block's per-slab products into a running k x D sum, the second
gathers one block's day columns at a time.  :meth:`~DenseTensor3.mode3`
stays one stacked ``np.matmul``, since its only allocation is its result.
No output depends on the block size: every slab's product is the same BLAS
call in a block as in the whole stack, and the running sum adds the slabs
one at a time in bank order, starting from zero, whatever the blocks.  That
is also the order of ``np.matmul(S, X).sum(axis=0)`` whenever k x D > 1;
numpy sums a single entry (k = D = 1) pairwise instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Bank slabs per block of the grid that slab_sum and mode3_days walk.  Timed
# in process at 289x40x2000 (R = 3, one BLAS thread, mode3_days over 10% of
# the days): blocks of 8 and 16 slabs took 18.6-18.8 ms per slab_sum and
# 15.0-16.5 ms per mode3_days, 32 slabs 19.2-20.2 and 16.3-17.2 ms, the
# whole stack 20.0 and 24.7 ms; at 120x20x1000 blocks of 8 to 64 slabs were
# within 10% of each other.  At 16 a block's R x D partials take 0.8 MB at
# D = 2000.
_BLOCK_BANKS = 16


def _blocks(n: int):
    """The block grid over ``n`` bank slabs: ``(lo, hi)`` of each run of
    ``_BLOCK_BANKS`` consecutive slabs, in bank order."""
    for lo in range(0, n, _BLOCK_BANKS):
        yield lo, min(lo + _BLOCK_BANKS, n)


def _check_entries(v: np.ndarray, nonfinite: str, negative: str) -> None:
    """Raise ``ValueError(nonfinite)`` or ``ValueError(negative)`` unless every
    entry of ``v`` is finite and nonnegative.

    Two reductions and no temporary array: NaN propagates into both the
    minimum and the maximum, and finite ends bound every entry.
    """
    if v.size:
        lo, hi = v.min(), v.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(nonfinite)
        if lo < 0.0:
            raise ValueError(negative)


@dataclass(frozen=True)
class DenseTensor3:
    """Nonnegative banks x intervals x days activity tensor.

    ``values`` is a read-only view of a contiguous float64 array, so
    instances can be shared freely across workers; contiguous float64 input
    is neither copied nor frozen.  The ``semantics`` tag records what an
    entry means ("amount_meur" for traded volume, "count" for trade counts)
    and travels with the exchange format.
    """

    values: np.ndarray
    semantics: str = "amount_meur"

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64).view()
        if v.ndim != 3:
            raise ValueError(f"expected a 3-way array, got ndim={v.ndim}")
        _check_entries(v, "tensor entries must be finite", "tensor entries must be nonnegative")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(self.values.shape)  # type: ignore[return-value]

    @cached_property
    def norm2(self) -> float:
        """``||X||_F^2``, computed on first use and kept: a pool's forked
        workers inherit it, so no restart reads the tensor for it."""
        return float(np.vdot(self.values, self.values))

    @property
    def mass(self) -> float:
        """Sum of all entries."""
        return float(self.values.sum())

    def mode3(self, m: np.ndarray) -> np.ndarray:
        """``X x_3 M`` for a D x k matrix ``m``: the N x T x k array whose
        entry (i, j, r) is ``sum_d X[i, j, d] M[d, r]``."""
        return np.matmul(self.values, m)

    def mode3_days(self, days: np.ndarray, m: np.ndarray) -> np.ndarray:
        """:meth:`mode3` over the day columns ``days`` only; ``m`` is len(days) x k.

        Gathers one block's columns at a time, never the whole tensor's."""
        n, t, _ = self.values.shape
        out = np.empty((n, t, m.shape[1]))
        for lo, hi in _blocks(n):
            np.matmul(self.values[lo:hi][:, :, days], m, out=out[lo:hi])
        return out

    def slab_sum(self, s: np.ndarray) -> np.ndarray:
        """``sum_i S_i X[i]`` (k x D) for an N x k x T stack ``s``.

        Adds the slab products one at a time, in bank order, from zero."""
        n, _, d = self.values.shape
        total = np.zeros((s.shape[1], d))
        part = np.empty((min(n, _BLOCK_BANKS), *total.shape))
        for lo, hi in _blocks(n):
            for product in np.matmul(s[lo:hi], self.values[lo:hi], out=part[:hi - lo]):
                total += product
        return total


@dataclass(frozen=True)
class KruskalTensor:
    """Factor-matrix representation of a rank-R nonnegative CP model, R >= 1.

    ``A`` (banks x R), ``B`` (intervals x R) and ``C`` (days x R) hold one
    component per column; ``weights`` carries per-component scales.  After
    :meth:`normalize` every factor column has unit Euclidean norm and all
    scale lives in ``weights``; :attr:`weighted_C` gives the day factors with
    the weights folded back in, which is the form used for display and for
    the core consistency diagnostic.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        mats = []
        for name in ("A", "B", "C"):
            m = np.asarray(getattr(self, name), dtype=np.float64).view()
            if m.ndim != 2:
                raise ValueError(f"factor {name} must be 2-D, got ndim={m.ndim}")
            _check_entries(m, f"factor {name} has non-finite entries",
                           f"factor {name} has negative entries")
            object.__setattr__(self, name, m)
            mats.append(m)
        r = mats[0].shape[1]
        if mats[1].shape[1] != r or mats[2].shape[1] != r:
            raise ValueError("factor matrices must share the same column count")
        if r == 0:
            raise ValueError("factor matrices need at least one column")
        w = self.weights
        w = np.ones(r) if w is None else np.asarray(w, dtype=np.float64).view()
        if w.shape != (r,):
            raise ValueError(f"weights must have shape ({r},), got {w.shape}")
        _check_entries(w, "weights must be finite", "weights must be nonnegative")
        object.__setattr__(self, "weights", w)
        for m in (*mats, w):
            m.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])

    @property
    def weighted_C(self) -> np.ndarray:
        """Day factors with the component weights folded in."""
        return self.C * self.weights

    def normalize(self) -> "KruskalTensor":
        """Rescale every factor column to unit norm, absorbing scale into weights.

        Zero columns are left as zeros and end up with weight zero.
        """
        out = []
        w = self.weights.copy()
        for m in (self.A, self.B, self.C):
            norms = np.linalg.norm(m, axis=0)
            scaled = np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)
            w = w * norms
            out.append(scaled)
        return KruskalTensor(out[0], out[1], out[2], w)

    def permute(self, order: np.ndarray) -> "KruskalTensor":
        """Reorder components; ``order`` must be a permutation of range(rank)."""
        order = np.asarray(order, dtype=int)
        if sorted(order.tolist()) != list(range(self.rank)):
            raise ValueError(f"not a permutation of 0..{self.rank - 1}: {order!r}")
        return KruskalTensor(
            self.A[:, order], self.B[:, order], self.C[:, order], self.weights[order]
        )


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product: column r of the result is kron(a_r, b_r)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def reconstruct(k: KruskalTensor, semantics: str = "amount_meur") -> DenseTensor3:
    """Assemble the dense tensor whose (i, j, k) entry is
    ``sum_r weights_r * A[i, r] * B[j, r] * C[k, r]``."""
    vals = np.einsum("r,ir,jr,kr->ijk", k.weights, k.A, k.B, k.C, optimize=True)
    return DenseTensor3(vals, semantics)
