"""Interpretive post-processing of a fitted decomposition.

Turns factor matrices into the quantities an analyst actually looks at:
a canonical component ordering, per-day activity shares, the top-decile
bank set of each component, overlaps between those sets, per-bank daily
membership levels, and transaction-role / nationality statistics of the
affiliated banks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from tempofact.ingest import Ledger, TensorIndex
from tempofact.tensor import KruskalTensor

# Length of the morning window that orders the components, in minutes.
_MORNING_MINUTES = 120

#: Transaction roles, crossing trade side with which side posted the quote.
#: The aggressor accepted a posted quote; the quoter posted it.
ROLES = ("aggressor_lender", "quoter_borrower", "aggressor_borrower", "quoter_lender")


def morning_window(delta: int) -> np.ndarray:
    """Interval indices covering the trading day's first ``_MORNING_MINUTES`` minutes."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return np.arange(math.ceil(_MORNING_MINUTES / delta))


def order_components(k: KruskalTensor, window) -> np.ndarray:
    """Permutation sorting components by early-day activity, ascending.

    The sort key is the sum of the unit-normalized intraday factor over the
    given interval indices, so the ordering is invariant to any positive
    rescaling of factor columns.  Ties keep their original relative order.
    """
    window = np.asarray(window, dtype=int)
    kn = k.normalize()
    sums = kn.B[window, :].sum(axis=0)
    return np.argsort(sums, kind="stable")


def component_share(k: KruskalTensor) -> np.ndarray:
    """Per-day share of each component in total activity (rows sum to 1).

    Shares divide the weight-scaled day factors by their daily total; days
    with zero total activity get NaN rows rather than an arbitrary split.
    """
    cw = k.normalize().weighted_C
    totals = cw.sum(axis=1)
    return np.divide(
        cw, totals[:, None], out=np.full_like(cw, np.nan), where=totals[:, None] > 0
    )


def _percentile_threshold(values: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile value (the floor(p*n/100)-th order statistic)."""
    n = len(values)
    rank = math.floor(percentile * n / 100.0 + 1e-9)
    rank = min(max(rank, 0), n - 1)
    return float(np.sort(values)[rank])


def affiliate_banks(k: KruskalTensor, percentile: float) -> list:
    """Banks loading at or above the per-component percentile threshold.

    With distinct loadings this is the top ``(100 - percentile)%`` of banks
    (29 of 289 at 90); ties at the threshold are all included.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    a = k.A
    members = []
    for r in range(k.rank):
        threshold = _percentile_threshold(a[:, r], percentile)
        members.append(np.nonzero(a[:, r] >= threshold)[0])
    return members


def jaccard_overlap(members_a, members_b) -> float:
    """|intersection| / |union| of two bank sets; empty union counts as 0."""
    sa, sb = set(np.asarray(members_a).tolist()), set(np.asarray(members_b).tolist())
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def jaccard_matrix(memberships) -> np.ndarray:
    out = np.empty((len(memberships), len(memberships)))
    for i, mi in enumerate(memberships):
        for j, mj in enumerate(memberships):
            out[i, j] = jaccard_overlap(mi, mj)
    return out


def membership_level(k: KruskalTensor, r: int) -> np.ndarray:
    """Bank-by-day intensity within component ``r``: the outer product of the
    bank loadings with the weight-scaled day factor."""
    kn = k.normalize()
    return np.outer(kn.A[:, r], kn.weighted_C[:, r])


def membership_mean(k: KruskalTensor, r: int, members) -> np.ndarray:
    """Average membership level of the given banks on each day."""
    members = np.asarray(members, dtype=int)
    if members.size == 0:
        raise ValueError("members must be nonempty")
    return membership_level(k, r)[members].mean(axis=0)


@dataclass(frozen=True, eq=False)
class BankFacts:
    """What the role and nationality statistics take from a ledger, per index bank.

    ``role_counts`` is (banks, 4) int64 in :data:`ROLES` order, ``domestic``
    each bank's first-seen domestic flag (False for a bank without trades)
    and ``conflicts`` the sorted ids of the banks whose flags disagree.
    """

    bank_ids: tuple
    role_counts: np.ndarray
    domestic: np.ndarray
    conflicts: tuple

    def __post_init__(self) -> None:
        n = len(self.bank_ids)
        if np.shape(self.role_counts) != (n, len(ROLES)) or np.shape(self.domestic) != (n,):
            raise ValueError(f"bank facts need {n} rows of {len(ROLES)} role counts and "
                             f"{n} domestic flags")


def bank_facts(ledger: Ledger, index: TensorIndex) -> BankFacts:
    """Role counts, domestic flags and flag conflicts of the index banks,
    counted over the trades of ``ledger`` whose two sides are index banks.

    Each side of a trade gets one role: the lender aggresses when the
    borrower posted the quote and quotes when it posted the quote itself,
    and the borrower the other way round.  Each side also carries one
    domestic flag; a bank's flag is its first occurrence in ledger order,
    the lender before the borrower, and a bank's flags conflict when some
    side of its trades is flagged domestic and some side is not.
    """
    labels, lender, borrower = ledger.bank_codes
    pos = {bank: i for i, bank in enumerate(index.bank_ids)}
    at = np.array([pos.get(bank, -1) for bank in labels], dtype=np.intp)
    kept = (at[lender] >= 0) & (at[borrower] >= 0)
    lender, borrower = at[lender[kept]], at[borrower[kept]]
    by_borrower = ledger.proposer[kept] == "borrower"
    lender_flag, borrower_flag = ledger.lender_domestic[kept], ledger.borrower_domestic[kept]
    n, m = len(index.bank_ids), lender.size
    # Codes bank * 4 + role, in ROLES order: the lender aggresses when the
    # borrower quoted, the borrower aggresses when the lender quoted.
    roles = (np.bincount(lender * 4 + np.where(by_borrower, 0, 3), minlength=4 * n)
             + np.bincount(borrower * 4 + np.where(by_borrower, 1, 2), minlength=4 * n))
    roles = roles.reshape(n, 4)
    # Each bank's first trade as lender and as borrower (m when it has none).
    first_lent, first_borrowed = np.full(n, m), np.full(n, m)
    np.minimum.at(first_lent, lender, np.arange(m))
    np.minimum.at(first_borrowed, borrower, np.arange(m))
    borrows_first = first_borrowed < first_lent
    lends_first = ~borrows_first & (first_lent < m)
    domestic = np.zeros(n, dtype=bool)
    domestic[lends_first] = lender_flag[first_lent[lends_first]]
    domestic[borrows_first] = borrower_flag[first_borrowed[borrows_first]]
    domestic_sides = (np.bincount(lender[lender_flag], minlength=n)
                      + np.bincount(borrower[borrower_flag], minlength=n))
    mixed = (domestic_sides > 0) & (domestic_sides < roles.sum(axis=1))
    return BankFacts(index.bank_ids, roles, domestic,
                     tuple(sorted(index.bank_ids[i] for i in np.flatnonzero(mixed))))


@dataclass(frozen=True)
class RoleFrequencies:
    """Across-bank role statistics for one component's bank set."""

    roles: tuple
    bank_indices: np.ndarray   # banks that had at least one transaction
    per_bank: np.ndarray       # (len(bank_indices), 4), rows sum to 1
    mean: np.ndarray           # (4,)
    ci95: np.ndarray           # (4, 2) Student-t interval for the mean
    excluded: tuple            # member banks without any transaction


def attribute_frequencies(facts: BankFacts, members) -> RoleFrequencies:
    """Role mix of each member bank, averaged across the member set.

    Per-bank frequencies of :data:`ROLES` come from ``facts.role_counts``
    and are averaged across banks with a Student-t 95% confidence interval
    per role.  Member banks that never transact are excluded and reported.
    """
    counts = facts.role_counts
    members = np.asarray(members, dtype=int)
    totals = counts[members].sum(axis=1)
    used = members[totals > 0]
    excluded = tuple(int(b) for b in members[totals == 0])
    if used.size == 0:
        raise ValueError("no member bank has any transaction")
    per_bank = counts[used] / counts[used].sum(axis=1, keepdims=True)
    mean, half = mean_ci95(per_bank)
    ci = np.stack([mean - half, mean + half], axis=1)
    return RoleFrequencies(ROLES, used, per_bank, mean, ci, excluded)


def mean_ci95(values):
    """Mean along axis 0 and the half-width of its Student-t 95% interval.

    Works on 1-D and 2-D input; with fewer than two samples the half-width
    is zero.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[0]
    mean = v.mean(axis=0)
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, stdtrit(n - 1, 0.975) * v.std(axis=0, ddof=1) / math.sqrt(n)


def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q, by direct p.m.f. summation.

    A term ``C(n, k) p^k (1 - p)^(n - k)`` whose coefficient passes the
    largest float (from about n = 1,030) is taken from its logarithm; every
    other term keeps its plain product, so wherever the plain sum alone
    returns, the result is the same.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if p in (0.0, 1.0):  # a point mass, and the logarithms need 0 < p < 1
        return 0 if p == 0.0 else n
    cdf, coeff = 0.0, 1  # coeff is C(n, k), exact
    for k in range(n + 1):
        try:
            cdf += coeff * p**k * (1.0 - p) ** (n - k)
        except OverflowError:  # the int coefficient does not convert to float
            cdf += math.exp(math.log(coeff) + k * math.log(p) + (n - k) * math.log1p(-p))
        if cdf >= q:
            return k
        coeff = coeff * (n - k) // (k + 1)
    return n


@dataclass(frozen=True)
class NationalityBand:
    """Observed domestic share against the random-chance binomial band."""

    observed_share: float
    band: tuple
    outside: bool
    n_members: int
    p: float


def nationality_test(members, domestic_flags, p: float) -> NationalityBand:
    """Compare a bank set's domestic share with chance draws at rate ``p``.

    The band is the central 90% interval of Binomial(|members|, p) / |members|
    (5th to 95th percentile, exact quantiles).
    """
    members = np.asarray(members, dtype=int)
    if members.size == 0:
        raise ValueError("members must be nonempty")
    flags = np.asarray(domestic_flags, dtype=bool)
    n = int(members.size)
    observed = float(flags[members].mean())
    lo = binomial_quantile(0.05, n, p) / n
    hi = binomial_quantile(0.95, n, p) / n
    outside = observed < lo - 1e-12 or observed > hi + 1e-12
    return NationalityBand(observed, (lo, hi), outside, n, float(p))


def domestic_flags_from_records(ledger: Ledger, index: TensorIndex):
    """``(flags, conflicts)`` of :func:`bank_facts`, over the trades of
    ``ledger`` between two index banks."""
    facts = bank_facts(ledger, index)
    return facts.domestic, list(facts.conflicts)
