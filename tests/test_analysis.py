import math
from datetime import date

import numpy as np
import pytest
from scipy.stats import binom
from scipy.stats import t as student_t

from tempofact.analysis import (
    ROLES,
    affiliate_banks,
    attribute_frequencies,
    bank_facts,
    binomial_quantile,
    component_share,
    domestic_flags_from_records,
    jaccard_matrix,
    jaccard_overlap,
    mean_ci95,
    membership_level,
    membership_mean,
    morning_window,
    nationality_test,
    order_components,
)
from tempofact.ingest import TensorIndex
from tempofact.tensor import KruskalTensor
from util import classify_role, ledger_of, ledger_rows, random_kruskal


def _k(a, b, c, w=None):
    return KruskalTensor(np.asarray(a, float), np.asarray(b, float), np.asarray(c, float), w)


def test_morning_window_sizes():
    assert morning_window(15).tolist() == list(range(8))
    assert morning_window(30).tolist() == [0, 1, 2, 3]
    assert morning_window(45).tolist() == [0, 1, 2]  # third interval covers 09:30-10:15


def test_order_components_zero_window_first():
    b = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    k = _k(np.ones((3, 2)), b, np.ones((5, 2)))
    order = order_components(k, window=[0, 1])
    assert order.tolist() == [0, 1]  # column 0 has zero morning mass
    b2 = b[:, ::-1].copy()
    k2 = _k(np.ones((3, 2)), b2, np.ones((5, 2)))
    assert order_components(k2, window=[0, 1]).tolist() == [1, 0]


def test_order_components_permutation_composes_to_identity():
    rng = np.random.default_rng(71)
    k = random_kruskal(rng, (6, 8, 5), 3)
    window = morning_window(150)  # single opening interval
    sorted_k = k.permute(order_components(k, window))
    again = order_components(sorted_k, window)
    assert again.tolist() == [0, 1, 2]


def test_order_components_invariant_to_rescaling():
    rng = np.random.default_rng(72)
    k = random_kruskal(rng, (6, 8, 5), 3)
    scales = np.array([9.0, 0.2, 3.3])
    rescaled = KruskalTensor(k.A, k.B * scales, k.C, k.weights / scales)
    window = [0, 1, 2]
    assert order_components(k, window).tolist() == order_components(rescaled, window).tolist()


def test_order_components_window_sum_hand_check():
    b = np.array([[0.4, 0.1], [0.2, 0.3], [0.0, 0.9]])
    k = _k(np.ones((2, 2)), b, np.ones((3, 2)))
    kn = k.normalize()
    sums = kn.B[:2].sum(axis=0)
    expected = np.argsort(sums, kind="stable").tolist()
    assert order_components(k, [0, 1]).tolist() == expected


def test_component_share_rank_one():
    k = _k(np.ones((3, 1)), np.ones((4, 1)), [[2.0], [1.0], [0.5]])
    shares = component_share(k)
    assert np.allclose(shares, 1.0)


def test_component_share_hand_row_and_zero_day():
    c = np.array([[2.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    k = _k(np.ones((2, 3)), np.ones((2, 3)), c)
    shares = component_share(k)
    assert shares[0].tolist() == [0.5, 0.5, 0.0]
    assert np.isnan(shares[1]).all()


def test_component_share_rows_sum_to_one():
    rng = np.random.default_rng(73)
    k = random_kruskal(rng, (5, 4, 30), 3)
    shares = component_share(k)
    sums = np.nansum(shares, axis=1)
    active = ~np.isnan(shares).any(axis=1)
    assert np.abs(sums[active] - 1.0).max() < 1e-12


def test_affiliation_top_decile_counts():
    rng = np.random.default_rng(74)
    # 10 distinct loadings -> only the maximum
    k = _k(rng.permutation(10).reshape(10, 1) + 0.0, np.ones((2, 1)), np.ones((2, 1)))
    (members,) = affiliate_banks(k, 90.0)
    assert members.tolist() == [int(np.argmax(k.A[:, 0]))]
    # 289 distinct loadings -> 29 banks
    k2 = _k(rng.permutation(289).reshape(289, 1) + 0.0, np.ones((2, 1)), np.ones((2, 1)))
    (members2,) = affiliate_banks(k2, 90.0)
    assert members2.size == 29


def test_affiliation_all_ties():
    k = _k(np.ones((7, 1)), np.ones((2, 1)), np.ones((2, 1)))
    (members,) = affiliate_banks(k, 90.0)
    assert members.tolist() == list(range(7))


def test_affiliation_monotone_in_percentile():
    rng = np.random.default_rng(75)
    k = random_kruskal(rng, (40, 3, 3), 2)
    sizes = []
    for pct in (50.0, 75.0, 90.0, 95.0):
        sizes.append([m.size for m in affiliate_banks(k, pct)])
    for lo, hi in zip(sizes[1:], sizes[:-1]):
        assert all(a <= b for a, b in zip(lo, hi))
    with pytest.raises(ValueError):
        affiliate_banks(k, 120.0)


def test_jaccard_cases():
    assert jaccard_overlap([1, 2, 3], [1, 2, 3]) == 1.0
    assert jaccard_overlap([1, 2], [3, 4]) == 0.0
    assert jaccard_overlap([1, 2, 3], [2, 3, 4]) == 0.5
    assert jaccard_overlap([], []) == 0.0
    mat = jaccard_matrix([np.array([1, 2, 3]), np.array([2, 3, 4])])
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(np.diag(mat), [1.0, 1.0])
    assert ((0.0 <= mat) & (mat <= 1.0)).all()


def test_membership_level_structure():
    a = np.array([[1.0, 0.3], [0.0, 0.4], [0.0, 0.2]])
    k = _k(a, np.ones((2, 2)), np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]]))
    level = membership_level(k, 0)
    assert level.shape == (3, 3)
    assert not level[1:].any()  # only bank 1 loads on component 0
    kn = k.normalize()
    for row in range(3):
        expected = kn.A[row, 0] * kn.weighted_C[:, 0]
        assert np.abs(level[row] - expected).max() < 1e-12


def test_membership_mean_hand_case():
    a = np.array([[0.1], [0.2], [0.3], [0.4]])
    c = np.array([[1.0], [2.0]])
    k = _k(a, np.ones((2, 1)), c)
    members = np.array([1, 3])
    got = membership_mean(k, 0, members)
    level = membership_level(k, 0)
    assert np.abs(got - (level[1] + level[3]) / 2.0).max() < 1e-15
    with pytest.raises(ValueError):
        membership_mean(k, 0, np.array([], dtype=int))


def _trade(lender, borrower, proposer):
    return ("2008-09-15T09:00", lender, borrower, 1.0, proposer, "ON", True, False)


def test_classify_role_all_four():
    r = _trade("L", "B", "borrower")
    assert classify_role(r, "L") == "aggressor_lender"
    assert classify_role(r, "B") == "quoter_borrower"
    r2 = _trade("L", "B", "lender")
    assert classify_role(r2, "L") == "quoter_lender"
    assert classify_role(r2, "B") == "aggressor_borrower"
    with pytest.raises(ValueError):
        classify_role(r, "X")


def _toy_index(banks):
    return TensorIndex(tuple(banks), (date(2008, 9, 15),), 30)


def test_role_vector_for_pure_lender():
    records = ledger_of(_trade("L", f"B{i}", "borrower") for i in range(4))
    index = _toy_index(["L"] + [f"B{i}" for i in range(4)])
    stats = attribute_frequencies(bank_facts(records, index), members=[0])
    assert stats.roles == ROLES
    assert stats.per_bank[0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_role_frequencies_sum_to_one_and_match_design():
    # Designed mix for bank X: 2 aggressor-lender, 1 quoter-borrower,
    # 1 aggressor-borrower, 4 quoter-lender out of 8 trades.
    records = ledger_of(
        [_trade("X", "A", "borrower")] * 2   # X aggressor lender
        + [_trade("A", "X", "borrower")] * 1  # X quoter borrower
        + [_trade("B", "X", "lender")] * 1    # X aggressor borrower
        + [_trade("X", "B", "lender")] * 4    # X quoter lender
    )
    index = _toy_index(["A", "B", "X"])
    stats = attribute_frequencies(bank_facts(records, index), members=[2])
    assert stats.per_bank.sum(axis=1).tolist() == [1.0]
    assert stats.per_bank[0].tolist() == [2 / 8, 1 / 8, 1 / 8, 4 / 8]


def test_role_frequencies_exclude_inactive_banks():
    records = ledger_of([_trade("A", "B", "borrower")])
    index = _toy_index(["A", "B", "C"])
    stats = attribute_frequencies(bank_facts(records, index), members=[0, 2])
    assert stats.bank_indices.tolist() == [0]
    assert stats.excluded == (2,)
    with pytest.raises(ValueError):
        attribute_frequencies(bank_facts(records, index), members=[2])


def test_role_ci_contains_mean():
    records = ledger_of([_trade("A", "B", "borrower"), _trade("B", "A", "borrower"),
                         _trade("A", "C", "lender")])
    index = _toy_index(["A", "B", "C"])
    stats = attribute_frequencies(bank_facts(records, index), members=[0, 1, 2])
    assert ((stats.ci95[:, 0] <= stats.mean) & (stats.mean <= stats.ci95[:, 1])).all()


def test_binomial_quantile_matches_scipy():
    rng = np.random.default_rng(76)
    for _ in range(60):
        n = int(rng.integers(1, 80))
        p = float(rng.random())
        q = float(rng.uniform(0.01, 0.99))
        assert binomial_quantile(q, n, p) == int(binom.ppf(q, n, p))


def _plain_binomial_quantile(q, n, p):
    """The p.m.f. sum in plain floats, which overflows from about n = 1,030."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if cdf >= q:
            return k
    return n


def _exact_binomial_quantile(q, n, p):
    """The p.m.f. sum in integers, with the floats q and p as the rationals
    they are: term k is C(n, k) a^k (b - a)^(n - k) for p = a / b."""
    a, b = p.as_integer_ratio()
    qa, qb = q.as_integer_ratio()
    term, total, bound = (b - a) ** n, 0, qa * b**n
    for k in range(n + 1):
        total += term
        if qb * total >= bound:  # cdf >= q
            return k
        term = term * (n - k) * a // ((k + 1) * (b - a))
    return n


def test_binomial_quantile_keeps_the_plain_sum_where_it_runs():
    # p = 0.5 and q = 0.5 sit on exact ties, where any other rounding of the
    # sum could pick the neighbouring k.
    for n in (*range(1, 30), *range(30, 1001, 97), 1000):
        for p in (0.0, 0.01, 0.2, 1 / 3, 0.5, 194 / 289, 0.97, 1.0):
            for q in (0.05, 0.5, 0.95):
                assert binomial_quantile(q, n, p) == _plain_binomial_quantile(q, n, p), (q, n, p)


def test_binomial_quantile_past_the_float_range():
    # Each p has a short binary fraction, so the exact sums stay small.
    for n in (1100, 5000):
        with pytest.raises(OverflowError):
            _plain_binomial_quantile(0.95, n, 0.5)
        for p in (1 / 64, 5 / 16, 0.5, 43 / 64, 31 / 32):
            for q in (0.05, 0.5, 0.95):
                assert binomial_quantile(q, n, p) == _exact_binomial_quantile(q, n, p), (q, n, p)
    assert binomial_quantile(0.95, 5000, 1.0) == 5000
    assert binomial_quantile(0.05, 5000, 0.0) == 0


def test_nationality_band_endpoints():
    n_r, p = 29, 194.0 / 289.0
    flags = np.zeros(300, dtype=bool)
    flags[:200] = True
    members = np.arange(n_r)
    band = nationality_test(members, flags, p)
    assert band.band == (int(binom.ppf(0.05, n_r, p)) / n_r, int(binom.ppf(0.95, n_r, p)) / n_r)
    assert band.n_members == n_r


def test_nationality_degenerate_p_one():
    flags = np.ones(10, dtype=bool)
    band = nationality_test(np.arange(5), flags, 1.0)
    assert band.band == (1.0, 1.0)
    assert not band.outside


def test_nationality_central_value_inside():
    p = 0.6
    flags = np.zeros(100, dtype=bool)
    flags[:60] = True
    members = np.arange(100)  # observed share exactly p
    band = nationality_test(members, flags, p)
    assert band.band[0] <= band.observed_share <= band.band[1]
    assert not band.outside


def test_domestic_flags_first_seen_and_conflicts():
    records = ledger_of([
        _trade("A", "B", "borrower"),
        ("2008-09-15T10:00", "B", "A", 1.0, "lender", "ON", True, True),  # B domestic: conflict
    ])
    index = _toy_index(["A", "B", "C"])
    flags, conflicts = domestic_flags_from_records(records, index)
    assert flags.tolist() == [True, False, False]
    assert conflicts == ["B"]


def _random_trades(rng, banks, n):
    out = []
    for _ in range(n):
        i, j = rng.choice(len(banks), size=2, replace=False)
        out.append(("2008-09-15T09:00", banks[i], banks[j], 1.0,
                    str(rng.choice(["lender", "borrower"])), "ON",
                    bool(rng.random() < 0.8), bool(rng.random() < 0.8)))
    return out


# An index in no sorted order, with a bank that never trades (K6), and K5
# outside it.  K0 first trades with K5, flagged foreign, then with index
# banks: first as a domestic borrower, later as a foreign lender.
_FACTS_INDEX = _toy_index(["K3", "K0", "K6", "K4", "K1", "K2"])
_FACTS_LEAD = [
    ("2008-09-15T09:00", "K5", "K0", 1.0, "lender", "ON", True, False),
    ("2008-09-15T09:00", "K1", "K0", 1.0, "borrower", "ON", True, True),
    ("2008-09-15T09:00", "K0", "K2", 1.0, "lender", "ON", False, True),
]


def _index_trades(records, index):
    """The row tuples of the trades whose two sides are index banks."""
    return [r for r in ledger_rows(records) if {r[1], r[2]} <= set(index.bank_ids)]


def test_domestic_flags_match_row_reference():
    rng = np.random.default_rng(23)
    index = _FACTS_INDEX
    for n in (0, 1, 3, 40):
        records = ledger_of(_FACTS_LEAD + _random_trades(rng, [f"K{i}" for i in range(6)], n))
        seen, conflicts = {}, set()
        for _, lender, borrower, _, _, _, lender_flag, borrower_flag in _index_trades(records,
                                                                                   index):
            for bank, flag in ((lender, lender_flag), (borrower, borrower_flag)):  # lender first
                if bank not in seen:
                    seen[bank] = flag
                elif seen[bank] != flag:
                    conflicts.add(bank)
        flags, got_conflicts = domestic_flags_from_records(records, index)
        assert flags.tolist() == [seen.get(b, False) for b in index.bank_ids]
        assert got_conflicts == sorted(conflicts)
        # K0's trade with K5 sets no flag; its first index trade, as borrower, does.
        assert seen["K0"] is True and "K0" in conflicts and "K6" not in seen


def test_role_counts_match_classify_role():
    rng = np.random.default_rng(29)
    index = _FACTS_INDEX
    records = ledger_of(_FACTS_LEAD + _random_trades(rng, [f"K{i}" for i in range(6)], 60))
    counts = np.zeros((len(index.bank_ids), len(ROLES)), dtype=np.int64)
    for r in _index_trades(records, index):
        for side in r[1:3]:  # the lender and the borrower
            counts[index.bank_ids.index(side), ROLES.index(classify_role(r, side))] += 1
    facts = bank_facts(records, index)
    assert np.array_equal(facts.role_counts, counts)
    assert counts[index.bank_ids.index("K6")].tolist() == [0, 0, 0, 0]
    members = np.flatnonzero(counts.sum(axis=1) > 0)
    stats = attribute_frequencies(facts, members)
    assert stats.bank_indices.tolist() == members.tolist()
    assert np.array_equal(stats.per_bank,
                          counts[members] / counts[members].sum(axis=1, keepdims=True))


@pytest.mark.parametrize("n", [1, 2, 4, 20])
def test_mean_ci95_matches_scipy_interval(n):
    rng = np.random.default_rng(n)
    for values in (rng.random(n), rng.random((n, 3))):
        mean, half = mean_ci95(values)
        assert np.array_equal(mean, values.mean(axis=0))
        if n == 1:
            assert np.array_equal(half, np.zeros_like(mean))
            continue
        sem = values.std(axis=0, ddof=1) / np.sqrt(n)
        lo, hi = student_t.interval(0.95, n - 1, loc=mean, scale=sem)
        np.testing.assert_allclose(mean - half, lo, rtol=1e-13)
        np.testing.assert_allclose(mean + half, hi, rtol=1e-13)
