"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line on success; run with

    pytest tests/test_acceptance.py -v -s

The reference synthetic market (120 banks x 20 intervals x 1000 days,
seed 12345), its four-rank scan and its rank-3 fit are produced through
the CLI once per session and shared across criteria; the scan and fit are
rerun with a different worker count for the determinism criterion.
"""

import json
import math
from datetime import date, datetime
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tempofact import io as tfio
from tempofact.als import FitConfig, fit_best, fit_once
from tempofact.analysis import (
    affiliate_banks,
    attribute_frequencies,
    bank_facts,
    component_share,
    jaccard_overlap,
    nationality_test,
)
from tempofact.cli import main
from tempofact.corcondia import core_consistency, tucker_core
from tempofact.ingest import TensorIndex, build_tensor, filter_overnight, load_transactions
from tempofact.nnls import solve_nnls
from tempofact.tensor import (
    KruskalTensor,
    khatri_rao,
    reconstruct,
)
from util import (
    best_match,
    ledger_of,
    matricize,
    nnls_objective,
    nnls_oracle_objective,
    pearson,
    random_kruskal,
    random_tensor,
    similarity,
)

SAMPLE_LEDGER = Path(__file__).resolve().parent.parent / "data" / "sample_ledger.csv"
FIT_SEED = 42


def _pass(number: int, label: str) -> None:
    print(f"acceptance criterion {number} ({label}): PASS")


def _run_cli(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


@pytest.fixture(scope="session")
def market_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("market")
    _run_cli("synth", "--out", out)  # reference defaults, seed 12345
    return out


@pytest.fixture(scope="session")
def scan_jobs1(market_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("scan_j1")
    _run_cli("corcondia", market_dir / "tensor.bin", "--rmax", 4, "--lcc", 85,
             "--restarts", 20, "--seed", FIT_SEED, "--jobs", 1, "--out", out)
    return out


@pytest.fixture(scope="session")
def scan_jobs2(market_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("scan_j2")
    _run_cli("corcondia", market_dir / "tensor.bin", "--rmax", 4, "--lcc", 85,
             "--restarts", 20, "--seed", FIT_SEED, "--jobs", 2, "--out", out)
    return out


@pytest.fixture(scope="session")
def fit_jobs1(market_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit_j1")
    _run_cli("fit", market_dir / "tensor.bin", "--rank", 3, "--restarts", 20,
             "--seed", FIT_SEED, "--jobs", 1, "--out", out)
    return out


@pytest.fixture(scope="session")
def fit_jobs2(market_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit_j2")
    _run_cli("fit", market_dir / "tensor.bin", "--rank", 3, "--restarts", 20,
             "--seed", FIT_SEED, "--jobs", 2, "--out", out)
    return out


def test_criterion_1_synthetic_rank_selection(scan_jobs1):
    scan = json.loads((scan_jobs1 / "rank_scan.json").read_text())
    means = {rec["rank"]: rec["cc_mean"] for rec in scan["ranks"]}
    assert scan["selected_rank"] == 3
    assert means[3] is not None and means[3] > 85.0
    assert means[4] is not None and means[4] < 85.0
    rels = {rec["rank"]: [e for e in rec["rel_errors"] if e is not None]
            for rec in scan["ranks"]}
    assert min(rels[3]) < min(rels[1])  # nested model classes
    _pass(1, "synthetic rank selection")


def test_criterion_2_synthetic_pattern_recovery(market_dir, fit_jobs1):
    fit = tfio.fit_result_from_dict(tfio.load_json(fit_jobs1 / "fit.json")[0])
    truth = json.loads((market_dir / "ground_truth.json").read_text())
    profiles = np.asarray(truth["fitness_profiles"])     # (3, T)
    schedules = np.asarray(truth["participation"])       # (3, D)
    b, c = fit.factors.B, fit.factors.C

    intraday_scores = np.array(
        [[pearson(profiles[s], b[:, r]) for r in range(3)] for s in range(3)]
    )
    perm, matched_b = best_match(intraday_scores)
    assert min(matched_b) >= 0.95, matched_b

    matched_c = [similarity(schedules[s], c[:, perm[s]]) for s in range(3)]
    assert min(matched_c) >= 0.90, matched_c
    _pass(2, "synthetic pattern recovery")


def test_criterion_3_exact_model_oracle():
    rng = np.random.default_rng(303)
    for rank in (1, 2, 3):
        truth = random_kruskal(rng, (10, 8, 12), rank)
        x = reconstruct(truth)
        cc_exact = core_consistency(tucker_core(x, truth))
        assert abs(cc_exact - 100.0) <= 1e-6
        best = fit_best(x, FitConfig(rank=rank, restarts=20, seed=rank * 101))
        assert best.rel_error < 1e-5
        cc_fit = core_consistency(tucker_core(x, best.factors))
        assert cc_fit >= 99.0
    _pass(3, "exact-model generate-and-recover oracle")


def test_criterion_4_nnls_against_enumeration_oracle():
    rng = np.random.default_rng(404)
    for _ in range(500):
        r = int(rng.integers(1, 7))
        h = rng.standard_normal((r + 2, r))
        gram = h.T @ h
        ct = h.T @ rng.standard_normal((r + 2, 1))
        sol = solve_nnls(gram, ct)
        assert sol.converged
        assert sol.kkt_residual <= 1e-8
        got = nnls_objective(gram, ct[:, 0], sol.W[0])
        want = nnls_oracle_objective(gram, ct[:, 0])
        assert abs(got - want) <= 1e-8
    _pass(4, "NNLS objective and KKT residuals on 500 random problems")


def test_criterion_5_als_monotonicity():
    rng = np.random.default_rng(505)
    for trial in range(100):
        dims = tuple(rng.integers(4, 11, size=3))
        x = random_tensor(rng, dims)
        rank = int(rng.integers(1, 5))
        res = fit_once(x, FitConfig(rank=rank, max_sweeps=80, restarts=1), seed=trial)
        trace = np.array(res.objective_trace)
        assert (np.diff(trace) <= 1e-10).all()
    _pass(5, "ALS objective traces nonincreasing on 100 random triples")


def test_criterion_6_algebraic_identities():
    rng = np.random.default_rng(606)
    for _ in range(20):
        dims = tuple(rng.integers(2, 8, size=3))
        rank = int(rng.integers(1, 4))
        k = random_kruskal(rng, dims, rank)
        x = reconstruct(k)
        factor_forms = {
            1: k.A @ khatri_rao(k.C, k.B).T,
            2: k.B @ khatri_rao(k.C, k.A).T,
            3: k.C @ khatri_rao(k.B, k.A).T,
        }
        for mode in (1, 2, 3):
            unfolded = matricize(x, mode)
            gap = np.linalg.norm(unfolded - factor_forms[mode])
            assert gap / np.linalg.norm(x.values) < 1e-12
        a, b = rng.random((5, rank)), rng.random((4, rank))
        kr = khatri_rao(a, b)
        assert np.abs(kr.T @ kr - (a.T @ a) * (b.T @ b)).max() < 1e-12
    _pass(6, "unfolding factor forms and the Khatri-Rao Gram identity")


def test_criterion_7_ingestion_mass_conservation():
    loaded = load_transactions(SAMPLE_LEDGER)
    assert not loaded.issues
    overnight = filter_overnight(loaded.records)
    tensor, index, excluded = build_tensor(overnight, 15)
    assert not excluded
    amount_sum = sum(overnight.amount.tolist())
    assert amount_sum == 217.0  # documented sample-ledger volume
    assert tensor.values.sum() == 2.0 * amount_sum
    per_bank = {b: 0.0 for b in index.bank_ids}
    for lender, borrower, amount in zip(overnight.lender_id, overnight.borrower_id,
                                        overnight.amount.tolist()):
        per_bank[lender] += amount
        per_bank[borrower] += amount
    for pos, bank in enumerate(index.bank_ids):
        assert tensor.values[pos].sum() == per_bank[bank]

    rng = np.random.default_rng(707)
    for _ in range(100):
        n_banks = int(rng.integers(3, 10))
        banks = [f"B{i}" for i in range(n_banks)]
        records = []
        for _ in range(int(rng.integers(5, 60))):
            i, j = rng.choice(n_banks, size=2, replace=False)
            minute = int(rng.integers(0, 601))
            stamp = datetime(2010, 3, 1 + int(rng.integers(0, 4)),
                             8 + minute // 60, minute % 60)
            amount = float(rng.integers(1, 4000)) / 4.0  # exact binary fractions
            records.append((stamp, banks[i], banks[j], amount))
        tensor, index, excluded = build_tensor(ledger_of(records),
                                               int(rng.choice([5, 10, 15, 30])))
        assert not excluded
        assert tensor.values.sum() == 2.0 * sum(amount for *_, amount in records)
        totals = {b: 0.0 for b in banks}
        for _, lender, borrower, amount in records:
            totals[lender] += amount
            totals[borrower] += amount
        for pos, bank in enumerate(index.bank_ids):
            assert tensor.values[pos].sum() == totals[bank]
    _pass(7, "tensor mass equals twice the filtered ledger volume, per bank and in total")


def test_criterion_8_analysis_arithmetic():
    rng = np.random.default_rng(808)

    k = random_kruskal(rng, (12, 6, 50), 3)
    shares = component_share(k)
    active = ~np.isnan(shares).any(axis=1)
    assert np.abs(shares[active].sum(axis=1) - 1.0).max() < 1e-12

    loadings = rng.permutation(289).astype(float).reshape(289, 1)
    k289 = KruskalTensor(loadings, np.ones((2, 1)), np.ones((2, 1)))
    (members,) = affiliate_banks(k289, 90.0)
    assert members.size == 29

    assert jaccard_overlap([1, 2, 3], [2, 3, 4]) == 0.5

    trades = ledger_of(
        [_role_trade("X", "A", "borrower")] * 3    # aggressor lender
        + [_role_trade("A", "X", "borrower")] * 2  # quoter borrower
        + [_role_trade("B", "X", "lender")] * 1    # aggressor borrower
        + [_role_trade("X", "B", "lender")] * 2    # quoter lender
    )
    index = TensorIndex(("A", "B", "X"), (date(2008, 9, 15),), 30)
    stats = attribute_frequencies(bank_facts(trades, index), members=[2])
    assert stats.per_bank[0].tolist() == [3 / 8, 2 / 8, 1 / 8, 2 / 8]

    n_r = 29
    p = 194.0 / 289.0
    flags = np.zeros(289, dtype=bool)
    flags[:194] = True
    band = nationality_test(np.arange(n_r), flags, p)
    p_exact = Fraction(194, 289)
    lo_oracle = _binomial_quantile_oracle(Fraction(5, 100), n_r, p_exact)
    hi_oracle = _binomial_quantile_oracle(Fraction(95, 100), n_r, p_exact)
    assert band.band == (lo_oracle / n_r, hi_oracle / n_r)
    _pass(8, "share sums, top-decile sizes, Jaccard, role mix, binomial band")


def _role_trade(lender, borrower, proposer):
    return (datetime(2008, 9, 15, 9, 0), lender, borrower, 1.0, proposer, "ON", True, False)


def _binomial_quantile_oracle(q: Fraction, n: int, p: Fraction) -> int:
    """Exact-rational cumulative p.m.f. summation."""
    cdf = Fraction(0)
    for k in range(n + 1):
        cdf += math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if cdf >= q:
            return k
    return n


def test_criterion_9_determinism_across_worker_counts(
    scan_jobs1, scan_jobs2, fit_jobs1, fit_jobs2
):
    for name in ("rank_scan.json", "rank_scan.csv"):
        assert (scan_jobs1 / name).read_bytes() == (scan_jobs2 / name).read_bytes(), name
    for name in ("fit.json", "restarts.json"):
        assert (fit_jobs1 / name).read_bytes() == (fit_jobs2 / name).read_bytes(), name
    _pass(9, "byte-identical scan and fit outputs for --jobs 1 vs --jobs 2")
