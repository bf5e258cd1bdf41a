import csv
import math
from datetime import datetime, time, timedelta

import numpy as np
import pytest

from tempofact.ingest import LEDGER_COLUMNS, build_tensor, filter_overnight, save_transactions
from tempofact.synthetic import (
    LOG_START_DATE,
    SyntheticConfig,
    bank_label,
    fitness_profile,
    generate,
    generate_with_log,
    log_to_records,
    market_index,
    participation,
)


def _raw_pdf(t, mu, sigma):
    return math.exp(-((t - mu) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))


def test_midday_profile_peaks_at_grid_center():
    cfg = SyntheticConfig(n_banks=3, intervals=20, days=10, group_sizes=(1, 1, 1))
    prof = fitness_profile(cfg, 1)
    assert np.argmax(prof) + 1 == 10  # t = T/2 lies on the grid
    assert prof.max() == pytest.approx(cfg.peak_fitness)


def test_early_profile_monotonically_decreasing():
    cfg = SyntheticConfig(n_banks=3, intervals=20, days=10, group_sizes=(1, 1, 1))
    prof = fitness_profile(cfg, 0)
    assert (np.diff(prof) < 0).all()
    assert prof.min() >= 0.0 and prof.max() <= 1.0


def test_raw_profiles_mirror_each_other():
    # With means at 0 and T the raw densities satisfy f(t; 0) = f(T - t; T).
    cfg = SyntheticConfig(
        n_banks=3, intervals=20, days=10, group_sizes=(1, 1, 1), rescale=False
    )
    early = fitness_profile(cfg, 0)
    late = fitness_profile(cfg, 2)
    t_grid = np.arange(1, 21)
    for t in t_grid[:-1]:  # T - t stays on the grid for t = 1..T-1
        assert early[t - 1] == pytest.approx(late[20 - t - 1], abs=1e-12)
    for t in t_grid:
        assert early[t - 1] == pytest.approx(_raw_pdf(t, 0.0, 5.0), abs=1e-15)


def test_participation_schedule_values():
    d_count = 10
    cfg = SyntheticConfig(n_banks=3, intervals=4, days=d_count, group_sizes=(1, 1, 1))
    flat = participation(cfg, 0)
    assert (flat == 0.5).all()
    tri = participation(cfg, 1)
    assert tri[0] == 0.0
    assert tri[d_count // 2 - 1] == pytest.approx(1.0 - 2.0 / d_count)
    assert tri[d_count // 2] == pytest.approx(1.0 - 2.0 / d_count)
    ramp = participation(cfg, 2)
    assert ramp[0] == 0.0
    assert ramp[-1] == pytest.approx((d_count - 1) / d_count)
    for group in range(3):
        q = participation(cfg, group)
        assert q.min() >= 0.0 and q.max() <= 1.0


def test_no_participation_gives_zero_tensor():
    # Day 1 puts both ramping groups at probability zero.
    cfg = SyntheticConfig(n_banks=6, intervals=4, days=1, group_sizes=(0, 3, 3), seed=1)
    tensor, _ = generate(cfg)
    assert not tensor.values.any()


def test_certain_trades_fill_participating_days():
    # Near-flat fitness at 1.0 makes any co-participating pair trade in
    # every interval; with two banks each entry on a trading day is 1.
    cfg = SyntheticConfig(
        n_banks=2,
        intervals=3,
        days=30,
        group_sizes=(2, 0, 0),
        sigma=1e6,
        peak_fitness=1.0,
        seed=8,
    )
    tensor, _ = generate(cfg)
    per_day = tensor.values.sum(axis=(0, 1))
    trading_days = np.nonzero(per_day)[0]
    assert trading_days.size > 0
    for day in trading_days:
        assert np.array_equal(tensor.values[:, :, day], np.ones((2, 3)))


def test_entries_bounded_by_bank_count():
    cfg = SyntheticConfig(n_banks=9, intervals=5, days=50, seed=3)
    tensor, _ = generate(cfg)
    assert tensor.values.max() <= cfg.n_banks - 1
    assert np.array_equal(tensor.values, np.round(tensor.values))


def test_generation_deterministic():
    cfg = SyntheticConfig(n_banks=8, intervals=4, days=20, seed=44)
    a, _ = generate(cfg)
    b, _ = generate(cfg)
    assert np.array_equal(a.values, b.values)


def test_monte_carlo_mean_matches_analytic_expectation():
    reps = 10_000
    total = np.zeros((6, 4, 2))
    for rep in range(reps):
        tensor, truth = generate(
            SyntheticConfig(
                n_banks=6, intervals=4, days=2, group_sizes=(2, 2, 2), seed=100_000 + rep
            )
        )
        total += tensor.values
    mean = total / reps

    fit = truth.fitness_profiles[truth.groups]        # (N, T)
    q = truth.participation[truth.groups]             # (N, D)
    expected = np.zeros_like(mean)
    for i in range(6):
        for t in range(4):
            for d in range(2):
                others = sum(
                    q[j, d] * fit[i, t] * fit[j, t] for j in range(6) if j != i
                )
                expected[i, t, d] = q[i, d] * others

    # A per-cell variance bound (entries are sums of at most N-1 indicators,
    # so var <= (N-1) * E[x]) keeps the 3-sigma band conservative.
    se = np.sqrt(np.maximum(expected * (6 - 1), 1e-12) / reps)
    gap = np.abs(mean - expected)
    assert (gap <= 3.0 * se + 1e-9).all()
    assert (mean[expected == 0.0] == 0.0).all()


@pytest.mark.parametrize("intervals", [1, 5, 8, 24, 40])
def test_log_reproduces_tensor_exactly(intervals):
    cfg = SyntheticConfig(n_banks=10, intervals=intervals, days=25, seed=77)
    tensor, _ = generate(cfg)
    tensor2, _, log = generate_with_log(cfg)
    assert np.array_equal(tensor.values, tensor2.values)
    assert 2 * len(log) == tensor.values.sum()

    market = market_index(cfg)
    records = log_to_records(log, market)
    built, index, excluded = build_tensor(filter_overnight(records), delta=market.delta)
    assert not excluded
    # The binned index holds the banks and days that traded; place its slabs
    # on the market's full calendar.
    banks = [market.bank_ids.index(b) for b in index.bank_ids]
    days = [market.day_dates.index(d) for d in index.day_dates]
    rebuilt = np.zeros_like(tensor.values)
    rebuilt[np.ix_(banks, range(cfg.intervals), days)] = built.values
    assert np.array_equal(rebuilt, tensor.values)


def test_participation_frequency_tracks_schedule():
    # At the reference configuration, the fraction of each group's banks
    # that shows any activity on a day converges to its entry schedule
    # (smoothing both sides over 20 days removes the daily noise).
    cfg = SyntheticConfig()
    tensor, truth = generate(cfg)
    active = tensor.values.sum(axis=1) > 0        # (N, D)
    from tempofact.ingest import moving_average

    for group in range(3):
        rows = truth.groups == group
        freq = active[rows].mean(axis=0)
        gap = np.abs(moving_average(freq, 20) - moving_average(truth.participation[group], 20))
        assert gap.max() < 0.1
        assert gap.mean() < 0.02


def test_bank_labels_sort_like_indices():
    labels = [bank_label(i, 120) for i in range(120)]
    assert labels == sorted(labels)


def test_config_resolves_its_defaults_at_construction():
    cfg = SyntheticConfig()
    assert cfg == SyntheticConfig(group_sizes=(40, 40, 40), sigma=5.0, mus=(0.0, 10.0, 20.0))
    assert (cfg.group_sizes, cfg.sigma, cfg.mus) == ((40, 40, 40), 5.0, (0.0, 10.0, 20.0))


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(days=0)
    with pytest.raises(ValueError):
        SyntheticConfig(n_banks=10, group_sizes=(3, 3, 3))
    with pytest.raises(ValueError):
        SyntheticConfig(sigma=0.0)
    with pytest.raises(ValueError):
        SyntheticConfig(peak_fitness=0.0)
    with pytest.raises(ValueError):
        SyntheticConfig(peak_fitness=1.2)
    with pytest.raises(ValueError):
        # raw densities would exceed 1 for tiny sigma
        SyntheticConfig(sigma=0.1, rescale=False)
    with pytest.raises(ValueError):
        fitness_profile(SyntheticConfig(), 3)
    with pytest.raises(ValueError):
        participation(SyntheticConfig(), -1)


def test_ledger_export_matches_per_trade_writer(tmp_path):
    cfg = SyntheticConfig(n_banks=12, intervals=10, days=9, seed=5)
    _, _, log = generate_with_log(cfg)
    save_transactions(tmp_path / "ledger.csv", log_to_records(log, market_index(cfg)))

    delta_s = 600 * 60 // cfg.intervals
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(LEDGER_COLUMNS)
        for day, interval, i, j in log.tolist():
            stamp_s = 8 * 3600 + interval * delta_s + delta_s // 2
            ts = datetime.combine(LOG_START_DATE + timedelta(days=day),
                                  time(stamp_s // 3600, stamp_s % 3600 // 60, stamp_s % 60))
            writer.writerow([ts.isoformat(sep="T"), bank_label(min(i, j), cfg.n_banks),
                             bank_label(max(i, j), cfg.n_banks), repr(1.0), "lender", "ON",
                             "true", "true"])
    data = (tmp_path / "ledger.csv").read_bytes()
    assert len(log) > 100
    assert data == (tmp_path / "reference.csv").read_bytes()
    assert data.count(b"\r\n") == len(log) + 1


def test_exported_columns_share_their_objects():
    # A column of one repeated text holds one object, as the bank labels and
    # stamps do; a new string per trade costs tens of MB on a large ledger.
    cfg = SyntheticConfig(n_banks=12, intervals=10, days=9, seed=5)
    _, _, log = generate_with_log(cfg)
    records = log_to_records(log, market_index(cfg))
    assert len(records) > 100
    for column, text in ((records.proposer, "lender"), (records.maturity, "ON")):
        assert len({id(v) for v in column.tolist()}) == 1
        assert column[0] == text
    assert len({id(v) for v in records.timestamp.tolist()}) == len(set(records.timestamp.tolist()))
    assert len({id(v) for v in records.lender_id.tolist()}) == len(set(records.lender_id.tolist()))
