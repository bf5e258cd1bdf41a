"""Synthetic temporal market with known multi-timescale structure.

Three groups of banks get distinct intraday and interday behavior, so a
rank-3 decomposition of the resulting activity tensor has a known ground
truth to recover:

* intraday: each group's trading fitness over the day follows a Gaussian
  bump (early / midday / late peak); two participating banks trade in an
  interval with probability equal to the product of their fitness values;
* interday: each bank independently enters the market on a given day with
  a group-specific probability (constant 0.5 / triangular ramp up then
  down / linear ramp up).

Every trade has unit volume, so tensor entry (i, t, d) is the number of
trades bank i made in interval t of day d.  Generation is deterministic
for a fixed config and collecting the trade log does not perturb the draw
sequence, so the logged ledger always reproduces the tensor exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta

import numpy as np

from tempofact.ingest import WINDOW_MINUTES, Ledger, TensorIndex
from tempofact.tensor import DenseTensor3

# Calendar anchor for exported trade logs: synthetic day 0 maps to this date.
LOG_START_DATE = date(2001, 1, 2)

# Smallest sigma for which raw Gaussian density values stay within [0, 1].
_MIN_RAW_SIGMA = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SyntheticConfig:
    """Market dimensions, group fitness profiles and participation schedules.

    Defaults follow the reference configuration: 120 banks in three equal
    groups, 20 intraday intervals, 1000 days, Gaussian fitness profiles with
    means (0, T/2, T) and spread T/4.  Those defaults are resolved at
    construction: ``group_sizes``, ``sigma`` and ``mus`` left as None hold
    the resolved values afterwards, so equal markets compare equal.
    Profiles are rescaled so each group peaks at ``peak_fitness`` (raw
    density values with ``rescale=False`` are only valid when they already
    lie in [0, 1]).
    """

    n_banks: int = 120
    intervals: int = 20
    days: int = 1000
    group_sizes: tuple[int, int, int] | None = None
    sigma: float | None = None
    mus: tuple[float, float, float] | None = None
    peak_fitness: float = 0.8
    rescale: bool = True
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.n_banks < 1:
            raise ValueError("n_banks must be >= 1")
        if self.intervals < 1:
            raise ValueError("intervals must be >= 1")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        third = self.n_banks // 3
        sizes = ((third, third, self.n_banks - 2 * third) if self.group_sizes is None
                 else tuple(int(s) for s in self.group_sizes))
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "sigma", self.intervals / 4.0 if self.sigma is None
                           else float(self.sigma))
        object.__setattr__(self, "mus", (0.0, self.intervals / 2.0, float(self.intervals))
                           if self.mus is None else tuple(float(m) for m in self.mus))
        if len(sizes) != 3 or any(s < 0 for s in sizes):
            raise ValueError(f"group_sizes must be three nonnegative ints, got {sizes!r}")
        if sum(sizes) != self.n_banks:
            raise ValueError(f"group_sizes {sizes} do not sum to n_banks={self.n_banks}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if len(self.mus) != 3 or not all(map(math.isfinite, self.mus)):
            raise ValueError(f"mus must be three finite numbers, got {self.mus!r}")
        if not 0.0 < self.peak_fitness <= 1.0:
            raise ValueError("peak_fitness must lie in (0, 1]")
        if not self.rescale and self.sigma < _MIN_RAW_SIGMA:
            raise ValueError(
                f"raw density values exceed 1 for sigma < {_MIN_RAW_SIGMA:.4f}"
            )
        with np.errstate(all="ignore"):  # refused below, not warned about
            try:
                profiles = [fitness_profile(self, g) for g in range(3)]
            except OverflowError:  # sigma ** 2 beyond float64
                profiles = [np.array(math.nan)]
        # A rescaled profile whose grid densities all underflow to 0 is NaN.
        if not all(np.isfinite(p).all() for p in profiles):
            raise ValueError(f"sigma={self.sigma!r} and mus={self.mus!r} leave a group's fitness "
                             f"profile non-finite on {self.intervals} intervals")


@dataclass(frozen=True)
class GroundTruth:
    """What the generator used: group labels, fitness profiles, schedules."""

    groups: np.ndarray            # (N,) int, values 0..2
    fitness_profiles: np.ndarray  # (3, T)
    participation: np.ndarray     # (3, D)

    def __post_init__(self) -> None:
        for name in ("groups", "fitness_profiles", "participation"):
            arr = np.asarray(getattr(self, name)).view()
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)


def fitness_profile(cfg: SyntheticConfig, group: int) -> np.ndarray:
    """Fitness of a group-``group`` bank over intervals t = 1..T.

    A Gaussian density evaluated on the interval grid, rescaled (by default)
    so the grid maximum equals ``cfg.peak_fitness``.
    """
    if group not in (0, 1, 2):
        raise ValueError(f"group must be 0, 1 or 2, got {group!r}")
    sigma = cfg.sigma
    mu = cfg.mus[group]
    t = np.arange(1, cfg.intervals + 1, dtype=np.float64)
    pdf = np.exp(-((t - mu) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    if cfg.rescale:
        pdf = pdf * (cfg.peak_fitness / pdf.max())
    return pdf


def participation(cfg: SyntheticConfig, group: int) -> np.ndarray:
    """Daily market-entry probability of a group-``group`` bank, d = 1..D.

    Group 0 sits at 0.5 every day, group 1 ramps linearly to its midpoint
    peak and back down, group 2 ramps linearly up across the whole period.
    """
    if group not in (0, 1, 2):
        raise ValueError(f"group must be 0, 1 or 2, got {group!r}")
    dd = float(cfg.days)
    d = np.arange(1, cfg.days + 1, dtype=np.float64)
    if group == 0:
        q = np.full(cfg.days, 0.5)
    elif group == 1:
        q = np.where(d <= dd / 2.0, (2.0 / dd) * (d - 1.0), (-2.0 / dd) * (d - dd))
    else:
        q = (d - 1.0) / dd
    return np.clip(q, 0.0, 1.0)


def _ground_truth(cfg: SyntheticConfig) -> GroundTruth:
    groups = np.repeat(np.arange(3), cfg.group_sizes)
    profiles = np.stack([fitness_profile(cfg, s) for s in range(3)])
    schedules = np.stack([participation(cfg, s) for s in range(3)])
    return GroundTruth(groups, profiles, schedules)


def _simulate(cfg: SyntheticConfig, collect_log: bool):
    truth = _ground_truth(cfg)
    n, t_count, d_count = cfg.n_banks, cfg.intervals, cfg.days
    fitness = truth.fitness_profiles[truth.groups]      # (N, T)
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros((n, t_count, d_count))
    log = []
    for day in range(d_count):
        entered = rng.random(n) < truth.participation[truth.groups, day]
        ids = np.nonzero(entered)[0]
        if ids.size < 2:
            continue
        fit = fitness[ids].T                            # (T, n_active)
        draws = rng.random((t_count, ids.size, ids.size))
        probs = fit[:, :, None] * fit[:, None, :]
        upper = np.triu(np.ones((ids.size, ids.size), dtype=bool), 1)
        trades = (draws < probs) & upper
        counts = trades.sum(axis=2) + trades.sum(axis=1)  # (T, n_active)
        x[ids, :, day] += counts.T
        if collect_log:
            t_idx, i_idx, j_idx = np.nonzero(trades)
            log.append(np.column_stack([np.full(t_idx.size, day), t_idx, ids[i_idx], ids[j_idx]]))
    log = np.concatenate(log) if log else np.empty((0, 4), dtype=np.intp)
    return DenseTensor3(x, "count"), truth, log


def generate(cfg: SyntheticConfig) -> tuple[DenseTensor3, GroundTruth]:
    """Simulate the market and return its activity tensor with ground truth."""
    tensor, truth, _ = _simulate(cfg, collect_log=False)
    return tensor, truth


def generate_with_log(cfg: SyntheticConfig):
    """Like :func:`generate`, but also return the trade log: an ``(n, 4)``
    integer array with one ``(day, interval, i, j)`` row per trade, ``i < j``.

    The same random draws are consumed either way, so the tensor is
    bit-identical to the one from :func:`generate`.
    """
    return _simulate(cfg, collect_log=True)


def bank_label(index: int, n_banks: int) -> str:
    """Stable zero-padded bank identifier; lexicographic order == index order."""
    width = max(3, len(str(n_banks - 1)))
    return f"B{index:0{width}d}"


def market_index(cfg: SyntheticConfig) -> TensorIndex | None:
    """The index of every bank and every day of the market: banks by
    :func:`bank_label`, day d on ``LOG_START_DATE`` + d, and the trading
    window cut into ``cfg.intervals`` intervals; None when that count does
    not divide the window."""
    if WINDOW_MINUTES % cfg.intervals != 0:
        return None
    return TensorIndex(
        tuple(bank_label(b, cfg.n_banks) for b in range(cfg.n_banks)),
        tuple(LOG_START_DATE + timedelta(days=d) for d in range(cfg.days)),
        WINDOW_MINUTES // cfg.intervals,
    )


def log_to_records(log, index: TensorIndex) -> Ledger:
    """Express simulated trades in the transaction-log schema.

    Each trade is stamped at the midpoint of its interval on its day, both
    read off ``index``, the market's :func:`market_index`; the lower-index
    bank is written as the proposing lender, volumes are 1.0 and all banks
    are flagged domestic.  Intended for pipeline testing: binning these
    records at the matching resolution rebuilds the generated tensor.  The
    columns share their objects: trades with the same stamp hold one
    datetime, each bank one label, and all trades one ``"lender"`` and one
    ``"ON"`` string (``np.full`` with ``dtype=object`` would store a new
    string per trade).
    """
    intervals = index.intervals
    starts = [time.fromisoformat(index.interval_label(j)) for j in range(intervals)]
    half = timedelta(minutes=index.delta / 2)
    log = np.asarray(log, dtype=np.intp).reshape(-1, 4)
    day, interval, i, j = log.T
    slots, slot_of = np.unique(day * intervals + interval, return_inverse=True)
    stamps = np.empty(slots.size, dtype=object)
    for k, slot in enumerate(slots.tolist()):
        d, t = divmod(slot, intervals)
        stamps[k] = datetime.combine(index.day_dates[d], starts[t]) + half
    labels = np.array(index.bank_ids, dtype=object)
    n = len(log)
    return Ledger(
        timestamp=stamps[slot_of],
        lender_id=labels[np.minimum(i, j)],
        borrower_id=labels[np.maximum(i, j)],
        amount=np.ones(n),
        proposer=np.repeat(np.array(["lender"], dtype=object), n),
        maturity=np.repeat(np.array(["ON"], dtype=object), n),
        lender_domestic=np.ones(n, dtype=bool),
        borrower_domestic=np.ones(n, dtype=bool),
    )
