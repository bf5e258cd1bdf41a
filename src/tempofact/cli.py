"""Command-line pipeline: synth, ingest, fit, corcondia, analyze.

Every command writes its outputs plus a run manifest into --out.  The
manifest records the resolved configuration, input digests, seed and
output digests; rerunning the same command on the same inputs reproduces
every output byte for byte (only the manifest's duration field varies).
Outputs are staged in a hidden directory on --out's file system and the
manifest moves in last, so a directory that holds a manifest holds every
file it lists (a system crash aside: nothing is fsynced).

Exit codes: 0 success, 1 usage/validation, 2 I/O (a malformed input file
included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import shutil
import sys
import time as _time
from pathlib import Path

import numpy as np

from tempofact import __version__, analysis, io as tfio
from tempofact.als import FitConfig, FitError, FitResult, best_restart, fit_restarts
from tempofact.corcondia import rank_scan
from tempofact.ingest import (
    LedgerFormatError,
    build_tensor,
    check_delta,
    filter_overnight,
    load_transactions,
    moving_average,
    save_transactions,
)
from tempofact.synthetic import (
    SyntheticConfig,
    generate,
    generate_with_log,
    log_to_records,
    market_index,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _input(path) -> tuple:
    """``(path, sha256)`` of an input file, hashed once per command."""
    return path, _sha256(Path(path))


def _publish(out: Path, command: str, config: dict, inputs: dict, seed,
             started: float, writers: dict) -> None:
    """Write each output of ``writers`` (name -> function of a path), then the
    manifest, into a stage and move them in, the manifest last: a directory
    that holds a manifest holds every file it lists."""
    reuse = out.is_dir()
    if reuse:  # stage inside: same file system, writable when the outputs are
        stage = out / f".stage-{os.urandom(6).hex()}"
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        stage = out.parent / f".{out.name[:32]}.stage-{os.urandom(6).hex()}"  # within NAME_MAX
    stage.mkdir()
    try:
        for name, write in writers.items():
            write(stage / name)
        tfio.dump_json(stage / "manifest.json", {
            "command": command,
            "tool_version": __version__,
            "config": config,
            "inputs": {name: {"path": str(p), "sha256": digest}
                       for name, (p, digest) in inputs.items()},
            "seed": seed,
            "duration_s": _time.perf_counter() - started,
            "outputs": {name: _sha256(stage / name) for name in sorted(writers)},
        })
        if reuse:
            (out / "manifest.json").unlink(missing_ok=True)
            for name in [*writers, "manifest.json"]:
                os.replace(stage / name, out / name)
        else:
            os.rename(stage, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _float_tuple(text: str, n: int, what: str, convert=float):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise UsageError(f"{what} needs {n} comma-separated values, got {text!r}")
    return tuple(convert(p) for p in parts)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tempofact", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth",
                       help="generate a synthetic market tensor with ground truth")
    p.add_argument("--banks", type=int, default=120)
    p.add_argument("--intervals", type=int, default=20)
    p.add_argument("--days", type=int, default=1000)
    p.add_argument("--group-sizes", type=str, default=None,
                   help="three comma-separated sizes summing to --banks")
    p.add_argument("--sigma", type=float, default=None, help="fitness spread (default T/4)")
    p.add_argument("--mus", type=str, default=None,
                   help="three comma-separated profile means (default 0,T/2,T)")
    p.add_argument("--peak-fitness", type=float, default=0.8)
    p.add_argument("--raw-pdf", action="store_true",
                   help="use raw density values instead of peak rescaling")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--ledger", action="store_true", help="also write the trade log CSV")

    p = sub.add_parser("ingest",
                       help="bin a transaction-log CSV into a tensor")
    p.add_argument("ledger", type=str)
    p.add_argument("--delta", type=int, default=15, help="interval width in minutes")

    for name, extra in (("fit", "fit one rank"), ("corcondia", "scan ranks and select one")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("tensor", type=str)
        if name == "fit":
            p.add_argument("--rank", type=int, required=True)
        else:
            p.add_argument("--rmax", type=int, required=True)
            p.add_argument("--lcc", type=float, default=85.0)
        p.add_argument("--restarts", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-sweeps", type=int, default=500)
        p.add_argument("--rel-tol", type=float, default=1e-8)
        p.add_argument("--init", type=str, default="random-scaled",
                       choices=("random-scaled", "random-uniform"))
        p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("analyze",
                       help="post-process a fit into activity reports")
    p.add_argument("fit", type=str)
    p.add_argument("--index", type=str, required=True)
    p.add_argument("--ledger", type=str, default=None,
                   help="transaction log for role/nationality statistics")
    p.add_argument("--percentile", type=float, default=90.0)
    p.add_argument("--smooth-window", type=int, default=20)
    for p in sub.choices.values():
        p.add_argument("--out", type=str, required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    handler = {
        "synth": _cmd_synth,
        "ingest": _cmd_ingest,
        "fit": _cmd_fit,
        "corcondia": _cmd_corcondia,
        "analyze": _cmd_analyze,
    }[args.command]
    try:
        started = _time.perf_counter()
        config, inputs, seed, writers, message = handler(args)
        _publish(Path(args.out), args.command, config, inputs, seed, started, writers)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (tfio.FileFormatError, LedgerFormatError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except FitError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(message)
    return EXIT_OK


def _cmd_synth(args):
    cfg = SyntheticConfig(
        n_banks=args.banks,
        intervals=args.intervals,
        days=args.days,
        group_sizes=(_float_tuple(args.group_sizes, 3, "--group-sizes", int)
                     if args.group_sizes else None),
        sigma=args.sigma,
        mus=_float_tuple(args.mus, 3, "--mus") if args.mus else None,
        peak_fitness=args.peak_fitness,
        rescale=not args.raw_pdf,
        seed=args.seed,
    )
    writers = {}
    if args.ledger:
        tensor, truth, log = generate_with_log(cfg)
        ledger = log_to_records(log, cfg)
        writers["ledger.csv"] = lambda p: save_transactions(p, ledger)
    else:
        tensor, truth = generate(cfg)
    truth_doc = tfio.ground_truth_to_dict(truth, cfg)
    writers["tensor.bin"] = lambda p: tfio.write_tensor(p, tensor)
    writers["ground_truth.json"] = lambda p: tfio.dump_json(p, truth_doc)
    index = market_index(cfg)
    if index is not None:
        writers["index.json"] = lambda p: tfio.dump_json(p, tfio.index_to_dict(index))
    return truth_doc["config"], {}, cfg.seed, writers, (
        f"synthetic market written to {Path(args.out)} "
        f"(dims {tensor.dims[0]}x{tensor.dims[1]}x{tensor.dims[2]}, "
        f"total mass {tensor.mass:.0f})")


def _cmd_ingest(args):
    check_delta(args.delta)
    loaded = load_transactions(args.ledger)
    ledger = args.ledger, loaded.sha256
    overnight = filter_overnight(loaded.records)
    tensor, index, excluded = build_tensor(overnight, args.delta)
    facts = analysis.bank_facts(overnight, index)
    report = {
        "rows_parsed": len(loaded.records),
        "rows_rejected": [{"line": i.line, "message": i.message} for i in loaded.issues],
        "overnight_kept": len(overnight),
        "out_of_window": [
            {"timestamp": ts.isoformat(), "reason": reason} for ts, reason in excluded
        ],
        "banks": len(index.bank_ids),
        "days": len(index.day_dates),
        "delta_minutes": args.delta,
        "total_mass": tensor.mass,
    }
    writers = {
        "tensor.bin": lambda p: tfio.write_tensor(p, tensor),
        "index.json": lambda p: tfio.dump_json(p, tfio.index_to_dict(index)),
        "bank_facts.json": lambda p: tfio.write_bank_facts(p, facts, ledger[1]),
        "ingest_report.json": lambda p: tfio.dump_json(p, report),
    }
    if not overnight:
        print("warning: no overnight transactions; writing an empty tensor", file=sys.stderr)
    return {"delta": args.delta}, {"ledger": ledger}, None, writers, (
        f"tensor {tensor.dims[0]}x{tensor.dims[1]}x{tensor.dims[2]} written to {Path(args.out)} "
        f"({len(loaded.issues)} rejected rows, {len(excluded)} out-of-window)")


def _fit_config(args, rank: int) -> FitConfig:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    return FitConfig(
        rank=rank,
        max_sweeps=args.max_sweeps,
        rel_tol=args.rel_tol,
        restarts=args.restarts,
        seed=args.seed,
        init=args.init,
    )


def _restart_summary(results) -> list:
    rows = []
    for k, res in enumerate(results):
        if not isinstance(res, FitResult):
            rows.append({"restart": k, "failed": True, "reason": str(res)})
        else:
            rows.append({
                "restart": k,
                "seed": res.seed,
                "rel_error": res.rel_error,
                "sweeps_used": res.sweeps_used,
                "converged": res.converged,
            })
    return rows


def _cmd_fit(args):
    cfg = _fit_config(args, args.rank)
    tensor, digest = tfio.read_tensor(args.tensor)
    results = fit_restarts(tensor, cfg, jobs=args.jobs)
    best = best_restart(results)
    writers = {
        "fit.json": lambda p: tfio.dump_json(p, tfio.fit_result_to_dict(best)),
        "restarts.json": lambda p: tfio.dump_json(p, _restart_summary(results)),
    }
    return _cfg_dict(cfg, args.jobs), {"tensor": (args.tensor, digest)}, cfg.seed, writers, (
        f"rank {cfg.rank}: best rel_error {best.rel_error:.6e} "
        f"(restart seed {best.seed}, {best.sweeps_used} sweeps)")


def _cfg_dict(cfg: FitConfig, jobs: int) -> dict:
    return {**dataclasses.asdict(cfg), "jobs": jobs}


def _cmd_corcondia(args):
    if args.rmax < 1:
        raise UsageError(f"--rmax must be >= 1, got {args.rmax}")
    cfg = _fit_config(args, rank=1)
    tensor, digest = tfio.read_tensor(args.tensor)
    report = rank_scan(tensor, args.rmax, args.lcc, cfg, jobs=args.jobs)
    writers = {
        "rank_scan.json": lambda p: tfio.dump_json(p, tfio.rank_scan_to_dict(report)),
        "rank_scan.csv": lambda p: tfio.write_rank_scan_csv(p, report),
    }
    config = _cfg_dict(cfg, args.jobs)
    config.update({"rmax": args.rmax, "lcc": args.lcc})
    del config["rank"]
    lines = []
    for rec in report.records:
        mean = "failed" if rec.cc_mean is None else f"{rec.cc_mean:.2f}"
        lines.append(f"R={rec.rank}: mean cc {mean} ({rec.n_failed} failed runs)")
    lines.append(f"selected rank: {report.selected_rank if report.selected_rank else 'none'}")
    return config, {"tensor": (args.tensor, digest)}, cfg.seed, writers, "\n".join(lines)


def _ledger_facts(ledger, index, index_dir: Path, inputs: dict) -> analysis.BankFacts:
    """The facts ingest wrote beside the index if they describe this ledger
    and these banks, else the facts of the parsed ledger.  Records the files
    used in ``inputs``, the ledger with the digest of the bytes parsed when
    it is parsed."""
    inputs["ledger"] = _input(ledger)
    stored = index_dir / "bank_facts.json"
    if stored.exists():
        facts, recorded_sha256 = tfio.read_bank_facts(stored)
        if recorded_sha256 == inputs["ledger"][1] and facts.bank_ids == index.bank_ids:
            inputs["bank_facts"] = _input(stored)
            return facts
    loaded = load_transactions(ledger)
    inputs["ledger"] = ledger, loaded.sha256
    return analysis.bank_facts(filter_overnight(loaded.records), index)


def _day_rows(index, *blocks) -> list:
    """One row per day: the ISO date, then row j of every (days x k) block."""
    table = np.hstack(blocks)
    return [[day.isoformat()] + list(row) for day, row in zip(index.day_dates, table)]


def _cmd_analyze(args):
    fit = tfio.fit_result_from_dict(tfio.load_json(args.fit))
    index = tfio.read_index(args.index)
    n, t, d = fit.factors.dims
    if (len(index.bank_ids), index.intervals, len(index.day_dates)) != (n, t, d):
        raise UsageError(
            f"index describes {len(index.bank_ids)} banks x {index.intervals} intervals "
            f"x {len(index.day_dates)} days but the fit has {n}x{t}x{d}"
        )
    inputs = {"fit": _input(args.fit), "index": _input(args.index)}
    facts = None
    if args.ledger is not None:
        facts = _ledger_facts(args.ledger, index, Path(args.index).parent, inputs)

    window = analysis.morning_window(index.delta)
    order = analysis.order_components(fit.factors, window)
    k = fit.factors.permute(order).normalize()
    rank = k.rank
    names = [f"component_{r + 1}" for r in range(rank)]
    with_smoothed = ["date"] + names + [f"{c}_smoothed" for c in names]

    def smooth(m):
        return np.column_stack([moving_average(m[:, r], args.smooth_window) for r in range(rank)])

    cw = k.weighted_C
    shares = analysis.component_share(k)
    members = analysis.affiliate_banks(k, args.percentile)
    jac = analysis.jaccard_matrix(members)
    means = np.column_stack([analysis.membership_mean(k, r, members[r]) for r in range(rank)])
    reports = [
        ("intraday_profiles.csv", ["interval_start"] + names,
         [[index.interval_label(j)] + list(k.B[j]) for j in range(t)]),
        ("interday_activity.csv", with_smoothed, _day_rows(index, cw, smooth(cw))),
        ("component_shares.csv", with_smoothed, _day_rows(index, shares, smooth(shares))),
        ("affiliation_sizes.csv", ["component", "n_banks"],
         [[c, len(m)] for c, m in zip(names, members)]),
        ("jaccard.csv", ["component"] + names, [[c] + list(row) for c, row in zip(names, jac)]),
        ("membership_means.csv", ["date"] + names, _day_rows(index, means)),
    ]
    bundle = {
        "format": "analysis",
        "version": 1,
        "component_order": [int(v) for v in order],
        "morning_window_intervals": [int(j) for j in window],
        "percentile": args.percentile,
        "smooth_window": args.smooth_window,
        "affiliation": {c: [index.bank_ids[i] for i in m] for c, m in zip(names, members)},
        "jaccard": [[float(v) for v in row] for row in jac],
        "roles": None,
        "nationality": None,
    }

    if facts is not None:
        p_domestic = float(facts.domestic.mean())
        roles, nationality = {}, {}
        for c, m in zip(names, members):
            stats = analysis.attribute_frequencies(facts, m)
            roles[c] = {
                "mean": [float(v) for v in stats.mean],
                "ci95": [[float(a), float(b)] for a, b in stats.ci95],
                "n_banks": int(stats.bank_indices.size),
                "excluded": [index.bank_ids[i] for i in stats.excluded],
            }
            band = analysis.nationality_test(m, facts.domestic, p_domestic)
            nationality[c] = {
                "n_members": band.n_members,
                "observed_share": band.observed_share,
                "band": list(band.band),
                "outside": band.outside,
            }
        reports += [
            ("role_frequencies.csv", ["component", "role", "mean", "ci_lo", "ci_hi"],
             [[c, role, mean, *ci] for c, s in roles.items()
              for role, mean, ci in zip(analysis.ROLES, s["mean"], s["ci95"])]),
            ("nationality.csv", ["component", "n_members", "observed_share", "band_lo",
                                 "band_hi", "outside", "p"],
             [[c, s["n_members"], s["observed_share"], *s["band"], str(s["outside"]).lower(),
               p_domestic] for c, s in nationality.items()]),
        ]
        bundle["roles"] = roles
        bundle["nationality"] = {"p": p_domestic, "flag_conflicts": list(facts.conflicts),
                                 "components": nationality}

    writers = {name: lambda p, h=header, r=rows: tfio.write_csv(p, h, r)
               for name, header, rows in reports}
    writers["analysis.json"] = lambda p: tfio.dump_json(p, bundle)
    config = {"percentile": args.percentile, "smooth_window": args.smooth_window,
              "ledger_provided": args.ledger is not None}
    return config, inputs, None, writers, (
        f"analysis reports written to {Path(args.out)} ({rank} components)")


if __name__ == "__main__":
    sys.exit(main())
