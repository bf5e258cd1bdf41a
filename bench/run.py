"""tempofact benchmark: three analyst workloads through ``tempofact.cli.main``.

    python3 bench/run.py --workload scan-ref --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  Every CLI command runs in a fresh
process (bench/child.py) with BLAS pinned to one thread, one command at a
time, so a workload is a single client in a closed loop.  The run repeats
the workload's command sequence (a pass) while a further pass still fits in
``--seconds``, and always makes at least the workload's ``min_passes``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
unwrapped commands.  ``--trace 1`` makes one untraced pass, one with every
layer wrapped (bench/layers.py) and one more untraced pass, and reports the
per-layer metrics.  The last line of stdout is the JSON result; the lines
before it are the environment block and a readable report.

scan-ref and fit-paper are fixed problems: the reference seeds, market
12345 and ALS restarts 42-45, whatever ``--seed`` is (see WORKLOADS).
ledger-pipeline makes its market from ``--seed`` (seed 12345 + seed) and
starts its restarts at 42 + seed.  ``wall_s`` is the mean wall time of the
run's passes.  Generated input tensors are cached under
``.bench_cache/`` keyed by their synth arguments and checked against the
SHA-256 in their manifest before reuse; generating them is in no metric.
bench/README.md says why each workload exists and what should move it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import read_batches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
WORK = ROOT / ".bench_work"

SYNTH_SEED = 12345
RESTART_SEED = 42
RESTARTS = 4
LEDGER_DAYS = 50
BLAS_THREADS = 1
SETUP_SAMPLES = 2        # import-only processes before the first pass; one follows each pass
CACHED_INPUTS_PER_WORKLOAD = 3
MEASURE_BUDGET_S = 170   # a run must end within 180 s once its input exists
GENERATE_TIMEOUT_S = 600

# The end-to-end metrics of BENCHMARK.json, in its order, with their units.
E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "best_rel_error": "ratio"}


@dataclass
class Workload:
    name: str
    synth: callable | None  # seed -> synth arguments of the cached input, if any
    steps: callable         # (input_dir, pass_dir, seed) -> [(command, argv)]
    check: callable         # (input_dir, pass_dir) -> [failure messages]
    min_passes: int = 1     # untraced passes a run makes even past --seconds


def _scan_steps(inp, out, seed):
    return [("corcondia", ["corcondia", inp / "tensor.bin", "--rmax", 4, "--lcc", 85,
                           "--restarts", RESTARTS, "--seed", RESTART_SEED,
                           "--jobs", 1, "--out", out / "corcondia"])]


def _paper_steps(inp, out, seed):
    return [("fit", ["fit", inp / "tensor.bin", "--rank", 3, "--restarts", RESTARTS,
                     "--seed", RESTART_SEED, "--jobs", 2, "--out", out / "fit"])]


def _ledger_steps(inp, out, seed):
    return [
        ("synth", ["synth", "--days", LEDGER_DAYS, "--ledger", "--seed", SYNTH_SEED + seed,
                   "--out", out / "synth"]),
        ("ingest", ["ingest", out / "synth" / "ledger.csv", "--delta", 30,
                    "--out", out / "ingest"]),
        ("fit", ["fit", out / "ingest" / "tensor.bin", "--rank", 3, "--restarts", RESTARTS,
                 "--seed", RESTART_SEED + seed, "--jobs", 1, "--out", out / "fit"]),
        ("analyze", ["analyze", out / "fit" / "fit.json", "--index", out / "ingest" / "index.json",
                     "--ledger", out / "synth" / "ledger.csv", "--out", out / "analyze"]),
    ]


# --------------------------------------------------------------------------
# correctness gates


def read_tensor(path: Path):
    """Decode the TENSOR3 layout of docs/FORMATS.md without importing tempofact."""
    import numpy as np

    data = path.read_bytes()
    if data[:8] != b"TENSOR3\n":
        raise ValueError(f"{path}: not a TENSOR3 file")
    _, tag_len = struct.unpack_from("<II", data, 8)
    dims = struct.unpack_from("<QQQ", data, 16 + tag_len)
    return np.frombuffer(data, dtype="<f8", offset=40 + tag_len).reshape(dims)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check_scan(inp, out):
    selected = _load(out / "corcondia" / "rank_scan.json")["selected_rank"]
    return [] if selected == 3 else [f"rank scan selected {selected}, expected 3"]


def _similarity(x, y) -> float:
    """Pearson correlation; uncentred cosine when either vector is constant."""
    import numpy as np

    x, y = np.asarray(x, float), np.asarray(y, float)
    flat = [np.ptp(v) < 1e-12 * max(1.0, float(np.abs(v).max())) for v in (x, y)]
    if not any(flat):
        x, y = x - x.mean(), y - y.mean()
    denom = np.linalg.norm(x) * np.linalg.norm(y)
    return float(x @ y / denom) if denom > 0 else float("nan")


def _check_paper(inp, out):
    """Acceptance criterion 2 on the paper-scale market."""
    import numpy as np

    fit = _load(out / "fit" / "fit.json")
    truth = _load(inp / "ground_truth.json")
    b = np.asarray(fit["factors"]["intraday"])
    c = np.asarray(fit["factors"]["interday"])
    profiles, schedules = truth["fitness_profiles"], truth["participation"]
    scores = [[_similarity(profiles[s], b[:, r]) for r in range(3)] for s in range(3)]
    perm = max(itertools.permutations(range(3)),
               key=lambda p: sum(scores[s][p[s]] for s in range(3)))
    intraday = min(scores[s][perm[s]] for s in range(3))
    interday = min(_similarity(schedules[s], c[:, perm[s]]) for s in range(3))
    print(f"recovery: intraday {intraday:.4f} (gate 0.95), interday {interday:.4f} (gate 0.90)")
    failures = []
    if not intraday >= 0.95:
        failures.append(f"intraday profiles recovered at {intraday:.4f} < 0.95")
    if not interday >= 0.90:
        failures.append(f"interday schedules recovered at {interday:.4f} < 0.90")
    return failures


def _check_ledger(inp, out):
    import numpy as np

    failures = []
    synth = read_tensor(out / "synth" / "tensor.bin")
    ingested = read_tensor(out / "ingest" / "tensor.bin")
    if synth.shape != ingested.shape or not np.array_equal(synth, ingested):
        failures.append(f"ingested tensor {ingested.shape} differs from synth tensor {synth.shape}")
    with open(out / "synth" / "ledger.csv", newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        column = next(rows).index("amount_mEUR")
        volume = math.fsum(float(row[column]) for row in rows)
    mass = math.fsum(ingested.ravel().tolist())
    if mass != 2.0 * volume:
        failures.append(f"ingested mass {mass} is not twice the ledger volume {volume}")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        # An R = 4 restart converges after 29 to 285 sweeps or stalls
        # anywhere from sweep 19 on, depending on the seeds, so the scan's
        # time follows the seed; scan-ref is one fixed problem, the
        # reference market 12345 with restarts 42-45.  Restart 43 stalls
        # falsely at R = 4, sweep 93 (ROADMAP item 3).
        Workload("scan-ref", lambda seed: ["--seed", SYNTH_SEED], _scan_steps, _check_scan),
        # At this size 0-3 of 4 restarts stall within 6 sweeps, depending on
        # the seeds, and a restart's fixed cost (shipping the tensor, three
        # unfolded copies) is as large as 5-6 sweeps; no per-sweep or
        # per-restart rate is then comparable across seeds, so fit-paper is
        # one fixed problem: the reference seeds, market 12345 and restarts
        # 42-45, none of which fails.
        Workload("fit-paper", lambda seed: ["--banks", 289, "--intervals", 40, "--days", 2000,
                                            "--seed", SYNTH_SEED],
                 _paper_steps, _check_paper),
        # Its passes vary by up to a quarter within a run, so a run makes three
        # shorter passes rather than one long one.
        Workload("ledger-pipeline", None, _ledger_steps, _check_ledger, min_passes=3),
    )
}


# --------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TEMPOFACT_SRC"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(work: Path, tag: str, mode: str, argv: list, deadline: float) -> dict:
    """Run child.py in its own session; kill the whole group at ``deadline``."""
    spans = work / "spans" / tag
    spans.mkdir(parents=True)
    result = spans / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), str(spans), mode,
           *[str(a) for a in argv]]
    with open(spans / "stdout.log", "wb") as out, open(spans / "stderr.log", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if code != 0 or not result.exists():
        tail = (spans / "stderr.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"benchmark child for {argv[:1]} exited {code}:\n{tail}")
    res = _load(result)
    res["spans_dir"] = spans
    if res["rc"] != 0:
        print(f"command {' '.join(map(str, argv))} exited {res['rc']}: "
              + (spans / "stderr.log").read_text(errors="replace").strip()[-500:])
    return res


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def cached_input(work: Path, workload: Workload, seed: int) -> Path | None:
    """The workload's generated input directory, generated once per key."""
    if workload.synth is None:
        return None
    args = [str(a) for a in workload.synth(seed)]
    key = hashlib.sha256(json.dumps(["synth", *args]).encode()).hexdigest()[:16]
    root = CACHE / "inputs" / workload.name
    target = root / key
    manifest = target / "manifest.json"
    if manifest.exists():
        digests = _load(manifest)["outputs"]
        if all(sha256(target / name) == digest for name, digest in digests.items()):
            os.utime(target)
            return target
        print(f"cached input {target} fails its SHA-256 check; regenerating")
    root.mkdir(parents=True, exist_ok=True)
    staging = root / f"{key}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    started = time.perf_counter()
    res = run_child(work, f"generate-{key}", "plain",
                    ["synth", *args, "--out", staging], time.monotonic() + GENERATE_TIMEOUT_S)
    if res["rc"] != 0:
        raise RuntimeError("input generation failed")
    shutil.rmtree(target, ignore_errors=True)
    os.replace(staging, target)
    print(f"generated input synth {' '.join(args)} in {time.perf_counter() - started:.1f} s "
          f"(outside every metric)")
    entries = sorted((p for p in root.iterdir() if p.is_dir()), key=lambda p: p.stat().st_mtime)
    for stale in entries[:-CACHED_INPUTS_PER_WORKLOAD]:
        if stale != target:
            shutil.rmtree(stale, ignore_errors=True)
    return target


# --------------------------------------------------------------------------
# one pass of a workload


@dataclass
class Command:
    name: str
    jobs: int
    result: dict
    out_dir: Path

    @property
    def wall_s(self) -> float:
        return self.result["wall_s"]


@dataclass
class Pass:
    traced: bool
    commands: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)


def run_pass(work: Path, workload: Workload, inp: Path, seed: int, index: int,
             traced: bool, deadline: float) -> Pass:
    out = work / f"pass{index}"
    out.mkdir()
    p = Pass(traced)
    for name, argv in workload.steps(inp, out, seed):
        jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
        res = run_child(work, f"pass{index}-{name}", "layers" if traced else "plain", argv,
                        deadline)
        p.commands.append(Command(name, jobs, res, Path(argv[argv.index("--out") + 1])))
    return p


def restart_outcomes(p: Pass):
    """(attempted, failed) restarts of a pass's ALS commands, read from their outputs."""
    attempted = failed = 0
    for cmd in p.commands:
        if cmd.name not in ("fit", "corcondia") or cmd.result["rc"] != 0:
            continue
        if cmd.name == "corcondia":
            ranks = _load(cmd.out_dir / "rank_scan.json")["ranks"]
            attempted += sum(len(r["cc_values"]) for r in ranks)
            failed += sum(r["n_failed"] for r in ranks)
        else:
            rows = _load(cmd.out_dir / "restarts.json")
            attempted += len(rows)
            failed += sum(1 for r in rows if r.get("failed"))
    return attempted, failed


def best_rel_error(cmd: Command):
    if cmd.name == "corcondia":
        scan = _load(cmd.out_dir / "rank_scan.json")
        if scan["selected_rank"] is None:
            return None
        errors = scan["ranks"][scan["selected_rank"] - 1]["rel_errors"]
        return min(e for e in errors if e is not None)
    return _load(cmd.out_dir / "fit.json")["rel_error"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    counts: dict
    in_parent: bool
    top_level: bool


def command_spans(cmd: Command) -> list:
    spans = []
    for in_parent, batch in read_batches(cmd.result["spans_dir"], cmd.result["pid"]):
        child_time = [0.0] * len(batch)
        for name, start, end, parent, counts in batch:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(batch):
            spans.append(Span(name, start, end, end - start - child_time[i], counts or {},
                              in_parent, parent < 0))
    return spans


def e2e_metrics(p: Pass) -> dict:
    metrics = {
        "peak_rss_mb": max(max(c.result["maxrss_kb"], c.result["children_maxrss_kb"])
                           for c in p.commands) / 1024.0,
    }
    errors = [best_rel_error(c) for c in p.commands
              if c.name in ("fit", "corcondia") and c.result["rc"] == 0]
    errors = [e for e in errors if e is not None]
    if errors:
        metrics["best_rel_error"] = min(errors)
    return metrics


# --------------------------------------------------------------------------
# per-layer metrics of a traced pass

PER_LAYER = (
    "tensor.khatri_rao.calls", "tensor.khatri_rao.self_s",
    "nnls.solve_nnls.calls", "nnls.solve_nnls.self_s", "nnls.rounds", "nnls.unconverged",
    "als.restarts", "als.restarts_failed", "als.sweeps", "als.sweep_ms",
    "als.fit_once.self_s", "als.fit_restarts.self_s", "als.pool_overhead_s",
    "als.worker_busy_frac",
    "corcondia.tucker_core.calls", "corcondia.tucker_core.self_s", "corcondia.degenerate",
    "corcondia.rank_scan.self_s",
    "io.read_tensor.self_s", "io.write_tensor.self_s", "io.dump_json.self_s",
    "io.bytes_read", "io.bytes_written",
    "synthetic.generate.self_s", "synthetic.log_to_records.self_s", "synthetic.trades",
    "ingest.load_transactions.calls", "ingest.load_transactions.self_s", "ingest.rows_per_s",
    "ingest.build_tensor.self_s", "ingest.save_transactions.self_s",
    "ingest.moving_average.self_s",
    "analysis.attribute_frequencies.self_s", "analysis.domestic_flags_from_records.self_s",
    "analysis.other.self_s",
    "cli.synth.self_s", "cli.ingest.self_s", "cli.fit.self_s", "cli.corcondia.self_s",
    "cli.analyze.self_s",
    "trace.overhead_s",
    "synth_s", "ingest_s", "fit_s", "corcondia_s", "analyze_s", "sweeps_per_s",
    "fail_frac",
)

# Layers that run inside fit_restarts workers when jobs > 1.
WORKER_LAYERS = ("tensor.", "nnls.", "als.restarts", "als.sweep", "als.fit_once",
                 "als.pool_overhead_s", "als.worker_busy_frac")


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def layer_metrics(traced: Pass, plain: Pass):
    """Per-layer metrics of ``traced``, and per-call samples for the report.

    Worker-side layers are summed over workers, so with jobs = 2 their self
    times add up to about twice the ``fit_restarts`` span that covers them.
    """
    m = {name: 0.0 if unit_of(name) in ("s", "ms", "1/s", "ratio") else 0 for name in PER_LAYER}
    per_call: dict = {}
    fit_restarts_s = fit_once_per_job_s = 0.0
    rows = 0
    for cmd in traced.commands:
        spans = command_spans(cmd)
        top = sum(s.end - s.start for s in spans if s.in_parent and s.top_level)
        m[f"cli.{cmd.name}.self_s"] += cmd.wall_s - top
        layers_self = sum(s.self_s for s in spans if s.in_parent)
        print(f"  {cmd.name}: wall {cmd.wall_s:.4f} s = cli self {cmd.wall_s - top:.4f} s "
              f"+ layer self times {layers_self:.4f} s in the command process")
        for s in spans:
            per_call.setdefault(s.name, []).append(s.end - s.start)
            calls = f"{s.name}.calls"
            if calls in m:
                m[calls] += 1
            key = f"{s.name}.self_s"
            if key in m:
                m[key] += s.self_s
            elif s.name.startswith("analysis."):
                m["analysis.other.self_s"] += s.self_s
            c = s.counts
            if s.name == "nnls.solve_nnls":
                m["nnls.rounds"] += c.get("rounds", 0)
                m["nnls.unconverged"] += c.get("unconverged", 0)
            elif s.name == "als.fit_once":
                m["als.restarts"] += 1
                m["als.restarts_failed"] += c.get("failed", 0)
                m["als.sweeps"] += c.get("sweeps", 0)
                fit_once_per_job_s += (s.end - s.start) / cmd.jobs
            elif s.name == "als.fit_restarts" and s.in_parent:
                fit_restarts_s += s.end - s.start
            elif s.name == "corcondia.tucker_core":
                m["corcondia.degenerate"] += c.get("degenerate", 0)
            elif s.name == "synthetic.log_to_records":
                m["synthetic.trades"] += c.get("trades", 0)
            m["io.bytes_read"] += c.get("bytes_read", 0)
            m["io.bytes_written"] += c.get("bytes_written", 0)
            rows += c.get("rows", 0)

    fit_once_s = sum(per_call.get("als.fit_once", []))
    if m["als.sweeps"]:
        m["als.sweep_ms"] = 1000.0 * fit_once_s / m["als.sweeps"]
    m["als.pool_overhead_s"] = fit_restarts_s - fit_once_per_job_s
    if fit_restarts_s > 0:
        m["als.worker_busy_frac"] = fit_once_per_job_s / fit_restarts_s
    load_s = sum(per_call.get("ingest.load_transactions", []))
    if load_s > 0:
        m["ingest.rows_per_s"] = rows / load_s
    m["trace.overhead_s"] = traced.wall_s - plain.wall_s
    for cmd in plain.commands:
        m[f"{cmd.name}_s"] += cmd.wall_s
    # The sweep count is deterministic, so the traced pass's count goes with
    # the untraced pass's time.
    als_s = m["fit_s"] + m["corcondia_s"]
    m["sweeps_per_s"] = m["als.sweeps"] / als_s if als_s > 0 else 0.0
    attempted, failed = restart_outcomes(plain)
    m["fail_frac"] = failed / attempted if attempted else 0.0
    if len(per_call.get("als.fit_once", [])) != restart_outcomes(traced)[0]:
        # Some restart left no span (a worker's spans were lost).
        for name in PER_LAYER:
            if name.startswith(WORKER_LAYERS) or name == "sweeps_per_s":
                del m[name]
    return m, per_call


# --------------------------------------------------------------------------
# checks across passes and runs


def output_digests(p: Pass) -> dict:
    return {c.name: _load(c.out_dir / "manifest.json")["outputs"]
            for c in p.commands if c.result["rc"] == 0}


def source_digest() -> str:
    """SHA-256 over the package sources, so that each version of the code
    keeps its own determinism record."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tempofact").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_determinism(workload: Workload, seed: int, passes: list) -> list:
    """Identical output digests across this run's passes and earlier runs of
    the same code."""
    failures = []
    first = output_digests(passes[0])
    for k, p in enumerate(passes[1:], start=2):
        if output_digests(p) != first:
            failures.append(f"pass {k} output digests differ from pass 1")
    # Keyed by the code and by what the commands are given, so seeds that
    # give the same input share a record, while changed code or a changed
    # workload definition starts a new one.
    steps = workload.steps(Path("<input>"), Path("<pass>"), seed)
    given = [source_digest(), workload.synth(seed) if workload.synth else None,
             [argv for _, argv in steps]]
    key = hashlib.sha256(json.dumps(given, default=str).encode()).hexdigest()[:16]
    store = CACHE / "digests" / f"{workload.name}-{key}-blas{BLAS_THREADS}.json"
    if store.exists():
        if _load(store) != first:
            failures.append(f"output digests differ from an earlier run ({store.name})")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first, sort_keys=True), encoding="utf-8")
    return failures


# --------------------------------------------------------------------------
# reporting


def summarize(samples: list) -> str:
    """Median, and the highest percentile with ten or more samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    text = f"median {statistics.median(xs):.6g} over {n} sample{'s' * (n != 1)}"
    if n >= 11:
        p = math.floor(100 * (n - 10) / n)
        text += f", p{p} {xs[math.ceil(p * n / 100) - 1]:.6g}"
    return text


def environment_block(inp: Path | None, first: Pass) -> dict:
    """The first command's numeric environment, plus jobs and input sizes."""
    env = dict(first.commands[0].result["environment"])
    threads = max(env["blas_threads"].values(), default=BLAS_THREADS)
    env["jobs"] = max(c.jobs for c in first.commands)
    env["jobs_x_blas_threads_within_nproc"] = env["jobs"] * threads <= env["nproc"]
    made = first.commands[0].out_dir  # the ledger workload makes its own input
    env["tensor_bytes"] = (inp or made).joinpath("tensor.bin").stat().st_size
    if inp is None:
        env["ledger_bytes"] = (made / "ledger.csv").stat().st_size
    return env


def measure(workload: Workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    inp = cached_input(work, workload, seed)
    deadline = time.monotonic() + MEASURE_BUDGET_S

    def import_only() -> float:
        return run_child(work, f"setup{len(setup)}", "plain", [], deadline)["setup_s"]

    setup: list = []
    for _ in range(SETUP_SAMPLES):
        setup.append(import_only())
    passes = []
    elapsed = 0.0
    while True:
        started = time.perf_counter()
        passes.append(run_pass(work, workload, inp, seed, len(passes) + 1, False, deadline))
        elapsed += time.perf_counter() - started
        # The host's speed drifts, so set-up samples are spread over the run
        # rather than taken together.
        setup.append(import_only())
        if trace or (len(passes) >= workload.min_passes
                     and elapsed + elapsed / len(passes) > seconds):
            break
    plain = passes[:]
    if trace:
        # A run's first pass is a few percent slower than later ones, so the
        # traced pass is compared with an untraced pass that follows it.
        for traced in (True, False):
            passes.append(run_pass(work, workload, inp, seed, len(passes) + 1, traced,
                                   deadline))
    setup += [c.result["setup_s"] for p in passes for c in p.commands]

    print("environment " + json.dumps(environment_block(inp, passes[0]), sort_keys=True))
    attempted = sum(len(p.commands) for p in passes)
    failed = sum(c.result["rc"] != 0 for p in passes for c in p.commands)
    failures = [] if failed == 0 else [f"{failed} of {attempted} commands exited non-zero"]
    if failed == 0:
        failures += workload.check(inp, passes[0].commands[0].out_dir.parent)
        failures += check_determinism(workload, seed, passes)

    for k, p in enumerate(passes, start=1):
        walls = ", ".join(f"{c.name} {c.wall_s:.3f} s" for c in p.commands)
        print(f"pass {k}{' (traced)' if p.traced else ''}: {walls}; wall {p.wall_s:.3f} s")
    print(f"setup_s: {summarize(setup)}")
    per_pass = [e2e_metrics(p) for p in plain]
    # The host's speed drifts within a run; the mean pass counts all the
    # measured time, where the median of three passes keeps one of them.
    e2e = {"setup_s": statistics.median(setup),
           "wall_s": statistics.fmean(p.wall_s for p in plain)}
    print(f"wall_s: mean {e2e['wall_s']:.6g} s; pass walls {summarize([p.wall_s for p in plain])}")
    for name in list(E2E)[2:]:
        values = [m[name] for m in per_pass if name in m]
        if len(values) == len(per_pass):
            e2e[name] = statistics.median(values)
            print(f"{name}: {summarize(values)} {E2E[name]}")
        else:
            print(f"{name}: missing")
    restarts, restarts_failed = restart_outcomes(plain[0])
    print(f"fail_frac: {restarts_failed}/{restarts} restarts failed")

    if trace:
        metrics, per_call = layer_metrics(passes[-2], passes[-1])
        for name in sorted(per_call):
            print(f"  span {name}: {summarize(per_call[name])} s per call")
        for name in PER_LAYER:
            print(f"{name}: {metrics[name]:.6g} {unit_of(name)}" if name in metrics
                  else f"{name}: missing")
        out = {name: {"value": metrics[name], "unit": unit_of(name)}
               for name in PER_LAYER if name in metrics}
    else:
        out = {name: {"value": value, "unit": E2E[name]} for name, value in e2e.items()}
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "tempofact" / "cli.py").is_file():
        print(f"error: no tempofact sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # SIGTERM becomes SystemExit, so that run_child kills the running
    # command's process group before the run exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         work)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
