"""Spans around tempofact's layers, recorded from outside the package.

Each wrapper replaces a function under the module-global name its caller
looks it up by, so nothing under ``src/`` changes.  A span is
``[name, start, end, parent, counts]``: ``parent`` indexes the enclosing
span of the same batch (or is -1) and ``counts`` holds what the layer
produced, such as NNLS exchange rounds or bytes written.

The command process writes one batch, all of its spans, when the command
ends.  ``fit_restarts(jobs > 1)`` forks its workers, which inherit the
patched ``fit_once``: a worker notices the new pid, starts an empty span
list and appends each finished top-level call to ``spans-<pid>.jsonl``,
because forked workers exit without running ``atexit`` handlers.
"""

from __future__ import annotations

import importlib
import json
import os
import re
from pathlib import Path
from time import perf_counter

_SWEEP_RE = re.compile(r"^sweep (\d+):")


def _file_bytes(path) -> int:
    return os.stat(path).st_size


def _count_fit(args, kwargs, result, err):
    if err is None:
        return {"sweeps": result.sweeps_used, "failed": 0}
    m = _SWEEP_RE.match(str(err))
    return {"sweeps": int(m.group(1)) if m else 0, "failed": 1}


def _count_nnls(args, kwargs, result, err):
    if err is not None:
        return None
    return {"rounds": result.iterations, "unconverged": int(not result.converged)}


def _count_core(args, kwargs, result, err):
    return {"degenerate": int(type(err).__name__ == "DegenerateFactorError")}


def _count_read(args, kwargs, result, err):
    return None if err is not None else {"bytes_read": _file_bytes(args[0])}


def _count_write(args, kwargs, result, err):
    return None if err is not None else {"bytes_written": _file_bytes(args[0])}


def _count_load(args, kwargs, result, err):
    if err is not None:
        return None
    return {"bytes_read": _file_bytes(args[0]), "rows": len(result.records)}


def _count_trades(args, kwargs, result, err):
    return None if err is not None else {"trades": len(result)}



_ANALYSIS = (
    # classify_role is left out: attribute_frequencies calls it twice per
    # ledger row, and a wrapper there would cost more than the work it times.
    "morning_window", "order_components", "component_share", "affiliate_banks",
    "jaccard_overlap", "jaccard_matrix", "membership_level", "membership_mean",
    "attribute_frequencies", "binomial_quantile", "nationality_test",
    "domestic_flags_from_records",
)

# (module, attribute, span name, counter).  The attribute is patched in the
# module that calls it, so each entry names the lookup, not the definition.
LAYERS = [
    ("tempofact.als", "fit_once", "als.fit_once", _count_fit),
    ("tempofact.cli", "fit_restarts", "als.fit_restarts", None),
    ("tempofact.corcondia", "fit_restarts", "als.fit_restarts", None),
    ("tempofact.als", "khatri_rao", "tensor.khatri_rao", None),
    ("tempofact.als", "solve_nnls", "nnls.solve_nnls", _count_nnls),
    ("tempofact.corcondia", "tucker_core", "corcondia.tucker_core", _count_core),
    ("tempofact.cli", "rank_scan", "corcondia.rank_scan", None),
    ("tempofact.cli", "load_transactions", "ingest.load_transactions", _count_load),
    ("tempofact.cli", "build_tensor", "ingest.build_tensor", None),
    ("tempofact.cli", "save_transactions", "ingest.save_transactions", _count_write),
    ("tempofact.cli", "moving_average", "ingest.moving_average", None),
    ("tempofact.cli", "generate", "synthetic.generate", None),
    ("tempofact.cli", "generate_with_log", "synthetic.generate", None),
    ("tempofact.cli", "log_to_records", "synthetic.log_to_records", _count_trades),
    ("tempofact.io", "read_tensor", "io.read_tensor", _count_read),
    ("tempofact.io", "write_tensor", "io.write_tensor", _count_write),
    ("tempofact.io", "dump_json", "io.dump_json", _count_write),
] + [("tempofact.analysis", f, f"analysis.{f}", None) for f in _ANALYSIS]


class Tracer:
    """Span recorder for one process tree; see the module docstring."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = Path(spans_dir)
        self.pid = os.getpid()
        self.in_worker = False
        self.spans: list = []
        self.stack: list = []

    def install(self) -> None:
        for module_name, attr, name, counter in LAYERS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name, counter))

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._enter_worker()
            rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                rec[4] = counter(args, kwargs, None, err) if counter else None
                raise
            else:
                rec[4] = counter(args, kwargs, result, None) if counter else None
                return result
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
                if self.in_worker and not self.stack:
                    self.flush()

        traced.__wrapped__ = fn
        return traced

    def _enter_worker(self) -> None:
        self.pid = os.getpid()
        self.in_worker = True
        self.spans = []
        self.stack = []

    def flush(self) -> None:
        """Append the finished spans as one batch to this process's file."""
        if not self.spans:
            return
        path = self.spans_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []


def read_batches(spans_dir: Path, parent_pid: int):
    """Yield ``(in_parent, spans)`` for every batch written under ``spans_dir``."""
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                yield pid == parent_pid, json.loads(line)
