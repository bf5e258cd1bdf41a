"""Run one tempofact CLI command in a fresh process and record what it cost.

    python3 bench/child.py RESULT.json SPANS_DIR MODE [CLI ARGS...]

MODE is ``plain`` (no wrappers) or ``layers`` (every layer of layers.py).
With no CLI arguments the process only imports ``tempofact.cli``, which
gives one more set-up sample.  The result file holds the import time, the
command's wall time and exit code, ``ru_maxrss`` of the process and of its
children, and the numeric environment.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from layers import Tracer


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle
                           if "openblas" in line.lower() and line.strip().endswith(".so")})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        l3 = 0
    if l3 <= 0:
        try:
            text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
            l3 = int(text.rstrip("K")) * 1024 if text.endswith("K") else int(text)
        except (OSError, ValueError):
            l3 = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
    }


def main() -> int:
    result_path, spans_dir, mode, *argv = sys.argv[1:]
    src = Path(os.environ["TEMPOFACT_SRC"]).resolve()
    started = perf_counter()
    import tempofact.cli
    setup_s = perf_counter() - started
    if src not in Path(tempofact.cli.__file__).resolve().parents:
        print(f"tempofact was imported from {tempofact.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if mode == "layers":
        tracer = Tracer(Path(spans_dir))
        tracer.install()
    t0 = perf_counter()
    try:
        rc = tempofact.cli.main(argv) if argv else 0
    except Exception:  # a traceback is a failed command, not a failed benchmark
        traceback.print_exc()
        rc = -1
    t1 = perf_counter()
    if tracer is not None:
        tracer.flush()
    result = {
        "pid": os.getpid(),
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "environment": _environment(),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
