"""File formats: binary tensor exchange, JSON reports, plot-ready CSV.

Binary tensor layout (little-endian, documented in docs/FORMATS.md):

    offset  size        content
    0       8           magic b"TENSOR3\\n"
    8       4           uint32 format version (currently 1)
    12      4           uint32 L, byte length of the semantics tag
    16      L           semantics tag, UTF-8
    16+L    24          three uint64 dimensions (N, T, D)
    40+L    8*N*T*D     float64 values, row-major by (bank, interval, day)

All JSON writers emit sorted keys, two-space indent and a trailing newline,
so identical data produces byte-identical files.  NaN (undefined shares) is
serialized as null.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import numpy as np

from tempofact.als import FitResult
from tempofact.analysis import ROLES, BankFacts
from tempofact.corcondia import RankScanRecord, RankScanReport
from tempofact.ingest import TensorIndex
from tempofact.synthetic import GroundTruth, SyntheticConfig
from tempofact.tensor import DenseTensor3, KruskalTensor

TENSOR_MAGIC = b"TENSOR3\n"
TENSOR_FORMAT_VERSION = 1
FIT_SCHEMA_VERSION = 1
RANK_SCAN_SCHEMA_VERSION = 1
BANK_FACTS_SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """The file exists but does not match the documented layout."""


def write_tensor(path, x: DenseTensor3) -> None:
    tag = x.semantics.encode("utf-8")
    n, t, d = x.dims
    with open(path, "wb") as handle:
        handle.write(TENSOR_MAGIC)
        handle.write(struct.pack("<II", TENSOR_FORMAT_VERSION, len(tag)))
        handle.write(tag)
        handle.write(struct.pack("<QQQ", n, t, d))
        handle.write(np.ascontiguousarray(x.values, dtype="<f8"))  # its buffer, not a copy


def _bytes_left(handle) -> int:
    return os.fstat(handle.fileno()).st_size - handle.tell()


def _read_exact(handle, size: int, path, what: str) -> bytes:
    # A corrupt length must not make read() allocate a buffer of that size.
    data = handle.read(size) if size <= _bytes_left(handle) else b""
    if len(data) != size:
        raise FileFormatError(f"{path}: file ends inside the {what}")
    return data


# Payload bytes per read: big enough that the hasher thread gets long
# stretches outside the interpreter lock, small enough to hash one chunk
# while the next is read.
_CHUNK_BYTES = 1 << 22


def read_tensor(path):
    """``(tensor, sha256)`` of a TENSOR3 file, read once.

    The digest covers the bytes as they were read, so it describes the
    tensor returned even if the file changes afterwards.  A helper thread
    hashes each payload chunk while the next one is read and while the
    entries are checked; it has ended when this returns.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle, ThreadPoolExecutor(max_workers=1) as hasher:
        magic = handle.read(8)
        if magic != TENSOR_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        head = _read_exact(handle, 8, path, "header")
        version, tag_len = struct.unpack("<II", head)
        if version != TENSOR_FORMAT_VERSION:
            raise FileFormatError(f"{path}: unsupported format version {version}")
        tag = _read_exact(handle, tag_len, path, "semantics tag")
        dims = _read_exact(handle, 24, path, "dimensions")
        n, t, d = struct.unpack("<QQQ", dims)
        expected = 8 * n * t * d
        size = _bytes_left(handle)
        if size != expected:
            raise FileFormatError(
                f"{path}: payload holds {size} bytes, dims {n}x{t}x{d} need {expected}"
            )
        digest.update(magic + head + tag + dims)
        # One buffer, filled in place: no intermediate bytes object.
        values = np.empty(n * t * d, dtype="<f8")
        payload = memoryview(values).cast("B")
        hashed = []
        for start in range(0, expected, _CHUNK_BYTES):
            chunk = payload[start:start + _CHUNK_BYTES]
            if handle.readinto(chunk) != len(chunk):
                raise FileFormatError(f"{path}: file changed size while being read")
            hashed.append(hasher.submit(digest.update, chunk))
        if handle.read(1):
            raise FileFormatError(f"{path}: file changed size while being read")
        try:
            tensor = DenseTensor3(values.reshape(n, t, d), tag.decode("utf-8"))
        except ValueError as err:  # a tag that is not UTF-8, or values DenseTensor3 refuses
            raise FileFormatError(f"{path}: {err}") from None
        if not 2.0 * tensor.norm2 < math.inf:  # the fit's misfit needs 2 ||X||^2
            raise FileFormatError(
                f"{path}: twice the sum of squared entries exceeds float64's range")
        for done in hashed:
            done.result()
    return tensor, digest.hexdigest()


def _sanitize(obj):
    """Make a structure JSON-safe: arrays and tuples to lists, numpy scalars
    to Python, NaN to None.  The one conversion every JSON writer relies on."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(path, obj) -> None:
    """Write ``obj`` as canonical JSON.  Writers pass numpy arrays, numpy
    scalars and tuples as they are: :func:`_sanitize` converts them."""
    text = json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_json(path):
    """``(document, sha256)`` of a UTF-8 JSON file, decoded from one read."""
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise FileFormatError(f"{path}: not a JSON document ({err})") from None


_NUMBER = (int, float)


def _kind_name(kind) -> str:
    if isinstance(kind, list):
        return "a list of " + _kind_name(kind[0]).replace("a list of", "lists of")
    return " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))


def _misfits(value, kind) -> list:
    """The parts of ``value``, itself included, whose JSON type breaks ``kind``."""
    if not isinstance(kind, list):
        return [] if type(value) in (kind if isinstance(kind, tuple) else (kind,)) else [value]
    if type(value) is not list:
        return [value]
    return [bad for item in value for bad in _misfits(item, kind[0])]


def _field(data: dict, key: str, kind):
    """``data[key]``, whose JSON type must be ``kind`` (else TypeError): a type, a
    tuple of types, or ``[kind]`` for a list of that kind, which nests.  Every
    reader's one type rule; types compare by ``type()``, so ``true`` is no int."""
    value = data[key]
    if bad := _misfits(value, kind):
        item = "" if bad[0] is value else "an item of type "
        raise TypeError(f"{key} must be {_kind_name(kind)}, got {item}{type(bad[0]).__name__}")
    return value


def _document(data, fmt: str, version: int) -> None:
    """Raise ValueError unless ``data`` is a ``fmt`` document of this ``version``."""
    if (type(data) is not dict or data.get("format") != fmt
            or type(data.get("version")) is not int or data["version"] != version):
        raise ValueError(f"not a supported {fmt} document")


@contextmanager
def _decoding(what: str):
    """A missing field or a bad type or value inside is a FileFormatError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise FileFormatError(f"malformed {what} ({type(err).__name__}: {err})") from None


def fit_result_to_dict(fit: FitResult) -> dict:
    k = fit.factors
    return {
        "format": "fit_result",
        "version": FIT_SCHEMA_VERSION,
        "dims": k.dims,
        "rank": k.rank,
        "factors": {"bank": k.A, "intraday": k.B, "interday": k.C},
        "weights": k.weights,
        "rel_error": fit.rel_error,
        "sweeps_used": fit.sweeps_used,
        "converged": fit.converged,
        "objective_trace": fit.objective_trace,
        "seed": fit.seed,
    }


def _check_scale(k: KruskalTensor) -> None:
    """Refuse a model whose scale overflows float64, checked without a warning.

    ``normalize`` takes each factor column's norm.  Each weight times its
    three columns' sums is its component's mass, and the total mass bounds
    every sum ``analyze`` takes and every weight ``normalize`` makes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [np.linalg.norm(m, axis=0) for m in (k.A, k.B, k.C)]
        mass = np.sum(k.weights * k.A.sum(axis=0) * k.B.sum(axis=0) * k.C.sum(axis=0))
    if not all(np.isfinite(n).all() for n in norms):
        raise ValueError("a factor column's norm overflows")
    if not np.isfinite(mass):
        raise ValueError("the weights scaled by the factor column sums overflow")


def fit_result_from_dict(data) -> FitResult:
    with _decoding("fit_result document"):
        _document(data, "fit_result", FIT_SCHEMA_VERSION)
        matrices = _field(data, "factors", dict)
        factors = KruskalTensor(
            *(np.asarray(_field(matrices, mode, [[_NUMBER]]), dtype=np.float64)
              for mode in ("bank", "intraday", "interday")),
            np.asarray(_field(data, "weights", [_NUMBER]), dtype=np.float64),
        )
        dims, rank = _field(data, "dims", [int]), _field(data, "rank", int)
        if dims != list(factors.dims) or rank != factors.rank:
            raise ValueError(f"dims {dims} and rank {rank} do not match the factors' "
                             f"{list(factors.dims)} and {factors.rank}")
        _check_scale(factors)
        return FitResult(
            factors=factors,
            rel_error=float(_field(data, "rel_error", _NUMBER)),
            sweeps_used=_field(data, "sweeps_used", int),
            converged=_field(data, "converged", bool),
            objective_trace=tuple(map(float, _field(data, "objective_trace", [_NUMBER]))),
            seed=_field(data, "seed", int),
        )


def rank_scan_to_dict(report: RankScanReport) -> dict:
    return {
        "format": "rank_scan",
        "version": RANK_SCAN_SCHEMA_VERSION,
        "l_cc": report.l_cc,
        "restarts": report.restarts,
        "seed": report.seed,
        "selected_rank": report.selected_rank,
        "ranks": [_rank_record_to_dict(rec) for rec in report.records],
    }


def _rank_record_to_dict(rec: RankScanRecord) -> dict:
    out = {
        "rank": rec.rank,
        "cc_values": rec.cc_values,
        "rel_errors": rec.rel_errors,
        "cc_mean": rec.cc_mean,
        "cc_ci95": rec.cc_ci95,
        "n_failed": len(rec.failures),
    }
    if rec.failures:
        out["failures"] = [{"restart": k, "reason": reason} for k, reason in rec.failures]
    return out


def _csv_cell(value) -> str:
    """A CSV cell: booleans as ``true``/``false``, strings and integers as
    they print, None and NaN empty, any other number as its float ``repr``."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def write_csv(path, header: list, rows) -> None:
    """Write a plot-ready CSV, each cell by :func:`_csv_cell`."""
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(c) for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rank_scan_csv(path, report: RankScanReport) -> None:
    write_csv(path, ["R", "cc_mean", "cc_lo", "cc_hi"],
              ([rec.rank, rec.cc_mean, *(rec.cc_ci95 or (None, None))]
               for rec in report.records))


def ground_truth_to_dict(truth: GroundTruth, cfg: SyntheticConfig) -> dict:
    return {
        "format": "ground_truth",
        "version": 1,
        "groups": truth.groups,
        "fitness_profiles": truth.fitness_profiles,
        "participation": truth.participation,
        "config": dataclasses.asdict(cfg),
    }


def index_to_dict(index: TensorIndex) -> dict:
    return {
        "bank_ids": index.bank_ids,
        "day_dates": [d.isoformat() for d in index.day_dates],
        "delta_minutes": index.delta,
        "window": [index.interval_label(0), index.interval_label(index.intervals)],
    }


def read_index(path):
    """``(index, sha256)`` of the ``index.json`` at ``path``; its window must be
    the one binning uses."""
    data, sha256 = load_json(path)
    with _decoding(f"tensor index {path}"):
        window = _field(data, "window", [str])
        index = TensorIndex(
            bank_ids=tuple(_field(data, "bank_ids", [str])),
            day_dates=tuple(map(date.fromisoformat, _field(data, "day_dates", [str]))),
            delta=_field(data, "delta_minutes", int),
        )
        expected = index_to_dict(index)["window"]
        if window != expected:
            raise ValueError(f"window must be {expected}, got {window}")
    return index, sha256


def write_bank_facts(path, facts: BankFacts, ledger_sha256: str) -> None:
    dump_json(path, {
        "format": "bank_facts",
        "version": BANK_FACTS_SCHEMA_VERSION,
        "ledger_sha256": ledger_sha256,
        "bank_ids": facts.bank_ids,
        "role_counts": facts.role_counts,
        "domestic": facts.domestic,
        "flag_conflicts": facts.conflicts,
    })


def read_bank_facts(path):
    """``(facts, ledger_sha256, sha256)`` from a ``bank_facts.json`` that ingest
    wrote, ``sha256`` being the digest of the file's bytes."""
    data, sha256 = load_json(path)
    with _decoding(f"bank facts {path}"):
        _document(data, "bank_facts", BANK_FACTS_SCHEMA_VERSION)
        ledger_sha256 = _field(data, "ledger_sha256", str)
        rows = _field(data, "role_counts", [[int]])
        for row in rows:
            if len(row) != len(ROLES) or any(c < 0 for c in row):
                raise ValueError(f"role_counts rows must hold {len(ROLES)} non-negative "
                                 f"integers, got {row}")
        facts = BankFacts(
            tuple(_field(data, "bank_ids", [str])),
            np.array(rows, dtype=np.int64).reshape(len(rows), len(ROLES)),
            np.array(_field(data, "domestic", [bool]), dtype=bool),
            tuple(_field(data, "flag_conflicts", [str])),
        )
    return facts, ledger_sha256, sha256
