import contextlib
import copy
import hashlib
import json
import math
import struct
import threading
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempofact import io as tfio
from tempofact.als import FitConfig, fit_once
from tempofact.corcondia import RankScanRecord, RankScanReport, rank_scan
from tempofact.ingest import TensorIndex
from tempofact.synthetic import SyntheticConfig, generate
from tempofact.tensor import DenseTensor3, reconstruct
from util import random_kruskal, random_tensor


def test_tensor_binary_round_trip(tmp_path):
    rng = np.random.default_rng(81)
    x = DenseTensor3(rng.random((4, 6, 3)), "count")
    path = tmp_path / "t.bin"
    tfio.write_tensor(path, x)
    back, digest = tfio.read_tensor(path)
    assert np.array_equal(back.values, x.values)
    assert back.semantics == "count"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_tensor_binary_rejects_corruption(tmp_path):
    rng = np.random.default_rng(82)
    x = random_tensor(rng, (2, 2, 2))
    path = tmp_path / "t.bin"
    tfio.write_tensor(path, x)
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.bin"
    bad_magic.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(tfio.FileFormatError):
        tfio.read_tensor(bad_magic)

    truncated = tmp_path / "s.bin"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(tfio.FileFormatError):
        tfio.read_tensor(truncated)

    bad_version = tmp_path / "v.bin"
    bad_version.write_bytes(raw[:8] + b"\x09\x00\x00\x00" + raw[12:])
    with pytest.raises(tfio.FileFormatError):
        tfio.read_tensor(bad_version)


def test_tensor_binary_rejects_every_cut_header_and_trailing_bytes(tmp_path):
    x = DenseTensor3(np.ones((2, 1, 3)), "count")
    path = tmp_path / "t.bin"
    tfio.write_tensor(path, x)
    raw = path.read_bytes()
    header_len = len(raw) - 8 * 6
    cut = tmp_path / "cut.bin"
    for size in range(header_len + 1):
        cut.write_bytes(raw[:size])
        with pytest.raises(tfio.FileFormatError):
            tfio.read_tensor(cut)
    cut.write_bytes(raw[:12] + b"\xff\xff\xff\xff" + raw[16:])  # tag length past the end
    with pytest.raises(tfio.FileFormatError, match="semantics tag"):
        tfio.read_tensor(cut)
    cut.write_bytes(raw + b"\0")
    with pytest.raises(tfio.FileFormatError, match="payload"):
        tfio.read_tensor(cut)


@pytest.mark.parametrize("chunk", [8, 200, 1 << 22])
def test_read_tensor_hashes_the_bytes_it_reads_and_leaves_no_thread(tmp_path, monkeypatch,
                                                                     chunk):
    # Small chunks make the hashing loop run many times, one that does not
    # divide the payload leaves a short last chunk.  The hasher thread must be
    # gone when read_tensor returns or raises, or it would outlive the read
    # beside the fit's restart threads.
    monkeypatch.setattr(tfio, "_CHUNK_BYTES", chunk)
    x = random_tensor(np.random.default_rng(85), (5, 7, 11))
    path = tmp_path / "t.bin"
    tfio.write_tensor(path, x)
    before = set(threading.enumerate())
    back, digest = tfio.read_tensor(path)
    assert set(threading.enumerate()) == before
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert np.array_equal(back.values, x.values)
    assert back.norm2 == float(np.vdot(x.values, x.values))
    negative = tmp_path / "n.bin"
    negative.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", -1.0))
    with pytest.raises(tfio.FileFormatError, match="nonnegative"):
        tfio.read_tensor(negative)
    assert set(threading.enumerate()) == before


def test_tensor_binary_round_trip_empty(tmp_path):
    path = tmp_path / "e.bin"
    tfio.write_tensor(path, DenseTensor3(np.zeros((0, 4, 0))))
    back, digest = tfio.read_tensor(path)
    assert back.dims == (0, 4, 0)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_write_tensor_makes_no_copy_of_the_values(tmp_path):
    import tracemalloc

    x = DenseTensor3(np.random.default_rng(82).random((20, 50, 1000)))
    path = tmp_path / "t.bin"
    tracemalloc.start()
    try:
        tfio.write_tensor(path, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.values.nbytes / 16, (peak, x.values.nbytes)
    assert path.read_bytes().endswith(x.values.astype("<f8").tobytes())


def test_fit_result_round_trip(tmp_path):
    rng = np.random.default_rng(84)
    x = reconstruct(random_kruskal(rng, (5, 4, 6), 2))
    fit = fit_once(x, FitConfig(rank=2, restarts=1, max_sweeps=50), seed=3)
    path = tmp_path / "fit.json"
    tfio.dump_json(path, tfio.fit_result_to_dict(fit))
    doc, sha256 = tfio.load_json(path)
    assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    back = tfio.fit_result_from_dict(doc)
    assert back.rel_error == fit.rel_error
    assert back.objective_trace == fit.objective_trace
    assert back.sweeps_used == fit.sweeps_used
    assert back.converged == fit.converged
    assert back.seed == fit.seed
    assert np.array_equal(back.factors.A, fit.factors.A)
    assert np.array_equal(back.factors.weights, fit.factors.weights)
    with pytest.raises(tfio.FileFormatError):
        tfio.fit_result_from_dict({"format": "something_else"})


def test_rank_scan_serialization(tmp_path):
    rng = np.random.default_rng(85)
    x = reconstruct(random_kruskal(rng, (6, 5, 7), 1))
    report = rank_scan(x, 2, 85.0, FitConfig(rank=1, restarts=2, seed=4))
    json_path = tmp_path / "scan.json"
    tfio.dump_json(json_path, tfio.rank_scan_to_dict(report))
    data = json.loads(json_path.read_text())
    assert data["selected_rank"] == report.selected_rank
    assert len(data["ranks"]) == 2
    for written, rec in zip(data["ranks"], report.records):
        assert written["cc_values"] == list(rec.cc_values)
        assert written["rel_errors"] == list(rec.rel_errors)
        assert written["n_failed"] == len(rec.failures)

    csv_path = tmp_path / "scan.csv"
    tfio.write_rank_scan_csv(csv_path, report)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "R,cc_mean,cc_lo,cc_hi"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(report.records[0].cc_mean)


def test_rank_scan_csv_leaves_failed_rank_empty(tmp_path):
    records = (
        RankScanRecord(1, (99.5, 100.0), (0.1, 0.1), 99.75, (96.5, 103.0)),
        RankScanRecord(2, (None, None), (None, None), None, None,
                       ((0, "sweep 3: stalled"), (1, "sweep 5: stalled"))),
    )
    path = tmp_path / "scan.csv"
    tfio.write_rank_scan_csv(path, RankScanReport(records, 1, 85.0, 2, 0))
    assert path.read_text() == "R,cc_mean,cc_lo,cc_hi\n1,99.75,96.5,103.0\n2,,,\n"


def test_write_csv_cell_rules(tmp_path):
    path = tmp_path / "x.csv"
    rows = [["a", 3, 0.1, np.float64(1 / 3), None, float("nan"), np.float64("nan"), True,
             np.False_, np.int64(-3), np.int32(7)]]
    tfio.write_csv(path, ["s", "i", "f", "g", "none", "nan", "npnan", "b", "npb", "i64", "i32"],
                   rows)
    lines = path.read_text().split("\n")
    assert lines[1] == f"a,3,0.1,{1 / 3!r},,,,true,false,-3,7"
    assert lines[2:] == [""]  # one trailing newline


def test_dump_json_serializes_nan_as_null(tmp_path):
    path = tmp_path / "x.json"
    tfio.dump_json(path, {"a": float("nan"), "b": [1.0, float("nan")], "c": np.float64(2.0)})
    data = json.loads(path.read_text())
    assert data["a"] is None
    assert data["b"] == [1.0, None]
    assert data["c"] == 2.0
    # Arrays, numpy scalars and tuples dump to the bytes of their plain-Python form.
    pairs = [
        (np.array([[0.1, -2.5], [1 / 3, 1e300]]), [[0.1, -2.5], [1 / 3, 1e300]]),
        (np.array([3, -4, 2**40], dtype=np.int64), [3, -4, 2**40]),
        (np.bool_(True), True),
        ((1, 2.5, "x", None), [1, 2.5, "x", None]),
        (-0.0, -0.0),
        (np.float64(-0.0), -0.0),
    ]
    for value, plain in pairs:
        tfio.dump_json(tmp_path / "numpy.json", {"v": value})
        tfio.dump_json(tmp_path / "plain.json", {"v": plain})
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert b"-0.0" in (tmp_path / "numpy.json").read_bytes()


def test_ground_truth_dict_shape(tmp_path):
    cfg = SyntheticConfig(n_banks=6, intervals=4, days=3, seed=5)
    _, truth = generate(cfg)
    tfio.dump_json(tmp_path / "ground_truth.json", tfio.ground_truth_to_dict(truth, cfg))
    data = json.loads((tmp_path / "ground_truth.json").read_text())
    assert len(data["groups"]) == 6
    assert len(data["fitness_profiles"]) == 3
    assert len(data["fitness_profiles"][0]) == 4
    assert len(data["participation"][0]) == 3
    assert data["config"]["group_sizes"] == [2, 2, 2]
    assert data["config"]["mus"] == [0.0, 2.0, 4.0]
    assert not math.isnan(data["config"]["sigma"])


# Fuzzing the three readers of outside files: whatever the input, a reader
# returns or raises FileFormatError, which the CLI maps to exit 2.

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)
_VALID_FIT = {
    "format": "fit_result", "version": 1, "dims": [2, 1, 1], "rank": 1,
    "factors": {"bank": [[0.6], [0.8]], "intraday": [[1.0]], "interday": [[1.0]]},
    "weights": [2.0], "rel_error": 0.1, "sweeps_used": 3, "converged": True,
    "objective_trace": [1.0, 0.5], "seed": 4,
}
_VALID_INDEX = {"bank_ids": ["DE001", "IT001"], "day_dates": ["2008-09-15", "2008-09-16"],
                "delta_minutes": 30, "window": ["08:00", "18:00"]}
_VALID_FACTS = {"format": "bank_facts", "version": 1, "ledger_sha256": "ab" * 32,
                "bank_ids": ["DE001", "IT001"], "role_counts": [[1, 0, 2, 0], [0, 3, 0, 1]],
                "domestic": [True, False], "flag_conflicts": ["IT001"]}


@st.composite
def _mutated(draw, valid):
    """``valid`` with a few keys, at the top or one level down, replaced or deleted."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        if not doc:
            break
        nested = [v for v in doc.values() if isinstance(v, dict) and v]
        target = draw(st.sampled_from([doc, *nested]))
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(_JSON)
    return doc


@st.composite
def _tensor_files(draw):
    """Bytes behind a valid magic: fuzzed header fields, tag and payload."""
    tag = draw(st.binary(max_size=6))
    dims = draw(st.one_of(st.tuples(*[st.integers(0, 3)] * 3),
                          st.tuples(*[st.integers(0, 2**64 - 1)] * 3)))
    n_values = dims[0] * dims[1] * dims[2] if max(dims) <= 3 else 0
    values = draw(st.lists(st.floats(), min_size=n_values, max_size=n_values))
    raw = (tfio.TENSOR_MAGIC
           + struct.pack("<II", draw(st.sampled_from([1, 1, 0, 2])),
                         draw(st.one_of(st.just(len(tag)), st.integers(0, 2**32 - 1))))
           + tag + struct.pack("<QQQ", *dims) + struct.pack(f"<{n_values}d", *values))
    return raw[:draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=80), _tensor_files()))
@example(raw=tfio.TENSOR_MAGIC + struct.pack("<II", 1, 1) + b"\xff" + struct.pack("<QQQ", 0, 0, 0))
@example(raw=tfio.TENSOR_MAGIC + struct.pack("<IIQQQd", 1, 0, 1, 1, 1, -1.0))
@example(raw=tfio.TENSOR_MAGIC + struct.pack("<IIQQQd", 1, 0, 1, 1, 1, math.nan))
@example(raw=tfio.TENSOR_MAGIC + struct.pack("<IIQQQ", 1, 0, 2**64 - 1, 0, 5))
def test_read_tensor_returns_or_raises_file_format_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz-tensor.bin"
    path.write_bytes(raw)
    with contextlib.suppress(tfio.FileFormatError):
        _, digest = tfio.read_tensor(path)
        assert digest == hashlib.sha256(raw).hexdigest()


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_JSON, _mutated(_VALID_FIT)))
@example(doc={**_VALID_FIT, "sweeps_used": math.inf})
@example(doc={**_VALID_FIT, "weights": [10**400]})
@example(doc={**_VALID_FIT, "weights": [math.inf]})
@example(doc={**_VALID_FIT, "weights": ["2.0"]})
@example(doc={**_VALID_FIT, "factors": {**_VALID_FIT["factors"], "bank": [[True], [0.8]]}})
def test_fit_result_from_dict_returns_or_raises_file_format_error(doc):
    """A fit that is read back holds the document's own JSON numbers."""
    with contextlib.suppress(tfio.FileFormatError):
        fit = tfio.fit_result_from_dict(doc)
        matrices = [doc["factors"][mode] for mode in ("bank", "intraday", "interday")]
        assert all(type(v) in (int, float) for m in matrices for row in m for v in row)
        assert all(type(w) in (int, float) for w in doc["weights"])
        assert fit.factors.weights.tolist() == [float(w) for w in doc["weights"]]


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=80),
                     st.one_of(_JSON, _mutated(_VALID_INDEX)).map(
                         lambda doc: json.dumps(doc).encode("utf-8"))))
@example(raw=json.dumps({**_VALID_INDEX, "delta_minutes": math.inf}).encode())
@example(raw=b"[" * 100_000)
@example(raw=json.dumps({**_VALID_INDEX, "bank_ids": "DE001"}).encode())
@example(raw=json.dumps({**_VALID_INDEX, "bank_ids": ["DE001", 7]}).encode())
@example(raw=json.dumps({**_VALID_INDEX, "delta_minutes": True}).encode())
@example(raw=json.dumps({**_VALID_INDEX, "delta_minutes": "15"}).encode())
@example(raw=json.dumps({**_VALID_INDEX, "delta_minutes": 30.0}).encode())
@example(raw=json.dumps({**_VALID_INDEX, "window": ["08:00", "12:00", "18:00"]}).encode())
@example(raw=json.dumps({**_VALID_INDEX, "window": ["09:00", "17:00"]}).encode())
def test_read_index_returns_or_raises_file_format_error(tmp_path_factory, raw):
    """An index that is read back holds the document's own JSON values."""
    path = tmp_path_factory.getbasetemp() / "fuzz-index.json"
    path.write_bytes(raw)
    with contextlib.suppress(tfio.FileFormatError):
        index, sha256 = tfio.read_index(path)
        assert sha256 == hashlib.sha256(raw).hexdigest()
        doc = json.loads(raw)
        assert doc["bank_ids"] == list(index.bank_ids)
        assert all(type(b) is str for b in index.bank_ids)
        assert type(doc["delta_minutes"]) is int and doc["delta_minutes"] == index.delta
        assert len(doc["day_dates"]) == len(index.day_dates)
        assert doc["window"] == ["08:00", "18:00"]


@pytest.mark.parametrize("delta", [d for d in range(1, 601) if 600 % d == 0])
def test_index_to_dict_writes_the_binning_window(delta):
    index = TensorIndex(("DE001",), (date(2008, 9, 15),), delta)
    assert tfio.index_to_dict(index)["window"] == ["08:00", "18:00"]


def _facts_doc(**changes) -> bytes:
    return json.dumps({**_VALID_FACTS, **changes}).encode()


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=80),
                     st.one_of(_JSON, _mutated(_VALID_FACTS)).map(
                         lambda doc: json.dumps(doc).encode("utf-8"))))
@example(raw=_facts_doc())
@example(raw=_facts_doc(bank_ids=[], role_counts=[], domestic=[], flag_conflicts=[]))
@example(raw=b"{ this is not JSON")
@example(raw=_facts_doc(format="fit_result"))
@example(raw=_facts_doc(version=2))
@example(raw=_facts_doc(version=True))
@example(raw=_facts_doc(domestic=[True]))
@example(raw=_facts_doc(bank_ids=["DE001"]))
@example(raw=_facts_doc(role_counts=[[1, 0, 2, 0]]))
@example(raw=_facts_doc(role_counts=[[1, 0, 2], [0, 3, 0, 1]]))
@example(raw=_facts_doc(role_counts=[[1, 0, -2, 0], [0, 3, 0, 1]]))
@example(raw=_facts_doc(role_counts=[[1, 0, 2.5, 0], [0, 3, 0, 1]]))
@example(raw=_facts_doc(role_counts=[[1, 0, 2.0, 0], [0, 3, 0, 1]]))
@example(raw=_facts_doc(role_counts=[[1, 0, True, 0], [0, 3, 0, 1]]))
@example(raw=_facts_doc(role_counts=[[1, 0, 2**64, 0], [0, 3, 0, 1]]))
@example(raw=_facts_doc(domestic=[1, 0]))
@example(raw=_facts_doc(domestic=["true", "false"]))
@example(raw=_facts_doc(flag_conflicts="IT001"))
@example(raw=_facts_doc(ledger_sha256=None))
def test_read_bank_facts_returns_or_raises_file_format_error(tmp_path_factory, raw):
    """Bank facts that are read back hold the document's own JSON values."""
    path = tmp_path_factory.getbasetemp() / "fuzz-bank-facts.json"
    path.write_bytes(raw)
    with contextlib.suppress(tfio.FileFormatError):
        facts, ledger_sha256, sha256 = tfio.read_bank_facts(path)
        assert sha256 == hashlib.sha256(raw).hexdigest()
        doc = json.loads(raw)
        assert ledger_sha256 == doc["ledger_sha256"] and type(ledger_sha256) is str
        assert facts.bank_ids == tuple(doc["bank_ids"])
        assert all(type(b) is str for b in facts.bank_ids)
        assert facts.role_counts.tolist() == doc["role_counts"]
        assert all(type(c) is int and c >= 0 for row in doc["role_counts"] for c in row)
        assert facts.domestic.tolist() == doc["domestic"]
        assert all(type(f) is bool for f in doc["domestic"])
        assert facts.conflicts == tuple(doc["flag_conflicts"])
        assert all(type(b) is str for b in facts.conflicts)


def test_valid_fuzz_seeds_are_accepted(tmp_path):
    assert tfio.fit_result_from_dict(copy.deepcopy(_VALID_FIT)).seed == 4
    path = tmp_path / "index.json"
    path.write_text(json.dumps(_VALID_INDEX))
    assert tfio.read_index(path)[0].delta == 30
    path.write_bytes(_facts_doc())
    facts, ledger_sha256, _ = tfio.read_bank_facts(path)
    assert facts.bank_ids == ("DE001", "IT001") and ledger_sha256 == "ab" * 32
