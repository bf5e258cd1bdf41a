import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempofact import ingest, io as tfio
from tempofact.als import FitError
from tempofact.cli import main
from tempofact.tensor import DenseTensor3, KruskalTensor, reconstruct

SAMPLE_LEDGER = Path(__file__).resolve().parent.parent / "data" / "sample_ledger.csv"


def _run(*argv):
    return main([str(a) for a in argv])


def test_synth_is_byte_deterministic(tmp_path):
    for name in ("one", "two"):
        code = _run("synth", "--banks", 10, "--intervals", 5, "--days", 12,
                    "--seed", 7, "--out", tmp_path / name)
        assert code == 0
    assert (tmp_path / "one/tensor.bin").read_bytes() == (tmp_path / "two/tensor.bin").read_bytes()
    assert (tmp_path / "one/ground_truth.json").read_bytes() == \
        (tmp_path / "two/ground_truth.json").read_bytes()


def test_synth_writes_manifest_and_index(tmp_path):
    code = _run("synth", "--banks", 9, "--intervals", 10, "--days", 8,
                "--seed", 1, "--ledger", "--out", tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 1
    for name in manifest["outputs"]:
        assert (tmp_path / name).exists()
    index, _ = tfio.read_index(tmp_path / "index.json")
    assert len(index.bank_ids) == 9
    assert index.delta == 60


def test_synth_rejects_zero_days(tmp_path):
    assert _run("synth", "--days", 0, "--out", tmp_path) == 1


def test_synth_rejects_bad_group_sizes(tmp_path):
    assert _run("synth", "--banks", 10, "--group-sizes", "3,3,3", "--out", tmp_path) == 1


@pytest.mark.parametrize("args", [
    ["--mus", "nan,5,10"],
    ["--mus", "100,2,4", "--intervals", 4],  # every grid density underflows to 0
    ["--mus", "inf,5,10"],
    ["--sigma", "inf"],
], ids=["nan-mu", "zero-profile", "inf-mu", "inf-sigma"])
def test_synth_refuses_a_profile_it_cannot_build(tmp_path, capsys, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run("synth", "--banks", 9, "--days", 4, *args, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert caught == []
    assert (code, len(err.splitlines())) == (1, 1), err
    assert not (tmp_path / "out").exists()


def test_synth_builds_a_raw_profile_of_zeros(tmp_path):
    # Unrescaled, a group whose densities all underflow to 0 never trades.
    out = tmp_path / "out"
    assert _run("synth", "--banks", 9, "--days", 40, "--mus", "100,2,4", "--intervals", 4,
                "--raw-pdf", "--out", out) == 0
    values = tfio.read_tensor(out / "tensor.bin")[0].values
    assert values[:3].sum() == 0 and values[3:].sum() > 0


def test_synth_group_sizes_need_three_values(tmp_path, capsys):
    out = tmp_path / "o"
    assert _run("synth", "--banks", 8, "--group-sizes", "4,4,", "--out", out) == 1
    err = capsys.readouterr().err
    assert "--group-sizes needs 3 comma-separated values" in err, err
    assert not out.exists()


def test_ingest_sample_ledger(tmp_path):
    code = _run("ingest", SAMPLE_LEDGER, "--delta", 15, "--out", tmp_path)
    assert code == 0
    tensor, _ = tfio.read_tensor(tmp_path / "tensor.bin")
    # documented sample totals: 18 overnight rows summing to 217.0 mEUR
    assert tensor.values.sum() == 434.0
    report = json.loads((tmp_path / "ingest_report.json").read_text())
    assert report["rows_parsed"] == 20
    assert report["overnight_kept"] == 18
    assert report["banks"] == 6
    assert report["days"] == 3
    index, _ = tfio.read_index(tmp_path / "index.json")
    assert index.bank_ids == ("DE001", "FR001", "IT001", "IT002", "IT003", "UK001")


def test_ingest_rejects_non_divisor_delta(tmp_path):
    assert _run("ingest", SAMPLE_LEDGER, "--delta", 7, "--out", tmp_path) == 1


def test_ingest_missing_file(tmp_path):
    assert _run("ingest", tmp_path / "nope.csv", "--out", tmp_path / "o") == 2


def test_ingest_empty_ledger_warns_but_succeeds(tmp_path, capsys):
    ledger = tmp_path / "empty.csv"
    ledger.write_text(
        "timestamp,lender_id,borrower_id,amount_mEUR,proposer,maturity,"
        "lender_domestic,borrower_domestic\n"
    )
    code = _run("ingest", ledger, "--out", tmp_path / "out")
    assert code == 0
    assert "empty" in capsys.readouterr().err.lower()
    facts, ledger_sha256, _ = tfio.read_bank_facts(tmp_path / "out/bank_facts.json")
    assert ledger_sha256 == hashlib.sha256(ledger.read_bytes()).hexdigest()
    assert facts.bank_ids == () and facts.conflicts == ()
    assert facts.role_counts.shape == (0, 4) and facts.domestic.shape == (0,)


def test_ingest_reports_rejected_rows(tmp_path):
    ledger = tmp_path / "bad.csv"
    ledger.write_text(
        "timestamp,lender_id,borrower_id,amount_mEUR,proposer,maturity,"
        "lender_domestic,borrower_domestic\n"
        "2008-09-15T09:10,AAA,BBB,5.0,lender,ON,true,false\n"
        "2008-09-15T09:11,AAA,BBB,-5.0,lender,ON,true,false\n"
    )
    assert _run("ingest", ledger, "--out", tmp_path / "out") == 0
    report = json.loads((tmp_path / "out/ingest_report.json").read_text())
    assert report["rows_parsed"] == 1
    assert [r["line"] for r in report["rows_rejected"]] == [3]


@pytest.mark.parametrize("amount", ["inf", "1e400"])
def test_ingest_rejects_infinite_amount_as_row_issue(tmp_path, amount):
    ledger = tmp_path / "inf.csv"
    ledger.write_text(
        "timestamp,lender_id,borrower_id,amount_mEUR,proposer,maturity,"
        "lender_domestic,borrower_domestic\n"
        "2008-09-15T09:10,AAA,BBB,5.0,lender,ON,true,false\n"
        f"2008-09-15T09:11,AAA,BBB,{amount},lender,ON,true,false\n"
        "2008-09-15T09:12,BBB,AAA,2.5,borrower,ON,false,true\n"
    )
    assert _run("ingest", ledger, "--out", tmp_path / "out") == 0
    report = json.loads((tmp_path / "out/ingest_report.json").read_text())
    assert report["rows_parsed"] == 2
    assert report["rows_rejected"] == [{"line": 3, "message": "amount must be finite, got inf"}]
    assert tfio.read_tensor(tmp_path / "out/tensor.bin")[0].values.sum() == 15.0


def test_ingest_refuses_a_tensor_whose_squared_norm_overflows(tmp_path, capsys):
    # The binned tensor is refused when built, not written for fit to refuse.
    ledger = tmp_path / "big.csv"
    ledger.write_text(
        "timestamp,lender_id,borrower_id,amount_mEUR,proposer,maturity,"
        "lender_domestic,borrower_domestic\n"
        "2008-09-15T09:10,AAA,BBB,1e155,lender,ON,true,false\n"
    )
    assert _run("ingest", ledger, "--out", tmp_path / "out") == 1
    assert "exceeds float64's range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _write_rank_one_tensor(path):
    rng = np.random.default_rng(5)
    k = KruskalTensor(rng.random((6, 1)), rng.random((5, 1)), rng.random((7, 1)))
    tfio.write_tensor(path, reconstruct(k, "count"))


def test_fit_exact_rank_one(tmp_path, capsys):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    code = _run("fit", tensor_path, "--rank", 1, "--restarts", 3, "--seed", 2,
                "--out", tmp_path / "fit")
    assert code == 0
    fit = tfio.fit_result_from_dict(tfio.load_json(tmp_path / "fit/fit.json")[0])
    assert fit.rel_error < 1e-8
    restarts = json.loads((tmp_path / "fit/restarts.json").read_text())
    assert len(restarts) == 3
    assert {r["seed"] for r in restarts} == {2, 3, 4}


def test_fit_over_ranked_on_a_tiny_tensor_exits_zero(tmp_path, capsys):
    # Restart 0's first update meets a Gram that Cholesky factors and LU
    # finds singular; the solver must take the ridge, not end the command.
    tensor_path = tmp_path / "t.bin"
    tfio.write_tensor(tensor_path, DenseTensor3(np.random.default_rng(0).random((2, 2, 2))))
    code = _run("fit", tensor_path, "--rank", 5, "--restarts", 3, "--out", tmp_path / "fit")
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "fit/fit.json").is_file()


def _write_raw_tensor(path, values):
    """A TENSOR3 file packed field by field, so it can hold values that
    DenseTensor3 refuses."""
    tag = b"amount_meur"
    path.write_bytes(tfio.TENSOR_MAGIC + struct.pack("<II", tfio.TENSOR_FORMAT_VERSION, len(tag))
                     + tag + struct.pack("<QQQ", *values.shape)
                     + struct.pack(f"<{values.size}d", *values.ravel()))


def test_fit_refuses_a_tensor_whose_squared_norm_overflows(tmp_path, capsys):
    # Each entry is finite, but the misfit's 2 ||X||^2 is not: the fit would
    # warn and fail every restart, or clamp its misfit to 0 and stop.
    values = np.ones((2, 2, 2))
    for big, code in ((2e153, 0), (6.7e154, 2)):
        values[0, 0, 0] = big
        _write_raw_tensor(tmp_path / "t.bin", values)
        out = tmp_path / f"out{code}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run("fit", tmp_path / "t.bin", "--rank", 1, "--restarts", 2,
                        "--out", out) == code
        assert out.exists() == (code == 0)
    assert "exceeds float64's range" in capsys.readouterr().err


def test_fit_refuses_a_tensor_whose_squared_norm_underflows(tmp_path, capsys):
    # Every entry is positive, but ||X||^2 is 0 in float64, so every restart
    # would report a relative error of 0.
    _write_raw_tensor(tmp_path / "t.bin", np.random.default_rng(5).random((6, 5, 7)) * 1e-300)
    out = tmp_path / "out"
    assert _run("fit", tmp_path / "t.bin", "--rank", 3, "--restarts", 4, "--out", out) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "underflows" in err
    assert not out.exists()


def test_fit_missing_tensor(tmp_path):
    assert _run("fit", tmp_path / "no.bin", "--rank", 1, "--out", tmp_path / "o") == 2


def test_fit_cut_header_is_one_line_error(tmp_path, capsys):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    raw = tensor_path.read_bytes()
    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTMAGIC" + raw[8:])
    bad_magic_code = _run("fit", bad_magic, "--rank", 1, "--out", tmp_path / "m")
    capsys.readouterr()
    for size in (10, 20, 30):  # inside the version, the tag and the dims
        tensor_path.write_bytes(raw[:size])
        code = _run("fit", tensor_path, "--rank", 1, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == bad_magic_code != 0
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err and "file ends inside" in err


@pytest.mark.parametrize("command,extra", [("fit", ["--rank", 1]), ("corcondia", ["--rmax", 1])])
def test_rejects_nonpositive_jobs_before_creating_out(tmp_path, command, extra):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    for jobs in (0, -2):
        out = tmp_path / f"out{jobs}"
        assert _run(command, tensor_path, *extra, "--jobs", jobs, "--out", out) == 1
        assert not out.exists()


@pytest.mark.parametrize(("argv", "value"), [
    (["corcondia", "--rmax", 1, "--lcc", "nan"], "nan"),
    (["corcondia", "--rmax", 1, "--lcc", "inf"], "inf"),
    (["corcondia", "--rmax", 1, "--lcc=-inf"], "-inf"),
    (["corcondia", "--rmax", 1, "--lcc", "1e309"], "inf"),
    (["corcondia", "--rmax", 1, "--seed", -1], "-1"),
    (["fit", "--rank", 1, "--rel-tol", "inf"], "inf"),
    (["fit", "--rank", 1, "--seed", -1], "-1"),
    (["synth", "--days", 2, "--seed", -1], "-1"),
], ids=["lcc-nan", "lcc-inf", "lcc-minus-inf", "lcc-overflow", "corcondia-seed", "rel-tol-inf",
        "fit-seed", "synth-seed"])
def test_numeric_option_out_of_range_exits_before_any_fit(tmp_path, capsys, monkeypatch,
                                                         argv, value):
    from tempofact import cli, corcondia

    def never(*args, **kwargs):
        raise AssertionError("a refused option must stop the command before any fit")

    monkeypatch.setattr(cli, "fit_restarts", never)
    monkeypatch.setattr(corcondia, "fit_restarts", never)
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    command, *options = argv
    inputs = [] if command == "synth" else [tensor_path]
    out = tmp_path / "out"
    assert _run(command, *inputs, *options, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(f"got {value}"), err
    assert not out.exists()


def test_corcondia_small_scan(tmp_path, capsys):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    code = _run("corcondia", tensor_path, "--rmax", 2, "--restarts", 3, "--seed", 2,
                "--out", tmp_path / "scan")
    assert code == 0
    out = capsys.readouterr().out
    assert "selected rank:" in out
    scan = json.loads((tmp_path / "scan/rank_scan.json").read_text())
    assert scan["ranks"][0]["cc_mean"] == pytest.approx(100.0, abs=1e-6)
    csv_lines = (tmp_path / "scan/rank_scan.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "R,cc_mean,cc_lo,cc_hi"


_TENSOR_COMMANDS = [("fit", ["--rank", 1], "fit_restarts"),
                    ("corcondia", ["--rmax", 1], "rank_scan")]


@pytest.mark.parametrize("command,extra,_", _TENSOR_COMMANDS)
def test_tensor_manifest_records_the_file_sha256(tmp_path, command, extra, _):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    assert _run(command, tensor_path, *extra, "--restarts", 2, "--out", tmp_path / "o") == 0
    inputs = json.loads((tmp_path / "o/manifest.json").read_text())["inputs"]
    assert inputs == {"tensor": {"path": str(tensor_path),
                                 "sha256": hashlib.sha256(tensor_path.read_bytes()).hexdigest()}}


@pytest.mark.parametrize("command,extra,stage", _TENSOR_COMMANDS)
def test_tensor_replaced_during_the_fit_keeps_the_digest_of_the_bytes_fitted(
        tmp_path, monkeypatch, command, extra, stage):
    from tempofact import cli

    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    fitted = hashlib.sha256(tensor_path.read_bytes()).hexdigest()
    other = tmp_path / "other.bin"
    tfio.write_tensor(other, DenseTensor3(np.ones((2, 2, 2))))
    real = getattr(cli, stage)

    def replacing(*args, **kwargs):
        os.replace(other, tensor_path)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, stage, replacing)
    assert _run(command, tensor_path, *extra, "--restarts", 2, "--out", tmp_path / "o") == 0
    manifest = json.loads((tmp_path / "o/manifest.json").read_text())
    assert not other.exists()
    assert manifest["inputs"]["tensor"]["sha256"] == fitted


def test_corcondia_rejects_rmax_zero(tmp_path):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    assert _run("corcondia", tensor_path, "--rmax", 0, "--out", tmp_path / "o") == 1


def test_usage_error_exit_code():
    assert main(["fit"]) == 1          # missing required arguments
    assert main(["synth", "--days", "not-a-number", "--out", "x"]) == 1


@pytest.mark.parametrize("where", ["handler", "writer"])
@pytest.mark.parametrize("error, code, prefix", [
    (ValueError("a bad value"), 1, "error"),
    (tfio.FileFormatError("a malformed file"), 2, "i/o error"),
    (ingest.LedgerFormatError("a malformed ledger"), 2, "i/o error"),
    (OSError("a failed read"), 2, "i/o error"),
    (FitError("every restart failed"), 3, "numerical failure"),
])
def test_exit_code_table(tmp_path, capsys, monkeypatch, where, error, code, prefix):
    # Each error class maps to one exit code and one stderr line, whether the
    # command raises it or one of its writers does while the outputs are staged.
    from tempofact import cli

    def fail(*args):
        raise error

    def handler(args):
        if where == "handler":
            fail()
        return {}, {}, None, {"out.json": fail}, "never printed"

    monkeypatch.setattr(cli, "_cmd_fit", handler)
    out = tmp_path / "o"
    assert _run("fit", tmp_path / "t.bin", "--rank", 1, "--out", out) == code
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: {error}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # no --out, no stage left behind


def test_missing_argument_is_one_usage_line(capsys):
    assert main(["fit"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_unknown_init_mode_is_one_usage_line(tmp_path, capsys):
    assert _run("fit", tmp_path / "tensor.bin", "--rank", 2, "--init", "bogus",
                "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == ("error: argument --init: invalid choice: 'bogus' "
                                       "(choose from 'random-scaled', 'random-uniform')\n")
    assert list(tmp_path.iterdir()) == []


def test_random_uniform_init_writes_the_same_outputs_for_any_jobs(tmp_path):
    synth = tmp_path / "synth"
    assert _run("synth", "--banks", 12, "--intervals", 5, "--days", 30,
                "--seed", 3, "--out", synth) == 0
    runs = []
    for jobs in (1, 2):
        out = tmp_path / f"fit-{jobs}"
        assert _run("fit", synth / "tensor.bin", "--rank", 2, "--restarts", 3, "--seed", 1,
                    "--init", "random-uniform", "--jobs", jobs, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["init"] == "random-uniform"
        runs.append({name: (out / name).read_bytes() for name in manifest["outputs"]})
    assert runs[0] == runs[1]


def _small_pipeline(tmp_path, with_ledger=True):
    synth_dir = tmp_path / "synth"
    argv = ["synth", "--banks", "12", "--intervals", "5", "--days", "30",
            "--seed", "3", "--out", str(synth_dir)]
    if with_ledger:
        argv.insert(-2, "--ledger")
    assert main(argv) == 0
    fit_dir = tmp_path / "fit"
    assert _run("fit", synth_dir / "tensor.bin", "--rank", 2, "--restarts", 3,
                "--seed", 1, "--out", fit_dir) == 0
    return synth_dir, fit_dir


def test_analyze_full_bundle(tmp_path):
    synth_dir, fit_dir = _small_pipeline(tmp_path)
    rep = tmp_path / "rep"
    code = _run("analyze", fit_dir / "fit.json", "--index", synth_dir / "index.json",
                "--ledger", synth_dir / "ledger.csv", "--out", rep)
    assert code == 0
    for name in ("intraday_profiles.csv", "interday_activity.csv", "component_shares.csv",
                 "affiliation_sizes.csv", "jaccard.csv", "membership_means.csv",
                 "role_frequencies.csv", "nationality.csv", "analysis.json",
                 "manifest.json"):
        assert (rep / name).exists(), name
    bundle = json.loads((rep / "analysis.json").read_text())
    assert bundle["roles"] is not None
    assert bundle["nationality"]["p"] == 1.0
    shares = (rep / "component_shares.csv").read_text().strip().splitlines()
    assert len(shares) == 31  # header + 30 days


def test_analyze_ledger_of_over_a_thousand_banks(tmp_path):
    # A component of 1,070 members: C(n, k) passes the largest float from
    # about n = 1,030, which the binomial band once summed as a float.
    synth_dir, ingest_dir, fit_dir = (tmp_path / name for name in ("synth", "ingest", "fit"))
    assert _run("synth", "--banks", 1100, "--days", 8, "--peak-fitness", 0.03, "--ledger",
                "--seed", 3, "--out", synth_dir) == 0
    assert _run("ingest", synth_dir / "ledger.csv", "--delta", 30, "--out", ingest_dir) == 0
    assert _run("fit", ingest_dir / "tensor.bin", "--rank", 2, "--restarts", 2,
                "--out", fit_dir) == 0
    rep = tmp_path / "rep"
    assert _run("analyze", fit_dir / "fit.json", "--index", ingest_dir / "index.json",
                "--ledger", synth_dir / "ledger.csv", "--percentile", 0, "--out", rep) == 0
    rows = (rep / "nationality.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == ["1070", "1070"]


def test_analyze_without_ledger_skips_role_outputs(tmp_path):
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    rep = tmp_path / "rep"
    code = _run("analyze", fit_dir / "fit.json", "--index", synth_dir / "index.json",
                "--out", rep)
    assert code == 0
    assert not (rep / "role_frequencies.csv").exists()
    assert not (rep / "nationality.csv").exists()
    bundle = json.loads((rep / "analysis.json").read_text())
    assert bundle["roles"] is None
    manifest = json.loads((rep / "manifest.json").read_text())
    assert manifest["config"]["ledger_provided"] is False


def test_analyze_detects_index_mismatch(tmp_path):
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    other = tmp_path / "other"
    assert _run("synth", "--banks", 8, "--intervals", 5, "--days", 30,
                "--seed", 4, "--out", other) == 0
    assert _run("analyze", fit_dir / "fit.json", "--index", other / "index.json",
                "--out", tmp_path / "rep") == 1


def test_synth_debug_json_flag_is_gone(tmp_path):
    assert _run("synth", "--days", 3, "--debug-json", "--out", tmp_path / "o") == 1
    assert not (tmp_path / "o").exists()


def test_fit_cut_header_exits_io(tmp_path):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    tensor_path.write_bytes(tensor_path.read_bytes()[:20])
    assert _run("fit", tensor_path, "--rank", 1, "--out", tmp_path / "o") == 2
    assert not (tmp_path / "o").exists()


def test_analyze_bad_ledger_exits_io_without_creating_out(tmp_path, capsys):
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    ledger = tmp_path / "bad.csv"
    ledger.write_text("when,who,whom\n2008-09-15T09:10,AAA,BBB\n")
    rep = tmp_path / "rep"
    capsys.readouterr()
    code = _run("analyze", fit_dir / "fit.json", "--index", synth_dir / "index.json",
                "--ledger", ledger, "--out", rep)
    assert code == 2
    assert "bad header" in capsys.readouterr().err
    assert not rep.exists()
    # ingest maps the same file to the same exit code
    assert _run("ingest", ledger, "--out", tmp_path / "ing") == 2
    assert not (tmp_path / "ing").exists()


@pytest.mark.parametrize("command", ["ingest", "analyze"])
@pytest.mark.parametrize(("fault", "fault_line"), [
    ("non-utf8", 3), ("oversized-field", 3), ("non-utf8", 9), ("oversized-field", 9)],
    ids=["non-utf8", "oversized-field", "non-utf8-line9", "oversized-field-line9"])
def test_undecodable_ledger_exits_io_without_creating_out(tmp_path, capsys, monkeypatch,
                                                          command, fault, fault_line):
    # Both faults hit the whole file, not one row: a byte that is not UTF-8
    # and a field past the csv module's size limit.  With chunks of three
    # lines, line 3 is in the first chunk of rows and line 9 in the third.
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 3)
    start = ("timestamp,lender_id,borrower_id,amount_mEUR,proposer,maturity,"
             "lender_domestic,borrower_domestic\n").encode()
    start += b"2008-09-15T09:10,AAA,BBB,5.0,lender,ON,true,false\n" * (fault_line - 2)
    if fault == "non-utf8":
        bad_row = b"2008-09-15T09:11,AA\xff,BBB,5.0,lender,ON,true,false\n"
        expected = "not UTF-8 text: invalid start byte"
    else:
        maturity = b"O" * (csv.field_size_limit() + 1)
        bad_row = b"2008-09-15T09:11,AAA,BBB,5.0,lender," + maturity + b",true,false\n"
        expected = f"line {fault_line}: field larger than field limit ({csv.field_size_limit()})"
    ledger = tmp_path / "ledger.csv"
    ledger.write_bytes(start + bad_row + b"2008-09-15T09:12,AAA,BBB,5.0,lender,ON,true,false\n")
    out = tmp_path / "out"
    if command == "ingest":
        argv = ["ingest", ledger, "--out", out]
    else:  # a synth index has no bank_facts.json beside it, so analyze parses the ledger
        synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
        argv = ["analyze", fit_dir / "fit.json", "--index", synth_dir / "index.json",
                "--ledger", ledger, "--out", out]
    capsys.readouterr()
    assert _run(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.strip().endswith(expected), err
    assert not out.exists()


def test_analyze_non_finite_fit_exits_io_without_out(tmp_path, capsys):
    # Python's json reads the NaN and Infinity literals that dumps writes.
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    fit = json.loads((fit_dir / "fit.json").read_text())
    nan_weight, inf_bank = copy.deepcopy(fit), copy.deepcopy(fit)
    nan_weight["weights"][0] = math.nan
    inf_bank["factors"]["bank"][0][0] = math.inf
    cases = {"weights must be finite": nan_weight, "factor A has non-finite entries": inf_bank}
    for k, (expected, doc) in enumerate(cases.items()):
        fit_path = tmp_path / f"fit{k}.json"
        fit_path.write_text(json.dumps(doc))
        rep = tmp_path / f"rep{k}"
        capsys.readouterr()
        assert _run("analyze", fit_path, "--index", synth_dir / "index.json",
                    "--out", rep) == 2, expected
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert expected in err
        assert not rep.exists()


def test_analyze_foreign_fit_json_exits_io(tmp_path):
    synth_dir, _ = _small_pipeline(tmp_path, with_ledger=False)
    rep = tmp_path / "rep"
    code = _run("analyze", synth_dir / "ground_truth.json", "--index",
                synth_dir / "index.json", "--out", rep)
    assert code == 2
    assert not rep.exists()


@pytest.mark.parametrize("option,value", [("--smooth-window", 0), ("--percentile", 150)])
def test_analyze_bad_argument_creates_no_out(tmp_path, option, value):
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    rep = tmp_path / "rep"
    assert _run("analyze", fit_dir / "fit.json", "--index", synth_dir / "index.json",
                option, value, "--out", rep) == 1
    assert not rep.exists()


def _loaded_modules(module, package):
    """The modules of ``package`` in ``sys.modules`` after importing ``module``
    in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (f"import sys, {module}\n"
            f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(out.stdout.split())


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when numpy loads it, so each count
    # runs in a fresh interpreter.
    synth = tmp_path / "synth"
    assert _run("synth", "--banks", 40, "--intervals", 10, "--days", 100,
                "--seed", 3, "--out", synth) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    commands = {"fit": ["--rank", "2"], "corcondia": ["--rmax", "2"]}
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        for command, options in commands.items():
            # Two restart threads call OpenBLAS at once under --jobs 2.
            for jobs in ("1", "2"):
                out = tmp_path / f"{command}-{threads}-{jobs}"
                subprocess.run([sys.executable, "-m", "tempofact.cli", command,
                                str(synth / "tensor.bin"), *options, "--restarts", "3",
                                "--seed", "1", "--jobs", jobs, "--out", str(out)],
                               env=env, capture_output=True, check=True)
                manifest = json.loads((out / "manifest.json").read_text())
                outputs.setdefault(command, []).append(manifest["outputs"])
    for command, runs in outputs.items():
        assert len(runs) == 4 and all(run == runs[0] for run in runs), command


def test_cli_import_does_not_load_scipy_stats():
    loaded = _loaded_modules("tempofact.cli", "scipy")
    assert "scipy.stats" not in loaded
    assert "scipy.linalg" not in loaded


def test_cli_import_does_not_load_multiprocessing():
    assert _loaded_modules("tempofact.cli", "multiprocessing") == set()


def test_nnls_module_loads_no_scipy():
    for module in ("tempofact.nnls", "tempofact.tensor", "tempofact.als"):
        assert _loaded_modules(module, "scipy") == set(), module


def test_package_import_loads_no_numpy():
    assert _loaded_modules("tempofact", "numpy") == set()


def test_fit_all_restarts_failed_exits_numerical_without_out(tmp_path, monkeypatch):
    from tempofact import cli

    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    monkeypatch.setattr(cli, "fit_restarts", lambda x, cfg, jobs: [None] * cfg.restarts)
    out = tmp_path / "o"
    assert _run("fit", tensor_path, "--rank", 1, "--restarts", 2, "--out", out) == 3
    assert not out.exists()


def test_analyze_malformed_json_inputs_exit_io(tmp_path, capsys):
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    index = json.loads((synth_dir / "index.json").read_text())
    del index["window"]
    (tmp_path / "no_window.json").write_text(json.dumps(index))
    fit = json.loads((fit_dir / "fit.json").read_text())
    del fit["weights"]
    (tmp_path / "no_weights.json").write_text(json.dumps(fit))
    (tmp_path / "not_json.json").write_text("{ this is not JSON")
    cases = {
        "KeyError: 'window'": (fit_dir / "fit.json", tmp_path / "no_window.json"),
        "KeyError: 'weights'": (tmp_path / "no_weights.json", synth_dir / "index.json"),
        "not a JSON document": (tmp_path / "not_json.json", synth_dir / "index.json"),
    }
    for k, (expected, (fit_path, index_path)) in enumerate(cases.items()):
        rep = tmp_path / f"rep{k}"
        capsys.readouterr()
        assert _run("analyze", fit_path, "--index", index_path, "--out", rep) == 2, expected
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert expected in err
        assert not rep.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_fit_with_a_mistyped_field_exits_io(tmp_path, capsys):
    # Each case changes one field of a valid fit.json; int(), float(), bool()
    # and np.asarray would read every one of them.
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    valid = json.loads((fit_dir / "fit.json").read_text())
    bank = valid["factors"]["bank"]
    cases = {
        "converged must be bool, got str": {"converged": "no"},
        "seed must be int, got float": {"seed": 4.5},
        "not a supported fit_result document": {"version": True},
        "sweeps_used must be int, got str": {"sweeps_used": "23"},
        "rel_error must be int or float, got str": {"rel_error": "0.5"},
        "objective_trace must be a list of int or float, got an item of type bool":
            {"objective_trace": [True]},
        "weights must be a list of int or float, got an item of type str":
            {"weights": [str(w) for w in valid["weights"]]},
        "bank must be a list of lists of int or float, got an item of type bool":
            {"factors": {**valid["factors"], "bank": [[True, *bank[0][1:]], *bank[1:]]}},
        "KeyError: 'dims'": {"dims": None},
        "dims must be a list of int": {"dims": [12.0, 5, 30]},
        "dims [12, 5, 31] and rank 2 do not match": {"dims": [12, 5, 31]},
        "dims [12, 5, 30] and rank 3 do not match": {"rank": 3},
        "factor matrices need at least one column": {
            "rank": 0, "weights": [],
            "factors": {mode: [[] for _ in rows] for mode, rows in valid["factors"].items()}},
        # Finite, but a column norm or the model's mass overflows float64.
        "a factor column's norm overflows":
            {"factors": {**valid["factors"], "bank": [[1e308, *bank[0][1:]], *bank[1:]]}},
        "the weights scaled by the factor column sums overflow":
            {"weights": [1e308, *valid["weights"][1:]]},
    }
    for k, (expected, change) in enumerate(cases.items()):
        fit = {**valid, **change}
        if fit["dims"] is None:
            del fit["dims"]
        (tmp_path / "fit.json").write_text(json.dumps(fit))
        rep = tmp_path / f"rep{k}"
        capsys.readouterr()
        assert _run("analyze", tmp_path / "fit.json", "--index", synth_dir / "index.json",
                    "--out", rep) == 2, expected
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert expected in err
        assert not rep.exists()


def test_analyze_index_with_a_string_delta_exits_io(tmp_path, capsys):
    # "120" would read as the right resolution under int(); the type is wrong.
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    index = json.loads((synth_dir / "index.json").read_text())
    index["delta_minutes"] = str(index["delta_minutes"])
    (tmp_path / "index.json").write_text(json.dumps(index))
    rep = tmp_path / "rep"
    capsys.readouterr()
    assert _run("analyze", fit_dir / "fit.json", "--index", tmp_path / "index.json",
                "--out", rep) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "delta_minutes must be int, got str" in err
    assert not rep.exists()


def test_analyze_index_with_another_window_exits_io(tmp_path, capsys):
    # Binning always covers 08:00-18:00, so another window would be mislabelled.
    synth_dir, fit_dir = _small_pipeline(tmp_path, with_ledger=False)
    index = json.loads((synth_dir / "index.json").read_text())
    index["window"] = ["09:00", "17:00"]
    (tmp_path / "index.json").write_text(json.dumps(index))
    rep = tmp_path / "rep"
    capsys.readouterr()
    assert _run("analyze", fit_dir / "fit.json", "--index", tmp_path / "index.json",
                "--out", rep) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "window must be ['08:00', '18:00']" in err
    assert not rep.exists()


def test_synth_unplaceable_ledger_creates_no_out(tmp_path):
    out = tmp_path / "o"
    assert _run("synth", "--intervals", 7, "--days", 3, "--ledger", "--out", out) == 1
    assert not out.exists()


def test_synth_ledger_refuses_an_unplaceable_interval_count_before_simulating(
        tmp_path, capsys, monkeypatch):
    from tempofact import cli
    from tempofact.synthetic import SyntheticConfig, market_index

    assert market_index(SyntheticConfig(n_banks=4, intervals=7, days=2,
                                        group_sizes=(2, 1, 1), seed=1)) is None

    def never(cfg):
        raise AssertionError("simulated a market whose ledger cannot be written")

    monkeypatch.setattr(cli, "generate_with_log", never)
    out = tmp_path / "o"
    assert _run("synth", "--banks", 4, "--intervals", 7, "--days", 2, "--group-sizes", "2,1,1",
                "--seed", 1, "--ledger", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cannot place 7 intervals on a 600-minute trading window\n"
    assert captured.out == ""
    assert not out.exists()


def test_ingest_checks_delta_before_reading(tmp_path):
    out = tmp_path / "o"
    assert _run("ingest", tmp_path / "missing.csv", "--delta", 7, "--out", out) == 1
    assert not out.exists()


def test_corcondia_failure_creates_no_out(tmp_path, monkeypatch):
    from tempofact import cli
    from tempofact.als import FitError

    def fail(*args, **kwargs):
        raise FitError("every restart failed")

    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    monkeypatch.setattr(cli, "rank_scan", fail)
    out = tmp_path / "o"
    assert _run("corcondia", tensor_path, "--rmax", 1, "--out", out) == 3
    assert not out.exists()


# Overnight trades between index banks stamped outside 08:00-18:00 (07:30,
# 20:00), a bank that trades only outside the window (ZZZ), non-overnight
# rows (1W, TN), a domestic-flag conflict (EEE) and one rejected row.
_HAND_LEDGER = """\
timestamp,lender_id,borrower_id,amount_mEUR,proposer,maturity,lender_domestic,borrower_domestic
2008-09-15T09:10,AAA,BBB,5.0,lender,ON,1,0
2008-09-15T09:40,BBB,CCC,3.0,borrower,ON,0,1
2008-09-15T07:30,CCC,AAA,2.0,lender,ON,1,1
2008-09-15T11:00,DDD,EEE,4.0,borrower,ONL,1,0
2008-09-15T12:00,AAA,DDD,6.0,lender,1W,1,1
2008-09-15T19:15,ZZZ,AAA,1.0,borrower,ON,0,1
2008-09-15T13:00,EEE,AAA,2.5,lender,ON,1,1
2008-09-15T14:00,AAA,BBB,-1.0,lender,ON,1,0
2008-09-16T08:00,CCC,DDD,1.5,borrower,ON,1,1
2008-09-16T18:00,BBB,EEE,2.0,lender,ON,0,0
2008-09-16T20:00,DDD,BBB,3.5,lender,ON,1,0
2008-09-16T10:30,EEE,CCC,1.0,borrower,TN,0,1
"""


def _hand_pipeline(tmp_path):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(_HAND_LEDGER)
    assert _run("ingest", ledger, "--delta", 120, "--out", tmp_path / "ingest") == 0
    assert _run("fit", tmp_path / "ingest/tensor.bin", "--rank", 1, "--restarts", 2,
                "--seed", 1, "--out", tmp_path / "fit") == 0
    return ledger


def _analyze_ledger(tmp_path, ledger, name):
    rep = tmp_path / name
    assert _run("analyze", tmp_path / "fit/fit.json", "--index", tmp_path / "ingest/index.json",
                "--ledger", ledger, "--percentile", 50, "--out", rep) == 0
    inputs = json.loads((rep / "manifest.json").read_text())["inputs"]
    return rep, json.loads((rep / "analysis.json").read_text()), inputs


def test_analyze_stored_and_parsed_bank_facts_give_the_same_bytes(tmp_path):
    ledger = _hand_pipeline(tmp_path)
    stored_facts = tmp_path / "ingest/bank_facts.json"
    facts, _, _ = tfio.read_bank_facts(stored_facts)
    # Out-of-window trades between index banks count; ZZZ's trade and the
    # 1W, TN and rejected rows do not.
    assert facts.role_counts.tolist() == [[0, 0, 2, 1], [1, 0, 2, 1], [1, 1, 0, 1],
                                          [1, 1, 0, 1], [0, 1, 1, 1]]
    stored, bundle, inputs = _analyze_ledger(tmp_path, ledger, "stored")
    assert inputs["bank_facts"] == {"path": str(stored_facts),
                                    "sha256": hashlib.sha256(stored_facts.read_bytes()).hexdigest()}
    assert bundle["nationality"]["flag_conflicts"] == ["EEE"]
    assert bundle["nationality"]["p"] == 0.6  # AAA, CCC and DDD are first seen domestic
    stored_facts.rename(tmp_path / "bank_facts.json")
    parsed, _, inputs = _analyze_ledger(tmp_path, ledger, "parsed")
    assert "bank_facts" not in inputs
    for name in ("role_frequencies.csv", "nationality.csv", "analysis.json"):
        assert (stored / name).read_bytes() == (parsed / name).read_bytes(), name

    # One byte after ingest: AAA's first domestic flag, 1 -> 0.
    (tmp_path / "bank_facts.json").rename(stored_facts)
    ledger.write_text(_HAND_LEDGER.replace("lender,ON,1,0\n", "lender,ON,0,0\n", 1))
    _, bundle, inputs = _analyze_ledger(tmp_path, ledger, "edited")
    assert "bank_facts" not in inputs
    assert bundle["nationality"]["flag_conflicts"] == ["AAA", "EEE"]
    assert bundle["nationality"]["p"] == 0.4


def test_ingest_of_the_hand_ledger_writes_pinned_bytes(tmp_path):
    # ingest uses no BLAS, so its bytes do not depend on the platform; a
    # change to parsing, binning or the facts that moves any of them fails.
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(_HAND_LEDGER)
    assert _run("ingest", ledger, "--delta", 120, "--out", tmp_path / "ingest") == 0
    digests = {name: hashlib.sha256((tmp_path / "ingest" / name).read_bytes()).hexdigest()
               for name in ("tensor.bin", "index.json", "bank_facts.json", "ingest_report.json")}
    assert digests == {
        "tensor.bin": "33205a5dc2bfb5d0543ece2ec5502384c3d987eb14fcfc7502e07d862916cf02",
        "index.json": "0521347d38f478ad0c2f4ac074457ba7f834c1e9eda39f4ec9071d79524f9ec6",
        "bank_facts.json": "cf0461d153cfdf733e0ce2a3c0bea9eb80a71b2be6cc9bf29c6dbff308fc6ba6",
        "ingest_report.json": "28967d7b052e54346c99c0466fcc3194d68cff6dbbc5f98cbd1accb9f5818e52",
    }


@pytest.mark.parametrize("command,when,other", [
    ("ingest", "after", _HAND_LEDGER.splitlines(keepends=True)[0]),  # the header alone
    # analyze refuses a ledger in which no member bank trades.
    ("analyze", "before", _HAND_LEDGER.replace("lender,ON,1,0\n", "lender,ON,0,0\n", 1)),
], ids=["ingest", "analyze"])
def test_ledger_replaced_around_the_parse_keeps_the_digest_of_the_bytes_parsed(
        tmp_path, monkeypatch, command, when, other):
    # ingest hashed the ledger in a read after the parse, and analyze in one
    # before it: a file moved over the ledger between the two reads made the
    # manifest describe bytes that were not parsed.
    from tempofact import cli

    ledger = _hand_pipeline(tmp_path)
    (tmp_path / "ingest/bank_facts.json").unlink()  # so that analyze parses the ledger
    replacement = tmp_path / "other.csv"
    replacement.write_text(other)
    parsed = hashlib.sha256((replacement if when == "before" else ledger).read_bytes())
    real = cli.load_transactions

    def replacing(source):
        if when == "before":
            os.replace(replacement, ledger)
        loaded = real(source)
        if when == "after":
            os.replace(replacement, ledger)
        return loaded

    monkeypatch.setattr(cli, "load_transactions", replacing)
    if command == "ingest":
        argv = ["ingest", ledger, "--delta", 120, "--out", tmp_path / "o"]
    else:
        argv = ["analyze", tmp_path / "fit/fit.json", "--index", tmp_path / "ingest/index.json",
                "--ledger", ledger, "--percentile", 50, "--out", tmp_path / "o"]
    assert _run(*argv) == 0
    manifest = json.loads((tmp_path / "o/manifest.json").read_text())
    assert not replacement.exists()
    assert manifest["inputs"]["ledger"]["sha256"] == parsed.hexdigest()


@pytest.mark.parametrize("reader,name,key", [
    ("load_json", "fit/fit.json", "fit"),
    ("read_index", "ingest/index.json", "index"),
    ("read_bank_facts", "ingest/bank_facts.json", "bank_facts"),
])
def test_analyze_input_replaced_after_its_read_keeps_the_digest_of_the_bytes_parsed(
        tmp_path, monkeypatch, reader, name, key):
    # analyze hashed fit.json, index.json and bank_facts.json in reads of
    # their own after parsing them: a file moved over an input between the
    # two reads made the manifest describe bytes that were not parsed.
    ledger = _hand_pipeline(tmp_path)
    target = tmp_path / name
    parsed = hashlib.sha256(target.read_bytes()).hexdigest()
    replacement = tmp_path / "other.json"
    replacement.write_bytes(target.read_bytes() + b"\n")
    real = getattr(tfio, reader)

    def replacing(path):
        result = real(path)
        if Path(path) == target:
            os.replace(replacement, target)
        return result

    monkeypatch.setattr(tfio, reader, replacing)
    _, _, inputs = _analyze_ledger(tmp_path, ledger, "rep")
    assert not replacement.exists()
    assert inputs[key]["sha256"] == parsed


def _opens(paths, *argv) -> dict:
    """Run a command and return how many times it opened each of ``paths``."""
    counts, real = {}, open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            counts[os.fspath(file)] = counts.get(os.fspath(file), 0) + 1
        return real(file, *args, **kwargs)

    with mock.patch("builtins.open", counted), mock.patch("io.open", counted):
        assert _run(*argv) == 0
    return {Path(p).name: counts.get(str(p), 0) for p in paths}


def test_each_input_is_opened_once(tmp_path):
    # analyze opened fit.json, index.json and bank_facts.json once to parse
    # them and once to hash them, and a ledger it parsed once more to hash it.
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(_HAND_LEDGER)
    ing, fit = tmp_path / "ingest", tmp_path / "fit"
    assert _opens([ledger], "ingest", ledger, "--delta", 120, "--out", ing) == {"ledger.csv": 1}
    tensor = ing / "tensor.bin"
    assert _opens([tensor], "fit", tensor, "--rank", 1, "--restarts", 2,
                  "--out", fit) == {"tensor.bin": 1}
    assert _opens([tensor], "corcondia", tensor, "--rmax", 1, "--restarts", 2,
                  "--out", tmp_path / "scan") == {"tensor.bin": 1}

    def analyze(index, ledger, fit_json=fit / "fit.json", **expected):
        inputs = [fit_json, index, index.parent / "bank_facts.json", ledger]
        opens = _opens(inputs, "analyze", fit_json, "--index", index, "--ledger", ledger,
                       "--percentile", 50, "--out", tmp_path / "rep")
        assert opens == {"fit.json": 1, "index.json": 1, "bank_facts.json": 1,
                         "ledger.csv": 1, **expected}

    analyze(ing / "index.json", ledger)
    ledger.write_text(_HAND_LEDGER.replace("lender,ON,1,0\n", "lender,ON,0,0\n", 1))
    analyze(ing / "index.json", ledger, **{"ledger.csv": 2})  # stale facts: hashed, then parsed
    synth = tmp_path / "synth"
    assert _run("synth", "--banks", 12, "--intervals", 5, "--days", 30, "--seed", 3,
                "--ledger", "--out", synth) == 0
    assert _run("fit", synth / "tensor.bin", "--rank", 2, "--restarts", 2,
                "--out", tmp_path / "synth-fit") == 0
    analyze(synth / "index.json", synth / "ledger.csv", tmp_path / "synth-fit/fit.json",
            **{"bank_facts.json": 0})


def test_analyze_ignores_bank_facts_of_other_banks(tmp_path):
    ledger = _hand_pipeline(tmp_path)
    stored_facts = tmp_path / "ingest/bank_facts.json"
    doc = json.loads(stored_facts.read_text())
    doc["bank_ids"][0] = "AAB"
    stored_facts.write_text(json.dumps(doc))
    _, bundle, inputs = _analyze_ledger(tmp_path, ledger, "rep")
    assert "bank_facts" not in inputs
    assert bundle["nationality"]["p"] == 0.6


def test_ledger_pipeline_parses_the_ledger_once(tmp_path, monkeypatch):
    from tempofact import cli

    calls = []

    def counted(source, _load=cli.load_transactions):
        calls.append(source)
        return _load(source)

    monkeypatch.setattr(cli, "load_transactions", counted)
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--banks", 12, "--intervals", 5, "--days", 30, "--seed", 3,
                "--ledger", "--out", synth_dir) == 0
    assert _run("ingest", synth_dir / "ledger.csv", "--delta", 120,
                "--out", tmp_path / "ingest") == 0
    assert _run("fit", tmp_path / "ingest/tensor.bin", "--rank", 2, "--restarts", 2,
                "--seed", 1, "--out", tmp_path / "fit") == 0
    assert _run("analyze", tmp_path / "fit/fit.json", "--index", tmp_path / "ingest/index.json",
                "--ledger", synth_dir / "ledger.csv", "--out", tmp_path / "rep") == 0
    assert len(calls) == 1


def test_analyze_malformed_bank_facts_exit_io(tmp_path, capsys):
    ledger = _hand_pipeline(tmp_path)
    stored_facts = tmp_path / "ingest/bank_facts.json"
    valid = json.loads(stored_facts.read_text())
    counts = valid["role_counts"]
    cases = {
        "not a JSON document": "{ this is not JSON",
        "not a supported bank_facts document": [{"format": "fit_result"}, {"version": 2}],
        "bank facts need 5 rows": [{"domestic": valid["domestic"][1:]},
                                   {"role_counts": counts[1:]}],
        "non-negative integers": [{"role_counts": [[-1, 0, 0, 0]] + counts[1:]}],
        "role_counts must be a list of lists of int, got an item of type float":
            [{"role_counts": [[0.5, 0, 0, 0]] + counts[1:]}],
        "domestic must be a list of bool": [{"domestic": [1] + valid["domestic"][1:]}],
    }
    k = 0
    for expected, edits in cases.items():
        for edit in [edits] if isinstance(edits, str) else edits:
            stored_facts.write_text(edit if isinstance(edit, str)
                                    else json.dumps({**valid, **edit}))
            rep = tmp_path / f"rep{k}"
            k += 1
            capsys.readouterr()
            assert _run("analyze", tmp_path / "fit/fit.json", "--index",
                        tmp_path / "ingest/index.json", "--ledger", ledger, "--out", rep) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1, err
            assert expected in err, (edit, err)
            assert not rep.exists()


def _fail_restart_one(monkeypatch):
    """Make the restart with seed offset 1 fail with a known FitError."""
    import tempofact.als as als_mod

    real_fit_once = als_mod.fit_once

    def fit_once(x, cfg, seed):
        if seed == cfg.seed + 1:
            raise als_mod.FitError("sweep 7: NNLS update stalled (forced)")
        return real_fit_once(x, cfg, seed)

    monkeypatch.setattr(als_mod, "fit_once", fit_once)


def test_failed_restart_reasons_are_written(tmp_path, monkeypatch):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    _fail_restart_one(monkeypatch)
    assert _run("fit", tensor_path, "--rank", 1, "--restarts", 3, "--seed", 2,
                "--out", tmp_path / "fit") == 0
    rows = json.loads((tmp_path / "fit/restarts.json").read_text())
    assert rows[1] == {"restart": 1, "failed": True,
                       "reason": "sweep 7: NNLS update stalled (forced)"}
    assert all("reason" not in rows[k] and "failed" not in rows[k] for k in (0, 2))
    assert _run("corcondia", tensor_path, "--rmax", 1, "--restarts", 3, "--seed", 2,
                "--out", tmp_path / "scan") == 0
    rec = json.loads((tmp_path / "scan/rank_scan.json").read_text())["ranks"][0]
    assert rec["cc_values"][1] is None and rec["n_failed"] == 1
    assert rec["failures"] == [{"restart": 1, "reason": "sweep 7: NNLS update stalled (forced)"}]


def test_degenerate_core_reason_is_written(tmp_path, monkeypatch):
    from tempofact import corcondia

    real_core = corcondia.tucker_core
    calls = []

    def second_core_degenerate(x, k):
        calls.append(k)
        if len(calls) == 2:
            raise corcondia.DegenerateFactorError("B", np.inf)
        return real_core(x, k)

    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    monkeypatch.setattr(corcondia, "tucker_core", second_core_degenerate)
    assert _run("corcondia", tensor_path, "--rmax", 1, "--restarts", 3, "--seed", 2,
                "--out", tmp_path / "scan") == 0
    rec = json.loads((tmp_path / "scan/rank_scan.json").read_text())["ranks"][0]
    assert rec["cc_values"][1] is None and rec["rel_errors"][1] is not None
    assert rec["failures"] == [{"restart": 1, "reason": str(
        corcondia.DegenerateFactorError("B", np.inf))}]
    assert rec["failures"][0]["reason"].startswith("factor B is numerically rank deficient")


def test_scan_without_failures_has_no_failure_keys(tmp_path):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    assert _run("corcondia", tensor_path, "--rmax", 1, "--restarts", 3, "--seed", 2,
                "--out", tmp_path / "scan") == 0
    scan = json.loads((tmp_path / "scan/rank_scan.json").read_text())
    assert [sorted(rec) for rec in scan["ranks"]] == [
        ["cc_ci95", "cc_mean", "cc_values", "n_failed", "rank", "rel_errors"]]
    assert _run("fit", tensor_path, "--rank", 1, "--restarts", 3, "--seed", 2,
                "--out", tmp_path / "fit") == 0
    rows = json.loads((tmp_path / "fit/restarts.json").read_text())
    assert [sorted(r) for r in rows] == [["converged", "rel_error", "restart", "seed",
                                          "sweeps_used"]] * 3


# -- ingest against the exit-code contract, on mutated ledgers -------------

_HAND_LINES = _HAND_LEDGER.splitlines()
_FUZZ_TEXT = st.one_of(
    st.sampled_from([
        "", " ", "x", "0", "-1", "nan", "inf", "-inf", "1e400", "1e-400", "true", "maybe",
        "lender", "BORROWER", "ON", "ONL", "1W", "AAA", "2008-09-15T07:59", "2008-09-15T18:00",
        "2008-09-15T18:00:01", "2008-02-30T09:00", "2008-09-15T09:10+01:00", "2008-09-15",
        '"', '"A,B"', '"two\r\nlines"', "A\x00B", "é", "\udcff",  # a byte that is not UTF-8
        "x" * (csv.field_size_limit() + 1),
    ]),
    st.text(max_size=8),
)
_LINE = st.integers(0, len(_HAND_LINES) - 1)
_FIELD = st.integers(0, len(ingest.LEDGER_COLUMNS) - 1)
_MUTATION = st.one_of(
    st.tuples(st.just("replace field"), _LINE, _FIELD, _FUZZ_TEXT),
    st.tuples(st.just("delete field"), _LINE, _FIELD),
    st.tuples(st.just("duplicate field"), _LINE, _FIELD),
    st.tuples(st.just("replace line"), _LINE, _FUZZ_TEXT),
    st.tuples(st.just("delete line"), _LINE),
    st.tuples(st.just("duplicate line"), _LINE),
)


def _mutated_ledger(mutation) -> bytes:
    """The hand ledger with one field or line replaced, deleted or
    duplicated, as raw bytes; a lone surrogate stands for a byte that is
    not UTF-8."""
    lines = list(_HAND_LINES)
    kind, line, *rest = mutation
    if kind.endswith("field"):
        fields = lines[line].split(",")
        k = rest[0]
        if kind == "replace field":
            fields[k] = rest[1]
        elif kind == "delete field":
            del fields[k]
        else:
            fields.insert(k, fields[k])
        lines[line] = ",".join(fields)
    elif kind == "replace line":
        lines[line] = rest[0]
    elif kind == "delete line":
        del lines[line]
    else:
        lines.insert(line, lines[line])
    return "".join(line + "\r\n" for line in lines).encode("utf-8", "surrogateescape")


def _run_under_contract(*argv, usage_error=None) -> int:
    """Run ``main(argv)`` and check the exit-code contract: no warning and no
    traceback, at most one stderr line, exit 0 or 2, or exit 1 only with a
    line that starts with ``usage_error``, and no ``--out`` after a failure."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(*argv)
    err = stderr.getvalue()
    assert caught == []
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1, err
    assert code in (0, 2) or code == 1 and usage_error and err.startswith(usage_error), \
        (code, err)
    out = Path(argv[argv.index("--out") + 1])
    if code == 0:
        assert json.loads((out / "manifest.json").read_text())["command"] == argv[0]
    else:
        assert not out.exists()
    return code


@settings(max_examples=250, deadline=None, derandomize=True)
@given(mutation=_MUTATION)
def test_ingest_of_a_mutated_ledger_keeps_the_exit_code_contract(tmp_path_factory, mutation):
    # Chunks of four lines put most mutants past the reader's first chunk.
    work = tmp_path_factory.mktemp("fuzz")
    ledger = work / "ledger.csv"
    ledger.write_bytes(_mutated_ledger(mutation))
    with mock.patch.object(ingest, "_CHUNK_ROWS", 4):
        _run_under_contract("ingest", ledger, "--delta", "30", "--out", work / "out")


# -- analyze and fit against the exit-code contract, on mutated inputs ------

@pytest.fixture(scope="module")
def hand_run(tmp_path_factory):
    """The hand ledger after ingest and a rank-1 fit: ``ledger.csv``,
    ``ingest/`` and ``fit/`` in one directory, made once for the module."""
    work = tmp_path_factory.mktemp("hand")
    _hand_pipeline(work)
    return work


_JSON_VALUE = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2, 10**30, 1e308, -1e308, 5e-324, "",
                     "x", "DE001", "2008-09-15", "08:00", "ab" * 32, [], {}, [0.0], [[1.0]]]),
    st.floats(), st.integers(), st.text(max_size=6),
)
# (kind, which value of the document, the new value)
_JSON_MUTATION = st.tuples(st.sampled_from(["replace", "delete", "duplicate"]),
                           st.integers(0, 10**6), _JSON_VALUE)


def _json_paths(doc, path=()):
    """The path (keys and list positions) of every value inside ``doc``."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield (*path, key)
            yield from _json_paths(value, (*path, key))


def _mutated_json(text: str, mutation) -> str:
    """The JSON document ``text`` with one value replaced, deleted or
    duplicated (in a list, a second copy; in an object, a list of two)."""
    kind, pick, new = mutation
    doc = json.loads(text)
    paths = list(_json_paths(doc))
    *parent_path, key = paths[pick % len(paths)]
    parent = doc
    for step in parent_path:
        parent = parent[step]
    if kind == "replace":
        parent[key] = new
    elif kind == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key] = [parent[key]] * 2
    return json.dumps(doc)


@pytest.mark.parametrize("name", ["fit/fit.json", "ingest/index.json",
                                  "ingest/bank_facts.json"])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(mutation=_JSON_MUTATION)
def test_analyze_of_a_mutated_input_keeps_the_exit_code_contract(hand_run, tmp_path_factory,
                                                                  name, mutation):
    # The bank facts are read beside the index, so both directories are copied.
    work = tmp_path_factory.mktemp("fuzz")
    for rel in ("fit/fit.json", "ingest/index.json", "ingest/bank_facts.json"):
        (work / rel).parent.mkdir(exist_ok=True)
        text = (hand_run / rel).read_text()
        (work / rel).write_text(_mutated_json(text, mutation) if rel == name else text)
    _run_under_contract("analyze", work / "fit/fit.json", "--index", work / "ingest/index.json",
                        "--ledger", hand_run / "ledger.csv", "--out", work / "out",
                        usage_error="error: index describes")


# (kind, byte position, bytes written there)
_BYTES_MUTATION = st.tuples(st.sampled_from(["cut", "overwrite", "insert"]),
                            st.integers(0, 10**6), st.binary(min_size=1, max_size=8))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mutation=_BYTES_MUTATION)
def test_fit_of_a_mutated_tensor_keeps_the_exit_code_contract(hand_run, tmp_path_factory,
                                                               mutation):
    kind, pick, data = mutation
    raw = (hand_run / "ingest/tensor.bin").read_bytes()
    at = pick % (len(raw) + 1)
    if kind == "cut":
        raw = raw[:at]
    elif kind == "overwrite":
        raw = raw[:at] + data + raw[at + len(data):]
    else:
        raw = raw[:at] + data + raw[at:]
    work = tmp_path_factory.mktemp("fuzz")
    (work / "tensor.bin").write_bytes(raw)
    _run_under_contract("fit", work / "tensor.bin", "--rank", 1, "--restarts", 2, "--seed", 1,
                        "--out", work / "out")
