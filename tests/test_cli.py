import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tempofact import io as tfio
from tempofact.cli import main
from tempofact.tensor import KruskalTensor, reconstruct

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
    index = tfio.read_index(tmp_path / "index.json")
    assert len(index.bank_ids) == 9
    assert index.delta == 60


def test_synth_rejects_zero_days(tmp_path):
    assert _run("synth", "--days", 0, "--out", tmp_path) == 1


def test_synth_rejects_bad_group_sizes(tmp_path):
    assert _run("synth", "--banks", 10, "--group-sizes", "3,3,3", "--out", tmp_path) == 1


def test_ingest_sample_ledger(tmp_path):
    code = _run("ingest", SAMPLE_LEDGER, "--delta", 15, "--out", tmp_path)
    assert code == 0
    tensor = tfio.read_tensor(tmp_path / "tensor.bin")
    # documented sample totals: 18 overnight rows summing to 217.0 mEUR
    assert tensor.values.sum() == 434.0
    report = json.loads((tmp_path / "ingest_report.json").read_text())
    assert report["rows_parsed"] == 20
    assert report["overnight_kept"] == 18
    assert report["banks"] == 6
    assert report["days"] == 3
    index = tfio.read_index(tmp_path / "index.json")
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
    assert tfio.read_tensor(tmp_path / "out/tensor.bin").values.sum() == 15.0


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
    fit = tfio.fit_result_from_dict(tfio.load_json(tmp_path / "fit/fit.json"))
    assert fit.rel_error < 1e-8
    restarts = json.loads((tmp_path / "fit/restarts.json").read_text())
    assert len(restarts) == 3
    assert {r["seed"] for r in restarts} == {2, 3, 4}


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


def test_corcondia_rejects_rmax_zero(tmp_path):
    tensor_path = tmp_path / "t.bin"
    _write_rank_one_tensor(tensor_path)
    assert _run("corcondia", tensor_path, "--rmax", 0, "--out", tmp_path / "o") == 1


def test_usage_error_exit_code():
    assert main(["fit"]) == 1          # missing required arguments
    assert main(["synth", "--days", "not-a-number", "--out", "x"]) == 1


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


def _loaded_scipy_modules(code):
    """The scipy modules in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code += "\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_does_not_load_scipy_stats():
    loaded = _loaded_scipy_modules("import sys, tempofact.cli")
    assert "scipy.stats" not in loaded
    assert "scipy.linalg" not in loaded


def test_nnls_module_loads_no_scipy():
    # The module file alone: importing it as tempofact.nnls first runs the
    # package __init__, which reaches scipy.special through corcondia.
    nnls_py = Path(__file__).resolve().parent.parent / "src" / "tempofact" / "nnls.py"
    code = ("import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('nnls', {str(nnls_py)!r})\n"
            "module = sys.modules['nnls'] = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "assert module.solve_nnls")
    assert _loaded_scipy_modules(code) == set()


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
    assert "delta_minutes must be an integer, got str" in err
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
