"""Every command publishes its outputs whole.

The manifest lists exactly the files the command wrote, and a failure
while writing or moving them leaves no new ``--out``, no stage directory
beside or inside it, and no manifest that lists a file the directory lacks.
"""

import errno
import hashlib
import json
import os
from pathlib import Path

import pytest

from tempofact import cli, io as tfio
from tempofact.cli import main


def _run(*argv):
    return main([str(a) for a in argv])


# Each command's arguments without --out, for variant 0 and for variant 1,
# whose outputs differ from variant 0's.
COMMANDS = {
    "synth": lambda root, v: ["synth", "--banks", 12, "--intervals", 5, "--days", 30,
                              "--seed", 3 + v, "--ledger"],
    "ingest": lambda root, v: ["ingest", root / "synth/ledger.csv", "--delta", 120 // (1 + v)],
    "fit": lambda root, v: ["fit", root / "ingest/tensor.bin", "--rank", 2 - v,
                            "--restarts", 2, "--seed", 1],
    "corcondia": lambda root, v: ["corcondia", root / "ingest/tensor.bin", "--rmax", 2 - v,
                                  "--restarts", 2, "--seed", 1],
    "analyze": lambda root, v: ["analyze", root / f"fit{v}/fit.json",
                                "--index", root / "ingest/index.json",
                                "--ledger", root / "synth/ledger.csv"],
}

_ANALYSIS = {"intraday_profiles.csv", "interday_activity.csv", "component_shares.csv",
             "affiliation_sizes.csv", "jaccard.csv", "membership_means.csv", "analysis.json"}
_SYNTH = {"tensor.bin", "ground_truth.json"}

# (arguments without --out given the input directory, the outputs the
# manifest must list)
CASES = {
    "synth": (lambda root: COMMANDS["synth"](root, 0), _SYNTH | {"index.json", "ledger.csv"}),
    "synth-no-ledger": (lambda root: COMMANDS["synth"](root, 0)[:-1], _SYNTH | {"index.json"}),
    "synth-no-index": (lambda root: ["synth", "--banks", 8, "--intervals", 7, "--days", 5],
                       _SYNTH),
    "ingest": (lambda root: COMMANDS["ingest"](root, 0),
               {"tensor.bin", "index.json", "bank_facts.json", "ingest_report.json"}),
    "fit": (lambda root: COMMANDS["fit"](root, 0), {"fit.json", "restarts.json"}),
    "corcondia": (lambda root: COMMANDS["corcondia"](root, 0),
                  {"rank_scan.json", "rank_scan.csv"}),
    "analyze": (lambda root: COMMANDS["analyze"](root, 0),
                _ANALYSIS | {"role_frequencies.csv", "nationality.csv"}),
    "analyze-no-ledger": (lambda root: COMMANDS["analyze"](root, 0)[:-2], _ANALYSIS),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    assert _run(*COMMANDS["synth"](root, 0), "--out", root / "synth") == 0
    assert _run(*COMMANDS["ingest"](root, 0), "--out", root / "ingest") == 0
    for v in (0, 1):
        assert _run(*COMMANDS["fit"](root, v), "--out", root / f"fit{v}") == 0
    return root


def _files(directory) -> dict:
    """Name to bytes of each entry of ``directory``; None for a subdirectory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_manifest_lists_exactly_what_was_written(inputs, tmp_path, case):
    out = tmp_path / "new" / "out"
    argv, outputs = CASES[case]
    assert _run(*argv(inputs), "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == written == outputs
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert list(out.parent.iterdir()) == [out]  # no stage left beside it


def _fail_second_write(monkeypatch):
    """Make the second output write of a command raise ENOSPC."""
    calls = []

    def patch(module, name):
        real = getattr(module, name)

        def write(path, *args):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return real(path, *args)

        monkeypatch.setattr(module, name, write)

    for name in ("dump_json", "write_tensor", "write_csv"):
        patch(tfio, name)
    patch(cli, "save_transactions")
    return calls


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_failed_write_leaves_no_new_out(inputs, tmp_path, monkeypatch, capsys, command):
    (tmp_path / "unrelated.txt").write_text("kept\n")
    before = _files(tmp_path)
    calls = _fail_second_write(monkeypatch)
    capsys.readouterr()
    assert _run(*COMMANDS[command](inputs, 0), "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "No space left on device" in err
    assert len(calls) == 2
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_failed_write_leaves_an_existing_out_unchanged(inputs, tmp_path, monkeypatch, command):
    out = tmp_path / "out"
    assert _run(*COMMANDS[command](inputs, 1), "--out", out) == 0
    before = _files(out)
    _fail_second_write(monkeypatch)
    assert _run(*COMMANDS[command](inputs, 0), "--out", out) == 2
    assert _files(out) == before
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_failed_move_into_an_existing_out_leaves_no_manifest(inputs, tmp_path, monkeypatch,
                                                             command):
    out = tmp_path / "out"
    assert _run(*COMMANDS[command](inputs, 1), "--out", out) == 0
    real_replace = os.replace
    moved = []

    def replace(src, dst):
        moved.append(dst)
        if len(moved) == 2:
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(dst))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert _run(*COMMANDS[command](inputs, 0), "--out", out) == 2
    assert len(moved) == 2
    assert not (out / "manifest.json").exists()
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]  # no stage inside
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_out_naming_a_file_exits_io_and_keeps_the_file(inputs, tmp_path, command):
    out = tmp_path / "out"
    out.write_bytes(b"not a directory\n")
    assert _run(*COMMANDS[command](inputs, 0), "--out", out) == 2
    assert out.read_bytes() == b"not a directory\n"
    assert list(tmp_path.iterdir()) == [out]


def test_out_name_of_250_characters_is_published(tmp_path):
    # The stage beside --out must fit the file system's name limit too.
    out = tmp_path / ("o" * 250)
    assert _run("synth", "--banks", 6, "--intervals", 5, "--days", 4, "--out", out) == 0
    assert (out / "manifest.json").exists()
    assert list(tmp_path.iterdir()) == [out]


def test_existing_out_is_staged_inside_itself(tmp_path, monkeypatch):
    # Staged inside an existing --out, the moves stay on its file system (a
    # mount point, or a symlink to another one) and need no write access to
    # its parent, which is read-only here (root ignores the mode; the
    # recorded moves still show where the stage was).
    out = tmp_path / "parent" / "out"
    argv = ["synth", "--banks", 6, "--intervals", 5, "--days", 4, "--out", out]
    assert _run(*argv) == 0
    real_replace = os.replace
    sources = []

    def replace(src, dst):
        sources.append(Path(src))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    out.parent.chmod(0o555)
    try:
        assert _run(*argv, "--seed", 4) == 0
    finally:
        out.parent.chmod(0o755)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert {p.name for p in out.iterdir()} == {*manifest["outputs"], "manifest.json"}
    assert len(sources) == len(manifest["outputs"]) + 1
    assert all(src.parent.parent == out for src in sources)
    assert list(out.parent.iterdir()) == [out]
