"""Every name the benchmark's tracer patches must exist where it looks.

``bench/layers.py`` wraps functions under the module-global names their
callers look them up by; a refactor that renames or drops one of those
names would otherwise only show up in a traced benchmark run.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tempofact import als, cli, io as tfio, nnls
from tempofact.corcondia import DegenerateFactorError, rank_scan, tucker_core
from tempofact.ingest import load_transactions, save_transactions
from tempofact.synthetic import SyntheticConfig, generate_with_log, log_to_records, market_index
from tempofact.tensor import DenseTensor3, KruskalTensor

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    return importlib.import_module("layers")


def test_every_traced_layer_resolves(monkeypatch):
    layers = _layers(monkeypatch)
    assert layers.LAYERS
    for module_name, attr, _, _ in layers.LAYERS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_fit_once_goes_through_every_traced_als_layer(monkeypatch):
    # A sweep that stopped looking a traced name up (say, an inlined
    # Khatri-Rao product) would leave its layer reading 0 calls.
    layers = _layers(monkeypatch)
    calls = {}
    for module_name, attr, _, _ in layers.LAYERS:
        if module_name != "tempofact.als":
            continue
        real = getattr(als, attr)

        def counted(*args, _real=real, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)

        calls[attr] = 0
        monkeypatch.setattr(als, attr, counted)
    assert set(calls) == {"fit_once", "khatri_rao", "solve_nnls"}
    x = DenseTensor3(np.random.default_rng(6).random((6, 4, 8)))
    als.fit_once(x, als.FitConfig(rank=2, max_sweeps=3), seed=0)
    assert all(calls.values()), calls


def test_each_restart_is_one_fit_once_call(monkeypatch):
    # A traced benchmark pass counts one ``als.fit_once`` span per restart
    # and checks that count against the restarts in the command's outputs;
    # on a mismatch it drops every worker-side metric (``als.sweeps``,
    # ``nnls.*``, ``tensor.*``, ``sweeps_per_s``).  A restart loop that fits
    # several restarts per call, or none, would lose them all.
    calls = []
    real = als.fit_once

    def counted(x, cfg, seed):
        calls.append((cfg.rank, seed))
        return real(x, cfg, seed)

    monkeypatch.setattr(als, "fit_once", counted)
    x = DenseTensor3(np.random.default_rng(7).random((6, 4, 8)))
    cfg = als.FitConfig(rank=2, max_sweeps=4, restarts=3, seed=10)
    als.fit_restarts(x, cfg, jobs=1)
    assert calls == [(2, 10), (2, 11), (2, 12)]
    # Pool threads look the name up too: one call per restart, in any order.
    calls.clear()
    als.fit_restarts(x, cfg, jobs=2)
    assert sorted(calls) == [(2, 10), (2, 11), (2, 12)]
    for jobs in (1, 2):
        calls.clear()
        rank_scan(x, r_max=2, l_cc=85.0, cfg=cfg, jobs=jobs)
        assert sorted(calls) == [(r, s) for r in (1, 2) for s in (10, 11, 12)]


def test_ledger_counters_read_real_results(tmp_path, monkeypatch):
    # The counters run on what the wrapped calls return; a result type they
    # cannot size would only fail inside a traced benchmark pass.
    layers = _layers(monkeypatch)
    cfg = SyntheticConfig(n_banks=9, intervals=10, days=6, seed=4)
    _, _, log = generate_with_log(cfg)
    index = market_index(cfg)
    ledger = log_to_records(log, index)
    assert layers._count_trades((log, index), {}, ledger, None) == {"trades": len(log)}

    path = tmp_path / "ledger.csv"
    save_transactions(path, ledger)
    size = path.stat().st_size
    assert layers._count_write((path, ledger), {}, None, None) == {"bytes_written": size}

    loaded = load_transactions(path)
    assert len(loaded.records) == len(log) > 0
    assert layers._count_load((path,), {}, loaded, None) == {"bytes_read": size,
                                                              "rows": len(log)}


def test_fit_counters_read_real_results(tmp_path, monkeypatch):
    # As for the ledger: a solver, fit or reader whose result the counters
    # cannot read would only show as zero ``nnls.rounds``, ``als.sweeps`` or
    # ``io.bytes_read`` in a traced benchmark pass.
    layers = _layers(monkeypatch)
    rng = np.random.default_rng(8)
    h = rng.standard_normal((6, 4))
    args = (h.T @ h, h.T @ rng.standard_normal((6, 9)))
    sol = als.solve_nnls(*args)
    assert sol.converged and sol.iterations > 0
    assert layers._count_nnls(args, {}, sol, None) == {"rounds": sol.iterations,
                                                       "unconverged": 0}
    with monkeypatch.context() as patch:
        patch.setattr(nnls, "_ROUNDS_PER_VARIABLE", 0)
        stalled = als.solve_nnls(*args)
    assert layers._count_nnls(args, {}, stalled, None) == {"rounds": 0, "unconverged": 1}

    x = DenseTensor3(rng.random((6, 4, 8)))
    cfg = als.FitConfig(rank=2, max_sweeps=5)
    fit = als.fit_once(x, cfg, seed=0)
    assert layers._count_fit((x, cfg, 0), {}, fit, None) == {"sweeps": fit.sweeps_used,
                                                             "failed": 0}
    err = als.FitError("sweep 7: NNLS update stalled (kkt residual 1e-3 after 20 "
                       "exchange rounds)")
    assert layers._count_fit((x, cfg, 0), {}, None, err) == {"sweeps": 7, "failed": 1}

    degenerate = KruskalTensor(np.ones((6, 2)), rng.random((4, 2)), rng.random((8, 2)))
    with pytest.raises(DegenerateFactorError) as caught:
        tucker_core(x, degenerate)
    assert layers._count_core((x, degenerate), {}, None, caught.value) == {"degenerate": 1}
    core = tucker_core(x, fit.factors)
    assert layers._count_core((x, fit.factors), {}, core, None) == {"degenerate": 0}

    path = tmp_path / "t.bin"
    tfio.write_tensor(path, x)
    result = tfio.read_tensor(path)
    assert result[0].values.shape == (6, 4, 8)
    assert layers._count_read((path,), {}, result, None) == {"bytes_read":
                                                             path.stat().st_size}


def test_cli_writes_through_the_traced_io_names(tmp_path, monkeypatch):
    # The tracer's io.* spans (and with them io.bytes_written and each
    # cli.<command>.self_s) see a write only if the command looks the writer
    # up on its module at call time.  Each output is one call of its kind,
    # and the manifest one more dump_json.
    layers = _layers(monkeypatch)
    traced = {(module, attr) for module, attr, _, _ in layers.LAYERS}
    writers = {"dump_json": tfio, "write_tensor": tfio, "write_csv": tfio,
               "save_transactions": cli}
    calls = dict.fromkeys(writers, 0)
    for attr, module in writers.items():
        def counted(*args, _real=getattr(module, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    kinds = {".json": "dump_json", ".bin": "write_tensor", ".csv": "write_csv"}

    synth, ingest, fit = tmp_path / "synth", tmp_path / "ingest", tmp_path / "fit"
    steps = [
        ["synth", "--banks", 12, "--intervals", 5, "--days", 20, "--seed", 3, "--ledger",
         "--out", synth],
        ["ingest", synth / "ledger.csv", "--delta", 120, "--out", ingest],
        ["fit", ingest / "tensor.bin", "--rank", 2, "--restarts", 2, "--out", fit],
        ["analyze", fit / "fit.json", "--index", ingest / "index.json",
         "--ledger", synth / "ledger.csv", "--out", tmp_path / "analyze"],
    ]
    for argv in steps:
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main([str(a) for a in argv]) == 0
        out = Path(argv[-1])
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        expected = dict.fromkeys(writers, 0)
        expected["dump_json"] = 1
        for name in outputs:
            kind = "save_transactions" if name == "ledger.csv" else kinds[Path(name).suffix]
            expected[kind] += 1
        assert calls == expected, argv[0]
    assert {("tempofact.io", "dump_json"), ("tempofact.io", "write_tensor"),
            ("tempofact.cli", "save_transactions")} <= traced
