"""Every name the benchmark's tracer patches must exist where it looks.

``bench/layers.py`` wraps functions under the module-global names their
callers look them up by; a refactor that renames or drops one of those
names would otherwise only show up in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    layers = importlib.import_module("layers")
    assert layers.LAYERS
    for module_name, attr, _, _ in layers.LAYERS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
