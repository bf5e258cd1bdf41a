"""Static checks on the package source, in place of a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tempofact"


def _unused_imports(tree: ast.Module) -> list:
    """Names a module-level import binds that nothing in the module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _private_imports(tree: ast.Module) -> list:
    """Underscore names (dunders aside) a module imports from a tempofact module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "tempofact"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\n"
                     "x = np.zeros(path.sep)\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "sep")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_imports(tree) == []


def test_private_import_is_found():
    tree = ast.parse("from tempofact import __version__, io as tfio\n"
                     "from tempofact.ingest import TensorIndex, _json_list\n"
                     "from ._util import _helper, public\n"
                     "from os import _exit\n"
                     "def f():\n    from tempofact.io import _field\n")
    assert _private_imports(tree) == [(2, "_json_list"), (3, "_helper"), (6, "_field")]


def _window_literals(tree: ast.Module) -> list:
    """The integer literals 600 and 3600 (the trading window in minutes, an
    hour in seconds) in a module: ``ingest`` owns the window."""
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is int
                  and node.value in (600, 3600))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "ingest.py"],
                         ids=lambda p: p.name)
def test_window_literals_only_in_ingest(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _window_literals(tree) == []


def test_window_literal_is_found():
    tree = ast.parse("if 600 % n:\n    s = 8 * 3600 + 600.0\nlabel = '600'\nflag = 3600 > True\n")
    assert _window_literals(tree) == [(1, 600), (2, 3600), (4, 3600)]


def _object_fills(tree: ast.Module) -> list:
    """Lines that call ``full`` with an object dtype.  ``np.full`` converts
    its fill to an array first, so an object array of a string fill holds a
    new string per entry, not one shared object."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "full":
            dtypes = node.args[2:3] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(isinstance(d, ast.Name) and d.id == "object"
                   or isinstance(d, ast.Constant) and d.value in ("O", "object")
                   for d in dtypes):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_object_arrays_filled_by_np_full(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _object_fills(tree) == []


def test_object_fill_is_found():
    tree = ast.parse("a = np.full(n, 'lender', dtype=object)\nb = np.full(n, 0.5)\n"
                     "c = numpy.full(n, 'ON', object)\nd = np.full(n, 3, dtype=int)\n"
                     "e = full((2, 3), 'x', dtype='O')\nf = np.full_like(a, 'x')\n"
                     "g = np.repeat(np.array(['ON'], dtype=object), n)\n")
    assert _object_fills(tree) == [1, 3, 5]


def _tensor_reads(tree: ast.Module) -> list:
    """Lines outside ``fit_once`` that name ``matmul`` or the tensor's array
    (``.values``, or a name or parameter ``values``): in ``als`` only the
    driver makes tensor passes, and a restart gets each product from it."""
    driver = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == "fit_once"
              for node in ast.walk(top)}
    names = {ast.Attribute: "attr", ast.Name: "id", ast.arg: "arg", ast.alias: "name"}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in driver
                  and getattr(node, names.get(type(node), ""), None) in ("matmul", "values"))


def test_only_fit_once_reads_the_tensor_in_als():
    tree = ast.parse((SRC / "als.py").read_text(encoding="utf-8"))
    assert _tensor_reads(tree) == []


def test_tensor_read_outside_fit_once_is_found():
    tree = ast.parse("def fit_once(x):\n    values = x.values\n    return np.matmul(values, c)\n"
                     "def _restart(dims, values):\n    y = yield c\n    z = np.matmul(y, c)\n"
                     "    w = np.einsum('ijk,kr->ijr', values, c)\n"
                     "def helper(x, c):\n    return x.values @ c\n"
                     "from numpy import matmul\n")
    assert _tensor_reads(tree) == [4, 6, 7, 9, 10]
