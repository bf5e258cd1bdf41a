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
    """Lines that read an attribute ``values``, as in ``x.values``: only
    ``tensor`` and ``io`` read a tensor's array.  A call ``d.values()``, as
    on a dict, is not a read."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and node.attr == "values" and id(node) not in called)


def _named(tree: ast.Module, *words) -> list:
    """Lines that name one of ``words`` (an attribute, a name, a parameter or
    an import): ``als`` names neither ``matmul`` nor ``values``, since every
    tensor pass is a request that ``DenseTensor3`` answers."""
    names = {ast.Attribute: "attr", ast.Name: "id", ast.arg: "arg", ast.alias: "name"}
    return sorted(node.lineno for node in ast.walk(tree)
                  if getattr(node, names.get(type(node), ""), None) in words)


def test_only_fit_once_reads_the_tensor_in_als():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name not in ("tensor.py", "io.py"):
            assert _tensor_reads(tree) == [], path.name
        if path.name == "als.py":
            assert _named(tree, "matmul", "values") == []


def test_tensor_read_outside_fit_once_is_found():
    tree = ast.parse("def fit_once(x):\n    return np.matmul(x.values, c)\n"
                     "total = tensor.values.sum()\n"
                     "names = list(d.values())\n"
                     "for v in bank.values(): pass\n"
                     "values = other.values\n"
                     "from numpy import matmul\n"
                     "def _restart(dims, values):\n    y = yield c\n")
    assert _tensor_reads(tree) == [2, 3, 6]
    assert _named(tree, "matmul", "values") == [2, 2, 3, 4, 5, 6, 6, 7, 8]


def _file_reads(tree: ast.Module) -> list:
    """``(line, function)`` of each call named ``open``, ``read_bytes`` or
    ``read_text``, with the innermost function around it ("" at module level):
    only ``io``, ``ingest`` and ``cli._sha256`` read files, so that an input's
    digest comes from the read that parses it."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("open", "read_bytes", "read_text"):
                    found.append((child.lineno, function))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, "")
    return found


def test_only_io_ingest_and_cli_sha256_read_files():
    for path in sorted(SRC.glob("*.py")):
        if path.name not in ("io.py", "ingest.py"):
            functions = {f for _, f in _file_reads(ast.parse(path.read_text(encoding="utf-8")))}
            assert functions == ({"_sha256"} if path.name == "cli.py" else set()), path.name


def test_file_read_is_found():
    tree = ast.parse("def _sha256(p):\n    with open(p, 'rb') as h:\n        return h.read()\n"
                     "doc = Path(p).read_text()\n"
                     "class A:\n    def load(self):\n        return self.path.read_bytes()\n"
                     "def outer():\n    def inner():\n        return io.open(p)\n    return inner\n"
                     "names = list(d.values())\nopened = handle.opened\n")
    assert _file_reads(tree) == [(2, "_sha256"), (4, ""), (7, "load"), (10, "inner")]
