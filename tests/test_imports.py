"""No module of the package imports or reads a private name of another.

A name with a leading underscore belongs to the module that defines it.  A
module that imports one from another module of the package is reaching past
that module's public entry points, so the scan parses every module under
``src/`` and lists each private name that an import from the package brings in
(relative, or by the package's name).  A second scan lists each read of a
private attribute, ``x._name``, whose name the reading module does not bind
itself; reads on ``self`` and ``cls`` are exempt.  Dunder names such as
``__version__`` are public.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "mobiusflat"


def private_imports(sources: dict[str, str]) -> list[str]:
    """"module: from source import name" for each private name that a module imports
    from the package; sources maps a module name to its source."""
    out = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom):
                continue
            origin = "." * node.level + (node.module or "")
            if node.level == 0 and origin.split(".")[0] != PACKAGE:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    out.append(f"{module}: from {origin} import {alias.name}")
    return sorted(out)


def test_no_module_imports_a_private_name_of_another():
    sources = {
        path.name: path.read_text() for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    }
    assert private_imports(sources) == []


def test_the_scan_finds_a_private_import():
    sources = {
        "cli.py": "from . import __version__\nfrom .moebius import _jets, fields_from_immersion\n",
        "checks.py": "from mobiusflat.moebius import _direct\nfrom numpy.linalg import _umath_linalg\n",
        "zoo.py": "import mobiusflat.moebius\nfrom .jets import Jet\n",
    }
    assert private_imports(sources) == [
        "checks.py: from mobiusflat.moebius import _direct",
        "cli.py: from .moebius import _jets",
    ]


def _defined_names(tree) -> set[str]:
    """Every name the module binds: its defs and classes, and the targets of its
    assignments, attribute targets (self._x = ...) included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            out.add(node.id if isinstance(node, ast.Name) else node.attr)
    return out


def private_attribute_reads(sources: dict[str, str]) -> list[str]:
    """"module: x._name" for each read of a private attribute that the reading module
    does not define; reads on self and cls are the module's own."""
    out = []
    for module, source in sources.items():
        tree = ast.parse(source)
        own = _defined_names(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.attr
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            if name not in own:
                out.append(f"{module}: {ast.unparse(node)}")
    return sorted(out)


def test_no_module_reads_a_private_attribute_of_another():
    sources = {
        path.name: path.read_text() for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    }
    assert private_attribute_reads(sources) == []


def test_the_scan_finds_a_private_attribute_read():
    sources = {
        "zoo.py": "def f(traj):\n    return traj._read(0) + traj.read(1)\n",
        "spiral.py": (
            "class T:\n"
            "    def __init__(self):\n"
            "        self._samples = []\n"
            "    def _read(self):\n"
            "        return self._samples, self.__class__\n"
            "def g(t, other):\n"
            "    return t._read(), other._samples, t._missing\n"
        ),
    }
    assert private_attribute_reads(sources) == [
        "spiral.py: t._missing",
        "zoo.py: traj._read",
    ]
