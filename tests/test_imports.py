"""No module of the package imports a private name of another.

A name with a leading underscore belongs to the module that defines it.  A
module that imports one from another module of the package is reaching past
that module's public entry points, so the scan parses every module under
``src/`` and lists each private name that an import from the package brings in
(relative, or by the package's name).  Dunder names such as ``__version__``
are public.
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
