"""No runtime dependencies: every import in the package is relative or
names a module of the standard library."""

import ast
import pathlib
import sys

import quadfactor

SRC = pathlib.Path(quadfactor.__file__).parent


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


def test_detector_sees_planted_case():
    tree = ast.parse("import math\nimport numpy.linalg\n"
                     "from os import path\nfrom sympy import factor\n"
                     "from . import qint\nfrom .kpoly import KPoly\n"
                     "import json, requests\n")
    assert list(_offences(tree)) == [
        (2, "numpy.linalg"), (4, "sympy"), (7, "requests")]


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}: {name}" for path in files
             for line, name in _offences(ast.parse(path.read_text()))]
    assert found == []
