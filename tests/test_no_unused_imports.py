"""Every name a package module imports is used in that module.

Deleting code tends to leave its imports behind; this walk finds them.
__init__.py is exempt: its imports are the re-exported public surface."""

import ast
import pathlib

import quadfactor

SRC = pathlib.Path(quadfactor.__file__).parent


def _unused(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_detector_sees_planted_case():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nimport os.path\n"
                     "from fractions import Fraction as F, gcd\n"
                     "def f(x: F):\n    return os.sep, gcd\n")
    assert _unused(tree) == [(2, "math")]


def test_package_has_no_unused_imports():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    found = [f"{path.name}:{line}: {name}" for path in files
             for line, name in _unused(ast.parse(path.read_text()))]
    assert found == []
