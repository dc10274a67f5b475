"""No assert statements and no AssertionError raises in the package:
python -O strips asserts, so every check must be an explicit raise."""

import ast
import pathlib

import quadfactor

SRC = pathlib.Path(quadfactor.__file__).parent


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_detector_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('y')\n"
                     "raise AssertionError\nraise ValueError()\n")
    assert list(_offences(tree)) == [
        (1, "assert"), (2, "raise AssertionError"),
        (3, "raise AssertionError")]


def test_package_has_no_asserts():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}: {what}" for path in files
             for line, what in _offences(ast.parse(path.read_text()))]
    assert found == []
