"""Every function and class the package defines is used by the package.

Deleting a caller tends to leave its callee behind; this walk finds it.
A definition counts as used when its name appears as a name or an
attribute anywhere in the package, or when quadfactor.__all__ exports
it.  Dunders are exempt: the interpreter calls them."""

import ast
import pathlib

import quadfactor

SRC = pathlib.Path(quadfactor.__file__).parent


def _unreferenced(trees, exported=()):
    defined, used = [], set(exported)
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((name, line, d) for name, line, d in defined
                  if d not in used
                  and not (d.startswith("__") and d.endswith("__")))


def test_detector_sees_planted_case():
    tree = ast.parse("class A:\n"
                     "    def __init__(self):\n        self.f()\n"
                     "    def f(self):\n        return g\n"
                     "    def h(self):\n        pass\n"
                     "def g():\n    pass\n"
                     "def exported():\n    pass\n"
                     "def unused():\n    pass\n")
    assert _unreferenced([("m.py", tree)], ("A", "exported")) == [
        ("m.py", 6, "h"), ("m.py", 12, "unused")]


def test_package_defines_nothing_unused():
    trees = [(p.name, ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))]
    assert len(trees) > 10
    assert _unreferenced(trees, quadfactor.__all__) == []
