"""What importing the package loads.  No timing asserts: module sets only.

A short CLI call is mostly interpreter start-up and imports.  So the
package keeps `dataclasses` (which pulls in `inspect`, `ast`, `dis` and
`tokenize`) and `argparse` (which pulls in `gettext`) out of its import
graph, and the package root imports a layer only when one of that
layer's public names is first used.
`quadfactor.cli` still imports every layer at module level: the batch
benchmark's tracer expects them all in sys.modules after importing it."""

import ast
import os
import pathlib
import subprocess
import sys

import quadfactor

SRC = pathlib.Path(quadfactor.__file__).parent
LAYERS = ("errors", "qint", "zpoly", "kpoly", "factor", "rpoly", "parse",
          "ideals", "extring", "suite", "cli")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_detector_sees_both_import_forms():
    tree = ast.parse("import dataclasses as dc\n"
                     "from dataclasses import field\n"
                     "from .dataclasses import x\n")
    assert list(_imported_modules(tree)) == ["dataclasses", "dataclasses"]


def _modules_importing(name: str) -> list[str]:
    files = sorted(SRC.glob("*.py"))
    assert files
    return [path.name for path in files
            if name in _imported_modules(ast.parse(path.read_text()))]


def test_package_does_not_import_dataclasses():
    assert _modules_importing("dataclasses") == []


def test_package_does_not_import_argparse():
    assert _modules_importing("argparse") == []


def _modules_loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter loads while running code, with this
    checkout's package first on the path."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code + "\n"
             "assert quadfactor.__file__ == %r\n"
             "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
             % quadfactor.__file__)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_every_layer_but_not_dataclasses():
    loaded = _modules_loaded_by("import quadfactor.cli")
    assert {f"quadfactor.{m}" for m in LAYERS} <= loaded
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext"}


# code run after `import quadfactor` -> the package modules it may load:
# scalar arithmetic stays in the lowest layer, ideals need no
# polynomial layer, and the parser needs K[x] but no R[x] search
ROOT_USES = (
    ("quadfactor.ring(-5)", ("errors", "qint")),
    ("quadfactor.ring(-5).el(1) * quadfactor.ring(-5).el(0, 1)",
     ("errors", "qint")),
    ("quadfactor.ideal_from_gens([quadfactor.ring(-5).el(2)])",
     ("errors", "qint", "ideals")),
    ("import quadfactor.parse", ("errors", "qint", "zpoly", "kpoly", "parse")),
)


def test_package_root_loads_only_what_is_used():
    for code, layers in ROOT_USES:
        loaded = _modules_loaded_by("import quadfactor\n" + code)
        ours = {m for m in loaded if m.split(".")[0] == "quadfactor"}
        assert ours == {"quadfactor"} | {f"quadfactor.{m}"
                                         for m in layers}, code
