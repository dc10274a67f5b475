"""What importing the package, and running one CLI command, loads.  No
timing asserts: module sets only.

A short CLI call is mostly interpreter start-up and imports.  So the
package keeps `dataclasses` (which pulls in `inspect`, `ast`, `dis` and
`tokenize`) and `argparse` (which pulls in `gettext`) out of its import
graph, and the package root imports a layer only when one of that
layer's public names is first used.  `python -m quadfactor` and the
installed script enter through `quadfactor.commands`, whose handlers
import the layers they run when called, and the parser loads K[x] only
for an input with an x, Zassenhaus only where a factor over Q of degree
above 2 is split, and `fractions` only where a rational is built; the
witness search (`quadfactor.witness`) decides every candidate with its
integer screens and loads K[x] only to build the first survivor, which
is the witness.  So a call loads only what its command runs.
`quadfactor.cli`, the in-process entry, still imports every module of
the package at module level: a batch caller and its tracer expect them
all in sys.modules after importing it."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import quadfactor

SRC = pathlib.Path(quadfactor.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def _env() -> dict:
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    return env


def _modules_loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter loads while running code."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code + "\n"
             "assert quadfactor.__file__ == %r\n"
             "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
             % quadfactor.__file__)
    proc = subprocess.run([sys.executable, "-c", probe], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_every_layer_but_not_dataclasses():
    # every module of the package, read off its files: one left out of
    # cli's imports would first be compiled inside a caller's first
    # timed command.  cli names each itself, so the list does not rest
    # on what another layer happens to import
    layers = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert len(layers) > 10
    listed = {alias.name
              for node in ast.parse((SRC / "cli.py").read_text()).body
              if isinstance(node, ast.ImportFrom) and node.level == 1
              and node.module is None for alias in node.names}
    assert listed == layers - {"cli"}
    loaded = _modules_loaded_by("import quadfactor.cli")
    assert {f"quadfactor.{m}" for m in layers} <= loaded
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext"}


# code run after `import quadfactor` -> the package modules it may load:
# scalar arithmetic stays in the lowest layer, ideals need no
# polynomial layer, the parser loads K[x] only for an input with an
# x, and no R[x] search, and a witness search that no quadratic survives
# loads no polynomial layer
ROOT_USES = (
    ("quadfactor.ring(-5)", ("errors", "qint")),
    ("quadfactor.ring(-5).el(1) * quadfactor.ring(-5).el(0, 1)",
     ("errors", "qint")),
    ("quadfactor.ideal_from_gens([quadfactor.ring(-5).el(2)])",
     ("errors", "qint", "ideals")),
    ("import quadfactor.parse", ("errors", "qint", "parse")),
    ("import quadfactor.parse\n"
     "quadfactor.parse.parse_kpoly('x+1', quadfactor.ring(-5))",
     ("errors", "qint", "parse", "kpoly")),
    ("quadfactor.property_p_witness(quadfactor.ring(-1), 10, 2)",
     ("errors", "qint", "witness")),
)


def test_package_root_loads_only_what_is_used():
    for code, layers in ROOT_USES:
        loaded = _modules_loaded_by("import quadfactor\n" + code)
        ours = {m for m in loaded if m.split(".")[0] == "quadfactor"}
        assert ours == {"quadfactor"} | {f"quadfactor.{m}"
                                         for m in layers}, code


# `python -m quadfactor` argv -> the package modules the call loads
# besides the package root and quadfactor.commands: Zassenhaus (zpoly)
# loads only for a factor over Q of degree > 2, the element search
# (factor) for R[x] only where its factorizations are listed, and K[x]
# for witness-p only to build the first quadratic that survives the
# integer screens (none does at d = -1); rpoly binds the search, so a
# call that loads rpoly loads witness too, and D1 loads no R[x] layer
# (only D2's irreducibility test does)
CLI_LOADS = (
    (("--d", "-5", "factor", "6"), ("errors", "qint", "parse", "factor")),
    (("--d", "-5", "gcd-v", "6", "2+2*w"),
     ("errors", "qint", "parse", "ideals")),
    (("--d", "-5", "kfactor", "x^2+5"), ("errors", "qint", "parse", "kpoly")),
    (("--d", "-14", "kfactor", "x^4+3*x^2+7"),
     ("errors", "qint", "parse", "kpoly", "zpoly")),
    (("--d", "-1", "witness-p"), ("errors", "qint", "witness")),
    (("--d", "-5", "witness-p"), ("errors", "qint", "kpoly", "witness")),
    (("--d", "-5", "d1", "x^2+5"),
     ("errors", "qint", "parse", "kpoly", "factor", "extring")),
    (("paper-suite",),
     ("errors", "qint", "kpoly", "factor", "rpoly", "witness", "ideals",
      "extring", "suite")),
)
# fractions, with the decimal and numbers modules it imports, loads only
# where a rational is built: these calls print each ratio from integers.
RATIONAL_FREE = (
    ("--d", "-5", "factor", "6"),
    ("--d", "-14", "elasticity", "81"),
    ("--d", "-5", "gcd-v", "6", "2+2*w"),
    ("--d", "-5", "gamma-check", "2; 1+w", "3; 1+w"),
    ("--d", "-1", "witness-p"),
    ("--d", "-5", "witness-p"),
)
# (witness-p screens its candidates in integers and builds its witness
# from integer coordinates.)


def _modules_loaded_by_cli(argv) -> set[str]:
    """The modules loaded by one `python -m quadfactor` call (run as -m
    runs it, by runpy, with the process exit of commands.run replaced by
    sys.exit), listed on stderr after its output."""
    probe = ("import os, runpy, sys\n"
             "sys.argv = ['quadfactor', *%r]\n"
             "os._exit = sys.exit\n"
             "try:\n"
             "    runpy.run_module('quadfactor', run_name='__main__',\n"
             "                     alter_sys=True)\n"
             "except SystemExit as e:\n"
             "    assert e.code == 0, e.code\n"
             "assert sys.modules['quadfactor'].__file__ == %r\n"
             "sys.stderr.write('\\nloaded: ' + ' '.join(sys.modules))\n"
             % (list(argv), quadfactor.__file__))
    proc = subprocess.run([sys.executable, "-c", probe], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stderr.rpartition("\nloaded: ")[2].split())


def test_cli_call_loads_only_its_command_layers():
    for argv, layers in CLI_LOADS:
        ours = {m for m in _modules_loaded_by_cli(argv)
                if m.split(".")[0] == "quadfactor"}
        assert ours == {"quadfactor", "quadfactor.commands"} | {
            f"quadfactor.{m}" for m in layers}, argv


def test_element_and_ideal_calls_load_no_rationals():
    for argv in RATIONAL_FREE:
        loaded = _modules_loaded_by_cli(argv)
        assert "quadfactor.qint" in loaded, argv
        assert not loaded & {"fractions", "decimal", "numbers"}, argv


def test_installed_script_is_the_module_entry():
    # the `quadfactor` script runs the function that `python -m
    # quadfactor` runs, from the module it imports, so the load sets
    # above hold for the script too
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["quadfactor"]
    imp, call = ast.parse((SRC / "__main__.py").read_text()).body
    [alias] = imp.names
    assert imp.level == 1 and alias.asname is None
    assert ast.unparse(call) == f"{alias.name}()"
    assert target == f"quadfactor.{imp.module}:{alias.name}"
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))
