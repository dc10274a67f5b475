"""The mutant table: one-line slips in `src/` that tier-1 must catch.

Each row names a file of the package, an exact old text, its
replacement, and the tier-1 test that must then fail.

    python tests/mutants.py            # each row against its named test
    python tests/mutants.py --full     # then against all of tier-1

A row is applied to a copy of `src/` in a temporary directory, never to
the working tree, and pytest runs from the repository root with that
copy first on the path.  The named tests must first pass on an
unchanged copy.  A row is killed when its run fails; with `--full`,
tier-1 runs with `-x` and the time to its first failure is reported.
A surviving row is a gap in the tests: report it, do not delete the row.
The exit status is 1 when a row survives.

pytest does not collect this file; `tests/test_mutant_table.py` checks,
without running a mutant, that every row's old text occurs exactly once
in its file, so the table cannot rot silently."""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Mutant = namedtuple("Mutant", "name path old new test")

MUTANTS = (
    Mutant("coeff-norm-guard-inclusive", "qint.py",
           "if any(norm(c) > MAX_COEFF_NORM for c in coeffs):",
           "if any(norm(c) >= MAX_COEFF_NORM for c in coeffs):",
           "tests/test_syntax.py::test_cli_stated_limits_are_inclusive"),
    Mutant("element-norm-guard-inclusive", "factor.py",
           "    if n > NORM_LIMIT:",
           "    if n >= NORM_LIMIT:",
           "tests/test_syntax.py::test_cli_stated_limits_are_inclusive"),
    Mutant("rx-degree-guard-inclusive", "rpoly.py",
           "    if f.degree() > MAX_DEG:",
           "    if f.degree() >= MAX_DEG:",
           "tests/test_rpoly.py::test_rx_factorizations_multiply_back"),
    Mutant("lambda-candidates-without-unit", "rpoly.py",
           "itertools.chain((c.cfg.el(1),),\n"
           "                                            common_divisors(prods))",
           "common_divisors(prods)",
           "tests/test_rpoly.py::test_lambda_candidates_match_ball_walk"),
    Mutant("irreducibles-keep-reducible-divisors", "qint.py",
           "for n, ya, yb in kept:",
           "for n, ya, yb in ():",
           "tests/test_qint.py::test_common_divisors"),
    Mutant("element-multiply-back-skipped", "factor.py",
           "    _check_products(x, out)\n",
           "",
           "tests/test_factor.py::"
           "test_corrupted_quotient_entry_fails_verification"),
    Mutant("frac-ideal-without-w-closure", "ideals.py",
           "\n                and self._lattice_member(cfg.d * c, b))",
           ")",
           "tests/test_ideals.py::test_frac_ideal_invariants_raise"),
    Mutant("ext-elem-without-linear-clause", "extring.py",
           "        for i in range(depth):",
           "        for i in range(depth - 1):",
           "tests/test_extring.py::test_membership"),
)

TIER1 = ["tests", "--continue-on-collection-errors"]


def _pytest(src: pathlib.Path, args: list[str]):
    """(pytest's exit code, seconds, first FAILED line) for a run from the
    repository root with src first on the path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf",
         "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    failed = next((line for line in proc.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    return proc.returncode, seconds, failed


def _copy(tmp: pathlib.Path, mutant=None) -> pathlib.Path:
    """A fresh copy of src/ under tmp, with mutant applied if given."""
    dest = tmp / "src"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = dest / "quadfactor" / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text does not occur "
                             f"exactly once in {mutant.path}")
        path.write_text(text.replace(mutant.old, mutant.new))
    return dest


def _verdict(code: int, seconds: float, failed: str) -> str:
    if code == 1:
        return f"killed in {seconds:.1f} s ({failed.removeprefix('FAILED ')})"
    if code == 0:
        return f"SURVIVED ({seconds:.1f} s)"
    return f"ERROR: pytest exit code {code}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="also run all of tier-1 against each row")
    args = ap.parse_args(argv)
    survived = errors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tmp = pathlib.Path(tmp)
        src = _copy(tmp)
        found = subprocess.run(
            [sys.executable, "-c",
             "import quadfactor; print(quadfactor.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True).stdout
        if not found.startswith(str(src)):
            print(f"quadfactor does not import from the copy: {found!r}")
            return 2
        code, seconds, failed = _pytest(src, sorted({m.test for m in MUTANTS}))
        if code:
            print(f"named tests fail on unchanged src/ ({failed})")
            return 2
        for m in MUTANTS:
            src = _copy(tmp, m)
            runs = [("named", [m.test])] + ([("tier-1", TIER1)]
                                            if args.full else [])
            for label, pytest_args in runs:
                code, seconds, failed = _pytest(src, pytest_args)
                survived += code == 0
                errors += code not in (0, 1)
                print(f"{m.name} [{label}]: {_verdict(code, seconds, failed)}",
                      flush=True)
    return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main())
