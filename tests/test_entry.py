"""The process entry `python -m quadfactor` (commands.run): it ends the
process with os._exit right after flushing its output, so each call here
runs in a child process and is compared with `cli.main` in this one."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import quadfactor
from quadfactor.cli import main
from quadfactor.commands import _COMMANDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "qfbench" / "reference.json").read_text())
# the quickest argv of each command in qfbench/reference.json, all exit 0
FROM_REFERENCE = (
    ("--d", "-3", "d1", "--", "-x-9"),
    ("--d", "-5", "d2-demo", "2", "1"),
    ("--d", "-19", "elasticity", "2"),
    ("--d", "-34", "factor", "--", "-4"),
    ("--d", "-2", "gamma-check", "--", "4+2*w", "-3"),
    ("--d", "-53", "gcd-v", "12+16*w", "36"),
    ("--d", "-1", "irr", "--", "-(5-w)*x+2-2*w"),
    ("--d", "-2", "kfactor", "x^2-2*x+1"),
    ("paper-suite",),
    ("--d", "-6", "poly-elasticity", "x+9-5*w"),
    ("--d", "-5", "poly-factor", "98*x+99"),
    ("--d", "-58", "psp-check", "7*x+1"),
    ("--d", "-19", "--norm-bound", "8", "witness-p"),
)
# the reference holds no ring-info call and no error: these add them,
# with every exit code but 5 (a failed self-check) and 1 (a failed suite)
EXTRA = (
    ("--d", "-5", "ring-info"),
    ("--d", "-5", "--format", "tsv", "factor", "6"),
    ("-h",),
    ("--d", "-5", "bogus"),
    ("--d", "-5", "factor", "1+"),
    ("--d", "-5", "factor", "0"),
    ("--d", "-5", "kfactor", "x^9+1"),
    ("--d", "-5", "factor", "1000000000"),
)


def _env(unbuffered=None) -> dict:
    """This checkout's package first on the path; stdout block-buffered
    as on a pipe, so only run()'s flush writes it, unless unbuffered."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    src = str(pathlib.Path(quadfactor.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_child_output_matches_in_process_main():
    codes = set()
    for argv in FROM_REFERENCE + EXTRA:
        proc = subprocess.run([sys.executable, "-m", "quadfactor", *argv],
                              env=_env(), capture_output=True, text=True,
                              timeout=120)
        code, out, err = _in_process(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out, err), argv
        if argv in FROM_REFERENCE:
            assert _digest(out) == REFERENCE[json.dumps(list(argv))], argv
        codes.add(code)
    assert codes == {0, 2, 3, 4}
    assert {a for argv in FROM_REFERENCE + EXTRA for a in argv} >= set(
        _COMMANDS)


def test_closed_stdout_exits_1_without_traceback():
    # the reader has gone before the call writes: the flush (or, when
    # unbuffered, the write) fails with EPIPE, which ends the call with 1
    # and nothing on stderr
    for unbuffered in (None, "1"):
        for argv in (("--d", "-5", "factor", "6"), ("paper-suite",)):
            r, w = os.pipe()
            os.close(r)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "quadfactor", *argv], stdout=w,
                    stderr=subprocess.PIPE, env=_env(unbuffered),
                    timeout=120)
            finally:
                os.close(w)
            assert (proc.returncode, proc.stderr) == (1, b""), argv


def test_profiler_still_reports():
    # under a profiler run() exits normally, so the profile is printed
    # after the command's output
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "quadfactor", "--d", "-5",
         "factor", "6"], env=_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, _, rest = proc.stdout.partition("\n")
    assert json.loads(first)["factorizations"] == [["1-w", "1+w"],
                                                    ["2", "3"]]
    assert "function calls" in rest and "(factorizations)" in rest
