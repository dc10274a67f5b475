"""Replay of the benchmark's reference outputs.

qfbench/reference.json maps every argv of the benchmark's default seed
to the first 16 hex digits of the sha256 of its stdout, the digest
qfbench/run.py compares.  Each argv runs here through cli.main in one
process; a changed byte of output on any of them fails the test."""

import contextlib
import hashlib
import io
import json
import pathlib

from quadfactor.cli import main

REFERENCE = (pathlib.Path(__file__).resolve().parent.parent / "qfbench"
             / "reference.json")


def test_reference_outputs_replay():
    reference = json.loads(REFERENCE.read_text())
    assert len(reference) > 2000
    differ = []
    for key, want in reference.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            main(json.loads(key))
        if hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] != want:
            differ.append(key)
    assert differ == []
