"""The CLI's argv reader against the argparse parser it replaced
(tests/argparse_oracle.py): both accept the same argv and read the same
global options, command and positionals from it.  Error texts may
differ; a rejected argv is a usage error (exit 2) in both, and help
(exit 0) is printed for the same argv."""

import json
import pathlib
import shlex

from hypothesis import given, settings
from hypothesis import strategies as st

import argparse_oracle
from quadfactor import cli
from test_readme import EXAMPLES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(argv):
    """The reader's outcome in the oracle's terms."""
    try:
        return ("ok", vars(cli._read_argv(argv)))
    except cli._Help:
        return ("help",)
    except cli._Usage:
        return ("usage",)


def expected(argv):
    """The oracle's outcome, except where argparse drops a `--` that is
    the whole value of a one-value positional after the separator and
    reads [] (the program then crashed on the list): the reader keeps
    the string "--", so the int `n` is a usage error there."""
    outcome = argparse_oracle.read(argv)
    if outcome[0] == "ok":
        fields = outcome[1]
        dropped = [k for k, v in fields.items()
                   if v == [] and k != "elements"]
        if "n" in dropped:
            return ("usage",)
        fields.update(dict.fromkeys(dropped, "--"))
    return outcome


def pinned_argvs():
    argvs = [json.loads(k) for k in
             json.loads((ROOT / "qfbench" / "reference.json").read_text())]
    for name in ("kpoly_pinned.jsonl", "factor_norm1e8.jsonl"):
        lines = (ROOT / "tests" / name).read_text().splitlines()
        argvs += [json.loads(line)["argv"] for line in lines if line]
    return argvs + [shlex.split(command) for command, _ in EXAMPLES]


def test_pinned_argv_read_as_argparse_read_them():
    argvs = pinned_argvs()
    assert len(argvs) > 2000
    for argv in argvs:
        outcome = read(argv)
        assert outcome[0] == "ok" and outcome == expected(argv), argv


def test_value_dropped_by_argparse_is_kept():
    # argparse reads `--d=--` as d = [] and so crashed in ring(); the
    # reader reads the string "--", which is no int
    assert argparse_oracle.read(["--d=--", "ring-info"])[1]["d"] == []
    assert read(["--d=--", "ring-info"]) == ("usage",)
    assert read(["--format=--", "ring-info"]) == ("usage",)
    argv = ["--d", "-5", "gamma-check", "3", "--", "--"]
    assert argparse_oracle.read(argv)[1]["c"] == []
    assert read(argv)[1]["c"] == "--" and expected(argv) == read(argv)
    assert read(["--d", "-5", "d2-demo", "2", "--", "--"]) == ("usage",)


OPTIONS = {"--d": ("--d",),
           "--norm-bound": ("--n", "--norm", "--norm-b", "--norm-bound"),
           "--deg-bound": ("--de", "--deg", "--deg-bound"),
           "--format": ("--f", "--form", "--format"),
           "--seed": ("--s", "--se", "--seed")}
# values of every kind argparse treats apart; "--" only as a separate string
VALUES = ("-5", "-1", "0", "7", "30", "+3", " 4 ", "1_0", "-1.5", "-.5",
          "x", "-x", "-", "", "1 2", "-x 2", "json", "tsv", "JSON", "-h")
POSITIONALS = ("6", "-6", "1+w", "-x^2-5", "x^2+5", "2; 1+w", "-2 -w", "3",
               "-3", "1.5", "x", "-x", "--x", "-h", "--he", "-", "")
STRAYS = ("--", "--", "-h", "--help", "--bogus", "-z", "--=1", "-hh", "-hx",
          "--d", "--seed=1", "--e")


@st.composite
def argvs(draw):
    argv = []
    for _ in range(draw(st.integers(0, 4))):
        opt = draw(st.sampled_from(sorted(OPTIONS)))
        spelled = draw(st.sampled_from(OPTIONS[opt]))
        if opt == "--format" and draw(st.booleans()):
            value = draw(st.sampled_from(("json", "tsv")))
        elif opt != "--format" and draw(st.booleans()):
            value = str(draw(st.integers(-40, 40)))
        else:
            value = draw(st.sampled_from(VALUES))
        form = draw(st.sampled_from(("spaced", "joined", "bare")))
        argv += {"spaced": [spelled, value], "joined": [f"{spelled}={value}"],
                 "bare": [spelled]}[form]
    command = draw(st.sampled_from(sorted(cli._COMMANDS) + ["bogus", "-5"]))
    argv.append(command)
    wanted = len(cli._COMMANDS.get(command, ((),))[0])
    if command == "gcd-v":
        wanted = draw(st.integers(1, 4))
    count = max(0, wanted + draw(st.sampled_from((0, 0, 0, -1, 1, 2))))
    for _ in range(count):
        if command == "d2-demo" and draw(st.booleans()):
            argv.append(str(draw(st.integers(-3, 9))))
        else:
            argv.append(draw(st.sampled_from(POSITIONALS)))
    for _ in range(draw(st.integers(0, 3))):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(STRAYS)))
    return argv


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_reader_matches_argparse(argv):
    assert read(argv) == expected(argv)


def test_generator_reaches_every_outcome():
    # the property above is only as good as the argv it sees
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(argvs())
    def collect(argv):
        seen.add(read(argv)[0])

    collect()
    assert seen == {"ok", "usage", "help"}
