"""Random argv for every command but paper-suite, over every ring,
through cli.main in this process: each call exits 0, 2, 3 or 4 with one
JSON object on stdout (exit 0) or on stderr, never with a traceback, and
within HANG_S seconds."""

import contextlib
import io
import json
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from quadfactor import cli
from test_kpoly import ALL_DS

# texts that do not parse, or that parse to zero, to a quotient, to a
# large norm or to a polynomial; argv options and help are fuzzed in
# test_argv.py
JUNK = ("", " ", "x", "w^2", "1/0", "(1+w", "<1; 2>", "1;;2", "w+",
        "2^40", "0", "(1+w)/0", "1.5", "abc", "w/w", "x^2+1")
ELEMENT_COMMANDS = ("factor", "elasticity")
POLY_COMMANDS = ("poly-factor", "poly-elasticity", "irr", "kfactor", "d1",
                 "psp-check")
COMMANDS = ELEMENT_COMMANDS + POLY_COMMANDS + (
    "gcd-v", "gamma-check", "d2-demo", "witness-p", "ring-info")
# a call still running after this many seconds fails the test
HANG_S = 20
# elements of small norm: d2-demo's pi^(2n) passes the norm guard only
# for small pi and n, which the draws of elements() seldom give
SMALL = ("2", "3", "w", "1+w", "2+w")


@st.composite
def elements(draw):
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(JUNK))
    # small coordinates, or coordinates past the coefficient-norm guard
    # with norms up to about 10^8, 10^13 or 10^21
    top = draw(st.sampled_from((12, 12, 3000, 10 ** 6, 10 ** 10)))
    a = draw(st.integers(-top, top))
    b = draw(st.integers(-top // 3, top // 3))
    k = draw(st.sampled_from((1, 1, 1, 2, 3, 4, 6)))
    text = f"{a}{b:+d}*w"
    return text if k == 1 else f"({text})/{k}"


@st.composite
def element_lists(draw, max_size):
    """Elements, at times all multiples of one more element, so that the
    ideal they generate has at least that element's norm."""
    elems = draw(st.lists(elements(), min_size=1, max_size=max_size))
    if draw(st.booleans()):
        common = draw(elements())
        elems = [f"({common})*({e})" for e in elems]
    return elems


@st.composite
def ideal_text(draw):
    gens = draw(element_lists(3))
    body = "; ".join(gens)
    return f"<{body}>" if draw(st.booleans()) else body


@st.composite
def poly_text(draw):
    """Polynomials of degree <= 3, unless a junk coefficient holds x."""
    coeffs = draw(st.lists(elements(), min_size=1, max_size=4))
    return "+".join(f"({c})*x^{i}" for i, c in enumerate(coeffs))


@st.composite
def argvs(draw):
    d = draw(st.sampled_from(ALL_DS))
    command = draw(st.sampled_from(COMMANDS))
    options, args = [], []
    if command in ELEMENT_COMMANDS:
        args = [draw(elements())]
    elif command in POLY_COMMANDS:
        args = [draw(poly_text())]
    elif command == "gcd-v":
        args = draw(element_lists(4))
    elif command == "gamma-check":
        args = [draw(ideal_text()), draw(ideal_text())]
    elif command == "d2-demo":
        pi = draw(st.one_of(elements(), st.sampled_from(SMALL)))
        n = draw(st.one_of(st.integers(-1, 8), st.integers(1, 2)))
        args = [pi, str(n)]
    elif command == "witness-p":
        options = ["--norm-bound", str(draw(st.integers(-1, 30))),
                   "--deg-bound", str(draw(st.integers(0, 3)))]
    return [*options, "--d", str(d), command, *args]


class Hang(BaseException):
    """Raised by the interval timer; cli.main lets BaseException through."""


def run(argv):
    def hang(signum, frame):
        raise Hang(argv)

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, HANG_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_ideal_commands_exit_cleanly(argv):
    code, out, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in out + err
    text, other = (out, err) if code == 0 else (err, out)
    assert other == ""
    assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
    payload = json.loads(text)
    assert isinstance(payload, dict)
    assert ("error" in payload) == (code != 0), (argv, payload)


def test_generator_reaches_every_exit_code():
    # the property above is only as good as the argv it sees: each
    # command must reach exit 0, which needs a valid input for it.  At
    # 600 examples gcd-v or poly-factor missed it in about one run of
    # twenty; 1200 examples missed none in 60 runs
    seen = set()

    @settings(max_examples=1200, deadline=None, database=None)
    @given(argvs())
    def collect(argv):
        seen.add((argv[argv.index("--d") + 2], run(argv)[0]))

    collect()
    assert {code for _, code in seen} == {0, 2, 3, 4}
    assert {command for command, code in seen if code == 0} == set(COMMANDS)
