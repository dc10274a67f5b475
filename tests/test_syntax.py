import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from quadfactor.commands import _COMMANDS, main, run
from quadfactor.errors import DomainError, ParseError
from quadfactor.parse import (MAX_NESTING, parse_element, parse_ideal_gens,
                              parse_kelem, parse_kpoly, parse_rpoly)
from quadfactor.qint import ring


CFG = ring(-5)


@pytest.mark.parametrize("text", [
    "x^2+1",
    "2*x+1-w",
    "(1+w)*x",
    "1/81*x^2+1",
    "w/3*x^2+2*x+1",
    "-(1-w)",
    "x^2-x",
    "-x^2+1",
    "(-1+2*w)/5",
])
def test_round_trip(text):
    assert str(parse_kpoly(text, CFG)) == text


def test_precedence():
    assert str(parse_kpoly("2*x^2+1", CFG)) == "2*x^2+1"
    assert parse_kpoly("2^3^2", CFG).coeff(0) == CFG.el(512)
    assert str(parse_kpoly("-x^2", CFG)) == "-x^2"
    assert str(parse_kpoly("-2*x", CFG)) == "-2*x"
    assert str(parse_kpoly("x*x*x", CFG)) == "x^3"
    assert str(parse_kpoly("(1+w)^2", CFG)) == "-(4-2*w)"
    assert parse_kpoly("-(4-2*w)", CFG) == parse_kpoly("(1+w)^2", CFG)
    assert str(parse_kpoly("x/2", CFG)) == "1/2*x"
    assert str(parse_kpoly("1 + 2 * x", CFG)) == "2*x+1"


def test_zero_exponent():
    # the exponent 0 parses to the zero polynomial, whose degree is -1
    assert str(parse_kpoly("2^0*x+1", CFG)) == "x+1"
    assert str(parse_kpoly("x^0", CFG)) == "1"
    assert str(parse_kpoly("3^(1-1)*6", CFG)) == "6"


@pytest.mark.parametrize("bad", [
    "1+",
    "x^-2",
    "x^x",
    "1/0",
    "1/x",
    "(1+w",
    "2 2",
    "x$1",
    "x^65",
    "",
    ")",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_kpoly(bad, CFG)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_kpoly("x?1", CFG)
    assert "position 1" in str(exc.value)


def test_typed_entry_points():
    assert parse_kelem("(1-w)/2", CFG).den == 2
    with pytest.raises(ParseError):
        parse_kelem("x+1", CFG)
    z = parse_element("3-w", CFG)
    assert (z.a, z.b) == (3, -1)
    with pytest.raises(DomainError):
        parse_element("(1-w)/2", CFG)
    f = parse_rpoly("2*x^2+2+w", CFG)
    assert f.degree() == 2
    with pytest.raises(DomainError):
        parse_rpoly("x/2", CFG)


def test_parse_ideal_gens():
    gens = parse_ideal_gens("<2; 1+w>", CFG)
    assert [str(g) for g in gens] == ["2", "1+w"]
    gens = parse_ideal_gens("2; 1+w", CFG)
    assert len(gens) == 2
    gens = parse_ideal_gens("<2;; (1-w)/2>", CFG)
    assert [str(g) for g in gens] == ["2", "(1-w)/2"]
    with pytest.raises(ParseError):
        parse_ideal_gens("<2; 1+w", CFG)
    with pytest.raises(ParseError):
        parse_ideal_gens("<>", CFG)
    with pytest.raises(ParseError):
        parse_ideal_gens(";", CFG)


def invoke(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_cli_factor(capsys):
    code, out, err = invoke(capsys, "--d", "-5", "factor", "6")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["element"] == "6"
    assert payload["factorizations"] == [["1-w", "1+w"], ["2", "3"]]
    assert payload["length_set"] == [2]
    assert payload["elasticity"] == {"num": 1, "den": 1}


def test_cli_output_is_byte_identical(capsys):
    first = invoke(capsys, "--d", "-14", "factor", "81")
    second = invoke(capsys, "--d", "-14", "factor", "81")
    assert first == second
    assert first[0] == 0


def test_cli_ring_info(capsys):
    code, out, _ = invoke(capsys, "--d", "-5", "ring-info")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"d": -5, "is_maximal": True, "class_number": 2,
                       "is_ufd": False, "units": ["1", "-1"]}
    code, out, _ = invoke(capsys, "--d", "-7", "ring-info")
    assert json.loads(out)["class_number"] is None


def test_cli_tsv(capsys):
    code, out, _ = invoke(capsys, "--d", "-5", "--format", "tsv",
                          "elasticity", "6")
    assert code == 0
    rows = dict(line.split("\t", 1) for line in out.strip().split("\n"))
    assert rows["element"] == "6"
    assert json.loads(rows["elasticity"]) == {"num": 1, "den": 1}


def test_cli_poly_factor(capsys):
    code, out, _ = invoke(capsys, "--d", "-14", "poly-factor", "81*x")
    assert code == 0
    payload = json.loads(out)
    assert payload["length_set"] == [3, 5]
    assert payload["elasticity"] == {"num": 5, "den": 3}
    assert ["3", "3", "3", "3", "x"] in payload["factorizations"]
    # a large linear polynomial is K-irreducible and primitive, so it
    # needs no lam search at all
    code, out, _ = invoke(capsys, "--d", "-5", "poly-factor", "998*x+999")
    assert code == 0
    assert json.loads(out)["factorizations"] == [["998*x+999"]]
    # lam comes from the common divisors of lc(g0)*e, not a norm walk
    # that grows with the coefficients
    code, out, _ = invoke(capsys, "--d", "-5", "poly-factor",
                          "(298*x+299)*(x+w)")
    assert code == 0
    assert out == (
        '{"poly": "298*x^2+(299+298*w)*x+299*w", "d": -5, '
        '"factorizations": [["x+w", "298*x+299"]], "length_set": [2], '
        '"elasticity": {"num": 1, "den": 1}}\n')


def test_cli_irr(capsys):
    code, out, _ = invoke(capsys, "--d", "-14", "irr", "81*x")
    payload = json.loads(out)
    assert code == 0 and payload["irreducible"] is False
    assert payload["certificate"]["g"] == "3"
    assert payload["certificate"]["h"] == "27*x"
    code, out, _ = invoke(capsys, "--d", "-5", "irr", "x^2+x+1")
    payload = json.loads(out)
    assert payload["irreducible"] is True
    assert payload["certificate"] is None


def test_cli_kfactor(capsys):
    code, out, _ = invoke(capsys, "--d", "-5", "kfactor", "x^2+5")
    payload = json.loads(out)
    assert code == 0
    assert payload["unit"] == "1"
    assert payload["factors"] == ["x-w", "x+w"]


def test_cli_psp_check(capsys):
    code, out, _ = invoke(capsys, "--d", "-5", "psp-check", "(1+w)*x+2")
    payload = json.loads(out)
    assert code == 0
    assert payload["primitive"] is True
    assert payload["superprimitive"] is False
    assert payload["witness"] == "(1-w)/2"


def test_cli_gcd_v(capsys):
    code, out, _ = invoke(capsys, "--d", "-5", "gcd-v", "4", "2")
    payload = json.loads(out)
    assert code == 0 and payload["exists"] and payload["gcd"] == "2"
    code, out, _ = invoke(capsys, "--d", "-5", "gcd-v", "2", "1+w")
    payload = json.loads(out)
    assert payload["exists"] is False and payload["gcd"] is None


def test_cli_gamma_check(capsys):
    code, out, _ = invoke(capsys, "--d", "-5", "gamma-check",
                          "<2; 1+w>", "<1; (1-w)/2>")
    payload = json.loads(out)
    assert code == 0
    assert payload["product_v_trivial"] is True
    assert payload["b_v_principal"] is None
    assert payload["holds"] is False
    code, out, _ = invoke(capsys, "--d", "-1", "gamma-check",
                          "1+w", "(1-w)/2")
    assert json.loads(out)["holds"] is True


def test_cli_witness_p(capsys):
    code, out, _ = invoke(capsys, "--d", "-3", "witness-p")
    payload = json.loads(out)
    assert code == 0 and payload["witness"] == "x^2+x+1"
    code, out, _ = invoke(capsys, "--d", "-1", "witness-p")
    assert json.loads(out)["witness"] is None


def test_cli_d1(capsys):
    code, out, _ = invoke(capsys, "--d", "-5", "d1", "2*x")
    payload = json.loads(out)
    assert code == 0
    assert payload["classification"] == "reducible"
    assert payload["factorizations"] == [["2", "x"]]
    code, out, _ = invoke(capsys, "--d", "-5", "d1", "w/2*x")
    payload = json.loads(out)
    assert payload["classification"] == "reducible"
    assert payload["factorizations"] is None
    assert "not in Z[w]" in payload["note"]


def test_cli_d2_demo(capsys):
    code, out, _ = invoke(capsys, "--d", "-5", "d2-demo", "2", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["identity_holds"] and payload["factors_irreducible"]
    assert payload["lengths"] == [2, 3]
    assert payload["elasticity_lower_bound"] == {"num": 3, "den": 2}
    assert payload["observed_lengths"] == [2, 3]


def test_cli_exit_codes(capsys):
    code, out, err = invoke(capsys, "--d", "-5", "factor", "6+")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "parse"
    code, out, err = invoke(capsys, "factor", "6")
    assert code == 2 and "required" in json.loads(err)["error"]["message"]
    code, out, err = invoke(capsys, "--d", "-5", "factor", "0")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "domain"
    code, out, err = invoke(capsys, "--d", "-5", "factor", "(1-w)/2")
    assert code == 3
    code, out, err = invoke(capsys, "--d", "-5", "factor", "10^5")
    assert code == 4
    assert json.loads(err)["error"]["type"] == "resource"
    code, out, err = invoke(capsys, "--d", "-5", "no-such-command")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"
    code, out, err = invoke(capsys, "--d", "-4", "ring-info")
    assert code == 3
    code, out, err = invoke(capsys, "--d", "-5", "d2-demo", "2", "0")
    assert code == 3 and json.loads(err)["error"]["type"] == "domain"
    code, out, err = invoke(capsys, "--d", "-5", "d2-demo", "2", "7")
    assert code == 4 and json.loads(err)["error"]["type"] == "resource"


def test_cli_budgets_refuse_large_constants():
    # each argv once ran an unbounded divisor scan (d1 and d2-demo past
    # the element norm guard, psp-check past the coefficient norm
    # guard); a child process with a timeout turns a hang into a failure
    import quadfactor
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(quadfactor.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    for argv in (["d1", "100000007"], ["d1", "1000000007"],
                 ["d1", "1000000007*x+1000000007"],
                 ["d2-demo", "1000000007", "1"], ["d2-demo", "6", "6"],
                 ["psp-check", "100000007*x+100000007"],
                 ["psp-check", "1000000007*x+1000000007"],
                 ["psp-check", "1000003*x+1000003"]):
        proc = subprocess.run(
            [sys.executable, "-m", "quadfactor", "--d", "-5", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4 and proc.stdout == "", argv
        assert json.loads(proc.stderr)["error"]["type"] == "resource", argv


@pytest.mark.parametrize("argv, code", [
    (("factor", "10000"), 0),  # norm exactly 10^8
    (("factor", "10000+w"), 4),  # norm 10^8 + 5
    (("poly-factor", "1000*x+1"), 0),  # coefficient norm exactly 10^6
    (("psp-check", "1000*x+1"), 0),
    (("poly-factor", "(1000+w)*x+1"), 4),  # coefficient norm 10^6 + 5
    (("psp-check", "(1000+w)*x+1"), 4),
])
def test_cli_stated_limits_are_inclusive(capsys, argv, code):
    # README's guards refuse element norms above 10^8 and coefficient
    # norms above 10^6: a value at the limit is accepted, the next one
    # in the ring is refused
    got, out, err = invoke(capsys, "--d", "-5", *argv)
    assert got == code, argv
    if code == 0:
        assert err == "" and json.loads(out)["d"] == -5
    else:
        assert out == "" and json.loads(err)["error"]["type"] == "resource"


@pytest.mark.parametrize("cmd, text", [
    ("factor", "9" * 5000),                  # literal past 4000 digits
    ("kfactor", "((2^64)^64)^64"),           # power past 4000 digits
    ("kfactor", "(((2^64)^64)^64)^64"),
    ("kfactor", "((x+1)^32)^32"),            # power of degree 1024
    ("kfactor", "(x^2)^33"),
    ("kfactor", "x^64*x"),                   # product of degree 65
    ("kfactor", "*".join(["9" * 3000] * 3)),  # long product of literals
    ("kfactor", "1/(3^64)^64+w/(7^64)^40"),  # common denominator too long
    ("kfactor", "/".join(["x"] + ["(9^64)^64"] * 50)),
])
def test_cli_oversized_input_exits_2(capsys, cmd, text):
    # refused by the parser before the work is done: one JSON error
    # line, no traceback, well under a second
    start = time.perf_counter()
    code, out, err = invoke(capsys, "--d", "-5", cmd, text)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "parse"


@pytest.mark.parametrize("args", [
    ("factor", "(" * 800 + "1" + ")" * 800),
    ("factor", "--", "-" * 5000 + "6"),
    ("kfactor", "2^" * 3000 + "1"),
])
def test_cli_deep_nesting_exits_2(capsys, args):
    # refused at MAX_NESTING levels, not a RecursionError (exit 1)
    code, out, err = invoke(capsys, "--d", "-5", *args)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].startswith(
        f"nesting exceeds {MAX_NESTING} levels")


@pytest.mark.parametrize("cmd, text, pos", [
    ("factor", "", 0), ("factor", "1+", 2), ("factor", "2*", 2),
    ("kfactor", "x^", 2), ("factor", "(", 1),
])
def test_cli_truncated_input_names_end_of_input(capsys, cmd, text, pos):
    code, out, err = invoke(capsys, "--d", "-5", cmd, text)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == (
        f"expected a value, found end of input at position {pos}")


def test_nesting_bound_itself_accepted():
    # MAX_NESTING - 1 parentheses or signs around a literal, plus the
    # top level, are MAX_NESTING levels
    k = MAX_NESTING - 1
    assert parse_kelem("(" * k + "6" + ")" * k, CFG) == parse_kelem("6", CFG)
    assert parse_kelem("-" * k + "6", CFG) == parse_kelem("-6", CFG)
    with pytest.raises(ParseError):
        parse_kelem("(" * (k + 1) + "6" + ")" * (k + 1), CFG)


def test_largest_inputs_within_bounds(capsys):
    # the bounds themselves are accepted: a 4000-digit literal, degree 64
    code, out, _ = invoke(capsys, "--d", "-5", "kfactor", "9" * 4000)
    assert code == 0 and json.loads(out)["unit"] == "9" * 4000
    assert parse_kpoly("x^64", CFG).degree() == 64
    assert parse_kpoly("(x^8)^8*1", CFG).degree() == 64


def test_cli_verification_failure_exits_5(capsys, monkeypatch):
    # factors that do not multiply back end as exit 5 with one JSON
    # error line on stderr, not as a traceback
    from quadfactor import kpoly
    monkeypatch.setattr(kpoly, "_quadratic_factors", lambda h: [
        kpoly.KPoly.from_rationals([1, 1], h.cfg)] * 2)
    code, out, err = invoke(capsys, "--d", "-5", "kfactor", "x^2+5")
    assert code == 5 and out == ""
    assert json.loads(err)["error"]["type"] == "verification"


def test_cli_element_verification_failure_exits_5(capsys, monkeypatch):
    # one corrupted atom fails the integer multiply-back that fills a
    # memo entry, and exits 5
    from quadfactor import factor
    check = factor._check_products

    def corrupted(x, fs):
        first, *others = sorted(fs, key=str)
        y = first[0]
        check(x, ((y.cfg.el(y.a + 1, y.b), *first[1:]), *others))

    monkeypatch.setattr(factor, "_check_products", corrupted)
    for cmd in ("factor", "elasticity"):
        factor._factor_multisets.cache_clear()
        code, out, err = invoke(capsys, "--d", "-5", cmd, "6")
        assert code == 5 and out == ""
        assert json.loads(err)["error"]["type"] == "verification"


def test_cli_unexpected_error_exits_5(capsys, monkeypatch):
    # any other exception is reported as JSON with its class name
    def broken(a, cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(_COMMANDS, "factor",
                        (("element",), True, broken))
    code, out, err = invoke(capsys, "--d", "-5", "factor", "6")
    assert code == 5 and out == "" and "Traceback" not in err
    assert json.loads(err) == {"error": {
        "type": "internal", "message": "RuntimeError: boom"}}

    class Stop(BaseException):
        pass

    def stopped(a, cfg):
        raise Stop

    # a BaseException, such as a benchmark's timeout, is not caught
    monkeypatch.setitem(_COMMANDS, "factor",
                        (("element",), True, stopped))
    with pytest.raises(Stop):
        main(["--d", "-5", "factor", "6"])


def test_cli_consecutive_calls_share_no_flags(capsys):
    # every main() call reads argv afresh from the option defaults; no
    # flag of one call may leak into the next
    code, out, _ = invoke(capsys, "--format", "tsv", "--d", "-5",
                          "factor", "6")
    assert code == 0 and out.startswith("element\t6\n")
    code, out, _ = invoke(capsys, "--d", "-5", "factor", "6")
    assert code == 0 and json.loads(out)["element"] == "6"
    code, out, err = invoke(capsys, "--d", "-5", "factor")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "usage"
    code, out, _ = invoke(capsys, "ring-info")
    assert code == 2


def test_cli_leading_minus_needs_separator(capsys):
    code, _, err = invoke(capsys, "--d", "-5", "poly-factor", "-x^2-5")
    assert code == 2
    code, out, _ = invoke(capsys, "--d", "-5", "poly-factor", "--", "-x^2-5")
    assert code == 0
    payload = json.loads(out)
    assert payload["factorizations"] == [["x-w", "x+w"]]


def test_package_surface():
    import quadfactor
    assert all(hasattr(quadfactor, n) for n in quadfactor.__all__)
    assert quadfactor.__version__
    namespace = {}
    exec("from quadfactor import *", namespace)
    assert all(namespace[n] is getattr(quadfactor, n)
               for n in quadfactor.__all__)
    with pytest.raises(AttributeError):
        quadfactor.no_such_name


def _run_entry_point(capsys, monkeypatch, *argv):
    """commands.run() as the installed script calls it: argv from sys.argv,
    the exit code through SystemExit (run() ends the process with
    os._exit, which sys.exit stands in for here)."""
    monkeypatch.setattr(sys, "argv", ["quadfactor", *argv])
    monkeypatch.setattr(os, "_exit", sys.exit)
    with pytest.raises(SystemExit) as exit_info:
        run()
    cap = capsys.readouterr()
    return exit_info.value.code, cap.out, cap.err


def test_cli_installed_script(capsys, monkeypatch):
    script = shutil.which("quadfactor")
    cmd = [script] if script else [sys.executable, "-m", "quadfactor"]
    proc = subprocess.run(cmd + ["--d", "-5", "factor", "6"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["factorizations"] == [["1-w", "1+w"], ["2", "3"]]

    spaced = _run_entry_point(capsys, monkeypatch,
                              "--d", "-5", "--format", "tsv", "factor", "6")
    joined = _run_entry_point(capsys, monkeypatch,
                              "--d=-5", "--format=tsv", "factor", "6")
    assert spaced == joined
    assert joined[0] == 0 and joined[1].startswith("element\t6\n")
    code, out, _ = _run_entry_point(capsys, monkeypatch,
                                    "--norm", "30", "--d", "-5", "witness-p")
    assert code == 0 and json.loads(out)["norm_bound"] == 30
    code, out, err = _run_entry_point(capsys, monkeypatch, "-h")
    assert code == 0 and out.startswith("usage: ") and err == ""


def test_cli_help_lists_every_command(capsys):
    code, out, err = invoke(capsys, "--help")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("usage: quadfactor [--d D]")
    assert all(any(line.split()[:1] == [name] for line in lines)
               for name in _COMMANDS)
    assert "gcd-v ELEMENTS..." in out and "d2-demo PI N" in out
    # help after the command, a prefix of --help and -hh all print it;
    # an error read before the help option still wins
    for argv in (["--d", "-5", "factor", "-h"], ["--he"], ["-hh"],
                 ["--bogus", "-h"]):
        assert invoke(capsys, *argv) == (0, out, "")
    for argv in (["-hx"], ["--help=x"], ["--d", "x", "-h"],
                 ["--d", "-5", "d2-demo", "1+w", "x", "-h"]):
        code, out2, err = invoke(capsys, *argv)
        assert code == 2 and out2 == ""
        assert json.loads(err)["error"]["type"] == "usage"
