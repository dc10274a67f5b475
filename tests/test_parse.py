"""The parser against tests/parse_oracle.py, the evaluator it replaced:
every entry point gives the same value, or raises the same exception
type with the same message, on random expressions with and without x
and on the inputs at the edge of each bound."""

import parse_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfactor import parse
from quadfactor.parse import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING
from quadfactor.qint import ring
from test_kpoly import ALL_DS

ENTRY_POINTS = ("parse_kpoly", "parse_kelem", "parse_element", "parse_rpoly",
                "parse_ideal_gens")


def outcome(fn, text, cfg):
    try:
        return "value", fn(text, cfg)
    except Exception as exc:  # the type and message are compared
        return type(exc).__name__, str(exc)


def assert_matches_oracle(text, d):
    cfg = ring(d)
    for name in ENTRY_POINTS:
        got = outcome(getattr(parse, name), text, cfg)
        want = outcome(getattr(parse_oracle, name), text, cfg)
        assert got == want, (name, text, d)
        if got[0] == "value" and name == "parse_kpoly":
            assert type(got[1]) is type(want[1])


LITERALS = st.one_of(st.integers(0, 12).map(str),
                     st.sampled_from(("0", "00", "007", "1", "65", "64")),
                     st.integers(0, 10 ** 30).map(str))


def expressions(with_x: bool):
    names = ("w", "x") if with_x else ("w",)
    leaf = st.one_of(LITERALS, st.sampled_from(names))

    def grow(inner):
        signs = st.text(alphabet="+-", min_size=1, max_size=4)
        exponent = st.one_of(st.integers(0, 4).map(str),
                             st.sampled_from(("0", "(1-1)", "-1", "w", "x",
                                              "1/2", "65", "(2*32)")),
                             inner)
        return st.one_of(
            st.tuples(signs, inner).map("".join),
            inner.map("({})".format),
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
            st.tuples(inner, st.just("/"),
                      st.sampled_from(("0", "(1-1)", "(w-w)", "0*x"))
                      ).map("".join),
            st.tuples(st.sampled_from(("0", "(1-1)")), st.just("*"), inner
                      ).map("".join),
            st.tuples(inner, st.just("^"), exponent).map("".join),
            st.tuples(inner, st.just(" "), inner).map("".join))

    return st.recursive(leaf, grow, max_leaves=10)


SCALARS, POLYS = expressions(with_x=False), expressions(with_x=True)


@st.composite
def texts(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:  # any characters, valid or not
        return draw(st.text(alphabet="0123456789wx+-*/^() ;<>$.",
                            max_size=25))
    if kind == 1:  # a ';'-list, with or without brackets
        parts = draw(st.lists(st.one_of(SCALARS, st.just(" ")),
                              min_size=1, max_size=3))
        body = ";".join(parts)
        return f"<{body}>" if draw(st.booleans()) else body
    return draw(POLYS if kind >= 4 else SCALARS)


@settings(max_examples=500, deadline=None)
@given(texts(), st.sampled_from(ALL_DS))
def test_parser_matches_kpoly_oracle(text, d):
    assert_matches_oracle(text, d)


BIG = "9" * MAX_DIGITS
DEEP = MAX_NESTING - 1  # parentheses around a literal, plus the top level


@pytest.mark.parametrize("text, accepted", [
    pytest.param("0*" + BIG, True, id="zero-times-big"),  # 0 has 0 bits
    pytest.param(BIG + "*0", True, id="big-times-zero"),
    pytest.param("0*x*" + BIG, True, id="zero-poly-times-big"),
    pytest.param("(w-w)*" + BIG, True, id="computed-zero-times-big"),
    pytest.param("1*" + BIG, False, id="one-times-big"),  # 1 bit too many
    pytest.param("(" * DEEP + "6" + ")" * DEEP, True, id="nesting-at-bound"),
    pytest.param("(" * (DEEP + 1) + "6" + ")" * (DEEP + 1), False,
                 id="nesting-past-bound"),
    pytest.param("(" * DEEP + "x" + ")" * DEEP, True, id="x-nesting-at-bound"),
    pytest.param("-" * DEEP + "6", True, id="signs-at-bound"),
    pytest.param("-" * (DEEP + 1) + "6", False, id="signs-past-bound"),
    pytest.param(f"x^{MAX_EXPONENT}", True, id="x-power-at-bound"),
    pytest.param(f"x^{MAX_EXPONENT + 1}", False, id="x-power-past-bound"),
    pytest.param(f"2^{MAX_EXPONENT}", True, id="power-at-bound"),
    pytest.param(f"2^{MAX_EXPONENT + 1}", False, id="power-past-bound"),
    pytest.param("(x^8)^8*1", True, id="degree-at-bound"),
    pytest.param("x^64*x", False, id="degree-past-bound"),
    pytest.param("0^0", True, id="zero-to-zero"),
    pytest.param("0^0*x", True, id="zero-to-zero-times-x"),
])
def test_bounds_match_kpoly_oracle(text, accepted):
    assert_matches_oracle(text, -5)
    assert (outcome(parse.parse_kpoly, text, ring(-5))[0] == "value") \
        == accepted
