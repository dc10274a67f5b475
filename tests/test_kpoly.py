import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kelem_oracle import coords

from quadfactor.errors import DomainError, ResourceLimitError
from quadfactor.factor import factorizations
from quadfactor.kpoly import (KElem, KPoly, factor_k, factor_q, poly_gcd,
                              sqrt_in_field)
from quadfactor.parse import parse_kpoly
from quadfactor.qint import (MAX_ABS_D, _is_squarefree, canonical_associate,
                             is_irreducible, is_prime, order_key, ring,
                             try_div)


def P(text, d):
    return parse_kpoly(text, ring(d))


def E(u, v, d):
    return KElem.of(u, v, ring(d))


def test_kelem_arithmetic():
    x = E(Fraction(1, 2), Fraction(-1, 2), -5)
    y = E(2, 1, -5)
    assert x + y == E(Fraction(5, 2), Fraction(1, 2), -5)
    assert x * y == E(Fraction(1, 2) * 2 + 5 * Fraction(1, 2),
                      Fraction(1, 2) - 1, -5)
    assert x * x.conj() == E(Fraction(1, 4) + 5 * Fraction(1, 4), 0, -5)
    assert (x * x.inv()) == E(1, 0, -5)
    assert (y / y) == E(1, 0, -5)
    assert x.conj() == E(Fraction(1, 2), Fraction(1, 2), -5)
    with pytest.raises(DomainError):
        E(0, 0, -5).inv()


def test_kelem_integrality():
    # R is the den = 1 part of K; the functions of R refuse the rest
    cfg = ring(-5)
    assert E(3, -2, -5).is_integral() and E(3, -2, -5) == cfg.el(3, -2)
    assert not E(Fraction(1, 2), 0, -5).is_integral()
    # norm 1 off R is no unit of R
    assert not KElem(3, 4, ring(-1), 5).is_unit()
    half = E(Fraction(1, 2), Fraction(1, 2), -5)
    for call in (factorizations, is_prime, is_irreducible,
                 lambda z: try_div(z, cfg.el(1)),
                 lambda z: try_div(cfg.el(1), z)):
        with pytest.raises(DomainError, match=r"\(1\+w\)/2 is not in Z\[w\]"):
            call(half)


def test_kelem_str():
    assert str(E(Fraction(1, 2), 0, -5)) == "1/2"
    assert str(E(Fraction(-1, 2), Fraction(1, 2), -5)) == "(-1+w)/2"
    assert str(E(0, 2, -5)) == "2*w"
    assert str(E(Fraction(1, 3), Fraction(0), -5)) == "1/3"
    assert str(E(1, -1, -5)) == "1-w"


def test_canonical_associate_k():
    z = E(Fraction(-1, 2), Fraction(1, 2), -5)
    assert canonical_associate(z) == E(Fraction(1, 2), Fraction(-1, 2), -5)
    zi = E(0, Fraction(-3, 2), -1)
    assert canonical_associate(zi) == E(Fraction(3, 2), 0, -1)


def test_sqrt_in_field():
    assert sqrt_in_field(E(-3, 0, -3)) == E(0, 1, -3)
    assert sqrt_in_field(E(4, 0, -5)) == E(2, 0, -5)
    assert sqrt_in_field(E(-4, 0, -1)) == E(0, 2, -1)
    assert sqrt_in_field(E(4, 6, -5)) == E(3, 1, -5)
    assert sqrt_in_field(E(Fraction(9, 4), 0, -5)) == E(Fraction(3, 2), 0, -5)
    assert sqrt_in_field(E(0, 0, -5)) == E(0, 0, -5)
    assert sqrt_in_field(E(2, 0, -5)) is None
    assert sqrt_in_field(E(0, 1, -5)) is None
    assert sqrt_in_field(E(1, 1, -5)) is None
    rng = random.Random(5)
    for _ in range(200):
        z = E(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
              rng.choice((-1, -2, -3, -5, -14)))
        r = sqrt_in_field(z * z)
        assert r is not None and r * r == z * z


def test_sqrt_in_field_fractional_matches_oracle():
    # fractional inputs over every allowed d, about half of them squares
    # (of a general root, or of one with a zero coordinate), the rest
    # arbitrary or rational; the Fraction-based oracle must give the
    # same root, or None with it
    from sqrt_oracle import sqrt_in_field as oracle
    ds = [d for d in range(-1, -MAX_ABS_D - 1, -1) if _is_squarefree(-d)]
    assert len(ds) == 61
    rng = random.Random(21)

    def q():
        return Fraction(rng.randint(-40, 40), rng.randint(2, 12))

    checked = squares = 0
    for d in ds:
        for i in range(80):
            if i % 4 == 0:
                r = E(q(), q(), d)
            elif i % 4 == 1:
                r = E(*rng.choice([(q(), 0), (0, q())]), d)
            z = r * r if i % 4 < 2 else E(q(), q() if i % 4 == 2 else 0, d)
            if z.is_integral():
                continue
            got = sqrt_in_field(z)
            assert got == oracle(z), (d, z)
            checked += 1
            squares += got is not None
    assert checked > 4000 and 0.4 < squares / checked < 0.6


def test_poly_str():
    assert str(P("x^2+1", -5)) == "x^2+1"
    assert str(P("(1+w)*x", -5)) == "(1+w)*x"
    assert str(P("1/81*x^2+1", -3)) == "1/81*x^2+1"
    assert str(P("x^2-x", -5)) == "x^2-x"
    assert str(KPoly([], ring(-5))) == "0"
    # a negative composite constant keeps its parentheses, one after a
    # positive term does not need them
    for text, d in (("x^3-(1-w)", -5), ("-x^2+1-w", -5),
                    ("(-1+w)/2*x^2-x+(1-w)/2", -5),
                    ("-(1+w)*x^4+w*x^2-1", -3), ("-1", -5), ("-(2-w)", -5)):
        assert str(P(text, d)) == text
    assert str(P("x^5+0*x", -5)) == "x^5"


def test_divmod_property():
    rng = random.Random(6)
    for _ in range(200):
        d = rng.choice((-1, -3, -5, -14))
        cfg = ring(d)
        f = KPoly([E(rng.randint(-5, 5), rng.randint(-3, 3), d)
                   for _ in range(rng.randint(1, 6))], cfg)
        g = KPoly([E(rng.randint(-5, 5), rng.randint(-3, 3), d)
                   for _ in range(rng.randint(1, 4))], cfg)
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()
    # zero coefficients, denominators 2 and 3, deg f < deg g, constant g
    for _ in range(300):
        d = rng.choice((-1, -3, -5, -14))
        cfg = ring(d)

        def coeff():
            return KElem.of(Fraction(rng.choice((0, rng.randint(-5, 5))),
                                     rng.choice((1, 2, 3))),
                            Fraction(rng.choice((0, rng.randint(-3, 3))),
                                     rng.choice((1, 2, 3))), cfg)
        f = KPoly([coeff() for _ in range(rng.randint(0, 7))], cfg)
        g = KPoly([coeff() for _ in range(rng.randint(1, 4))], cfg)
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()
        if f.degree() < g.degree():
            assert q.is_zero() and r == f
        if g.degree() == 0:
            assert r.is_zero() and q == f.scale(g.lc().inv())


def test_poly_gcd():
    assert poly_gcd(P("x^2-1", -5), P("x^2+2*x+1", -5)) == P("x+1", -5)
    assert poly_gcd(P("x^2+1", -5), P("x+3", -5)) == P("1", -5)
    with pytest.raises(DomainError):
        poly_gcd(KPoly([], ring(-5)), KPoly([], ring(-5)))


def test_factor_q():
    unit, fs = factor_q(P("x^2+1", -1))
    assert unit == E(1, 0, -1) and fs == [P("x^2+1", -1)]
    unit, fs = factor_q(P("x^4-1", -5))
    assert fs == [P("x-1", -5), P("x+1", -5), P("x^2+1", -5)]
    unit, fs = factor_q(P("6*x^2+3*x", -5))
    assert unit == E(3, 0, -5)
    assert fs == [P("x", -5), P("2*x+1", -5)]
    unit, fs = factor_q(P("1/2*x^2-1/2", -5))
    assert unit == E(Fraction(1, 2), 0, -5)
    assert fs == [P("x-1", -5), P("x+1", -5)]
    # the guard degree 8: x^8-1 splits into cyclotomic factors, while
    # x^8+1 is irreducible over Q yet splits mod every prime, so the
    # lifted factors must be recombined to keep it whole
    unit, fs = factor_q(P("x^8-1", -5))
    assert fs == [P("x-1", -5), P("x+1", -5), P("x^2+1", -5), P("x^4+1", -5)]
    unit, fs = factor_q(P("x^8+1", -5))
    assert unit == E(1, 0, -5) and fs == [P("x^8+1", -5)]
    unit, fs = factor_q(P("(x^4-10*x^2+1)*(2*x-1)^2*(x^2+1)", -5))
    assert fs == [P("2*x-1", -5), P("2*x-1", -5), P("x^2+1", -5),
                  P("x^4-10*x^2+1", -5)]
    with pytest.raises(DomainError):
        factor_q(P("w*x+1", -5))
    with pytest.raises(DomainError):
        factor_q(KPoly([], ring(-5)))
    with pytest.raises(ResourceLimitError):
        factor_q(P("x^9+x+1", -5))


def test_factor_k_examples():
    unit, fs = factor_k(P("x^2+1", -1))
    assert unit == E(1, 0, -1)
    assert fs == [P("x-w", -1), P("x+w", -1)]
    unit, fs = factor_k(P("x^2+5", -5))
    assert fs == [P("x-w", -5), P("x+w", -5)]
    unit, fs = factor_k(P("x^2+x+1", -3))
    assert fs == [P("x+(1-w)/2", -3), P("x+(1+w)/2", -3)]
    unit, fs = factor_k(P("x^2+x+1", -5))
    assert fs == [P("x^2+x+1", -5)]
    unit, fs = factor_k(P("x^2+2*x+1", -5))
    assert fs == [P("x+1", -5), P("x+1", -5)]
    unit, fs = factor_k(P("2*x^2+2*x", -5))
    assert unit == E(2, 0, -5)
    assert fs == [P("x", -5), P("x+1", -5)]
    with pytest.raises(ResourceLimitError):
        factor_k(P("x^7+1", -5))


def test_factor_k_product_back():
    rng = random.Random(7)

    def rand_poly(d, n):
        return KPoly([E(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 2)), d)
                      for _ in range(n)], ring(d))

    for i in range(60):
        d = rng.choice((-1, -2, -3, -5, -14))
        # quadratics through sextics: dense ones, and products of two or
        # (for repeated factors) three smaller ones
        if i % 3 == 0:
            f = rand_poly(d, rng.randint(3, 7))
        elif i % 3 == 1:
            f = (rand_poly(d, rng.randint(2, 4))
                 * rand_poly(d, rng.randint(2, 4)))
        else:
            g = rand_poly(d, rng.randint(2, 3))
            f = g * g * rand_poly(d, rng.randint(1, 3))
        if f.is_zero() or f.degree() == 0:
            continue
        unit, fs = factor_k(f)
        prod = KPoly.const(unit)
        for g in fs:
            assert g.lc() == E(1, 0, d)
            prod = prod * g
        assert prod == f
        assert sum(g.degree() for g in fs) == f.degree()


def test_rational_factors_match_kronecker():
    # Kronecker's method, the Q[x] factorer before Zassenhaus, is the
    # oracle: same content, same factors, same order
    from kronecker_oracle import rational_factors
    from quadfactor.kpoly import factor_q
    rng = random.Random(41)
    cfg = ring(-5)
    repeated = 0
    for i in range(80):
        f = KPoly.from_rationals([Fraction(rng.choice((1, 2, 3, -6)),
                                           rng.randint(1, 3))], cfg)
        degree = rng.randint(1, 4)
        while f.degree() < degree:
            g = KPoly.from_rationals(
                [rng.randint(-4, 4) for _ in range(rng.randint(1, 2))]
                + [rng.choice((1, 1, 2, 3, -1))], cfg)
            f = f * g * g if i % 4 == 0 and g.degree() <= 2 else f * g
        if f.is_zero() or f.degree() > 4:
            continue
        got = factor_q(f)
        assert got == rational_factors(f), f
        repeated += len(set(got[1])) < len(got[1])
    assert repeated > 5


def test_factor_k_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from quadfactor.suite import CORE_RINGS
    x = sympy.Symbol("x")
    rng = random.Random(53)

    def monic_factors(f, d):
        """sympy's monic K[x]-factors of f, with multiplicity, each as its
        (u, v) coefficient pairs from the top down."""
        expr = sum((sympy.Rational(c.a) + sympy.Rational(c.b)
                    * sympy.sqrt(d)) / c.den * x ** i
                   for i, c in enumerate(f.coeffs))
        _, fl = sympy.Poly(expr, x, extension=sympy.sqrt(d)).factor_list()
        # a coefficient of QQ<sqrt(d)> lists its coordinates in sqrt(d)
        # from the top down: [v, u], [u] or []
        return [tuple(tuple(Fraction(int(q.numerator), int(q.denominator))
                            for q in reversed(([0, 0] + a.to_list())[-2:]))
                      for a in g.monic().rep.to_list())
                for g, m in fl for _ in range(m)]

    def rand_poly(d, n, hi):
        return KPoly([E(Fraction(rng.randint(-hi, hi), rng.randint(1, 2)),
                        rng.randint(-1, 1), d) for _ in range(n - 1)]
                     + [E(1, 0, d)], ring(d))

    # rational inputs first: the two products have quadratic Q-factors,
    # each split by its discriminant
    cases = [("(x^2+5)*(x^2+1)", -5), ("x^4+3*x^2+7", -14),
             ("(4*x^2+4*x+6)*(9*x^2+6*x+6)*(x^2+5)", -5),
             ("(x^2+1)*(x^2+w)", -5),
             ("(x^3+2)*(x^3+w)", -5), ("x^6+100*x^3+999", -5),
             ("((6+w)/3)+((-1-w)/2)*x+((-5-6*w)/3)*x^2+x^3", -86),
             ("((15+2*w)/3)+(3+2*w)*x+(-2+w)*x^2+(-4+w)*x^3", -89)]
    cases = [(P(t, d), d) for t, d in cases]
    for i in range(24):
        d = CORE_RINGS[i % len(CORE_RINGS)]
        if i % 2:
            f = rand_poly(d, rng.randint(2, 4), 3) * rand_poly(d, 3, 3)
        else:
            f = rand_poly(d, rng.randint(4, 7), 4)
        cases.append((f, d))
    split = 0
    for f, d in cases:
        got = [tuple(coords(c) for c in reversed(g.coeffs))
               for g in factor_k(f)[1]]
        assert sorted(got) == sorted(monic_factors(f, d)), f
        split += len(got) > 1
    assert split > 12


def test_quadratics_match_trager():
    # Trager's norm descent stays the oracle for the discriminant route
    from quadfactor.kpoly import _SHIFTS, _descent, _quadratic_factors
    from quadfactor.suite import CORE_RINGS
    rng = random.Random(31)
    split = 0
    for i in range(24):
        d = rng.choice(CORE_RINGS)
        cfg = ring(d)
        if i % 2:
            # a product of two monic linear factors, so that many split
            r1, r2 = (E(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                        Fraction(rng.randint(-1, 1), rng.randint(1, 2)), d)
                      for _ in range(2))
            h = KPoly([r1, E(1, 0, d)], cfg) * KPoly([r2, E(1, 0, d)], cfg)
        else:
            h = KPoly([E(rng.randint(-5, 5), rng.randint(-2, 2), d),
                       E(rng.randint(-5, 5), rng.randint(-2, 2), d),
                       E(1, 0, d)], cfg)
        if poly_gcd(h, h.derivative()).degree() > 0:
            continue
        got = _quadratic_factors(h)
        assert got == _descent(h, (0,) + _SHIFTS), h
        split += len(got) == 2
    assert split > 6


ALL_DS = [d for d in range(-1, -MAX_ABS_D - 1, -1) if _is_squarefree(-d)]


def test_kelem_matches_fraction_oracle():
    # the integer (a, b, den) form against the Fraction-based class it
    # replaced, on every ring: arithmetic, printing, canonical associates
    # and the sort order, with denominators mixed freely; on elements of
    # R (den = 1) also norm, is_unit, powers and try_div against
    # integer formulas
    import kelem_oracle as old
    rng = random.Random(61)
    assert len(ALL_DS) == 61

    def coord():
        return Fraction(rng.randint(-30, 30),
                        rng.choice((1, 1, 2, 3, 4, 6, 12)))

    def same(got, want):
        a, b, den = got.a, got.b, got.den
        assert den > 0 and math.gcd(a, b, den) == 1, repr(got)
        assert coords(got) == want.coords() and str(got) == str(want)
        assert got.is_integral() == want.is_integral()
        # one reduced form per element: equality and hash are structural
        rebuilt = KElem.of(*want.coords(), got.cfg)
        assert got == rebuilt and hash(got) == hash(rebuilt)

    for d in ALL_DS:
        cfg = ring(d)
        pairs = []
        for _ in range(40):
            u, v = coord(), coord() if rng.random() < 0.8 else 0
            pairs.append((KElem.of(u, v, cfg), old.KElem.of(u, v, cfg)))
        for _ in range(30):
            u, v = rng.randint(-6, 6), rng.randint(-3, 3)
            pairs.append((cfg.el(u, v), old.KElem.of(u, v, cfg)))
        for (x, ox), (y, oy) in zip(pairs, pairs[1:]):
            n = ox.normk()
            assert x.norm() == n and type(x.norm()) is (
                int if x.is_integral() else Fraction)
            assert x.is_unit() == (x.is_integral() and n == 1)
            opower = old.KElem.of(1, 0, cfg)
            for k in range(4):
                same(x ** k, opower)
                opower = opower * ox
            if x.is_integral() and y.is_integral() and not y.is_zero():
                a, b, c, e = x.a, x.b, y.a, y.b
                m = c * c - d * e * e
                ta, tb = a * c - d * b * e, b * c - a * e
                want = None if ta % m or tb % m else cfg.el(ta // m,
                                                           tb // m)
                assert try_div(x, y) == want
                assert try_div(x * y, y) == x
            same(x, ox)
            same(x + y, ox + oy)
            same(x - y, ox - oy)
            same(x * y, ox * oy)
            same(-x, -ox)
            same(x.conj(), ox.conj())
            same(canonical_associate(x), old.canonical_associate(ox))
            assert coords(x * x.conj()) == (ox.normk(), 0)
            if not y.is_zero():
                same(y.inv(), oy.inv())
                same(x / y, ox / oy)
        news = [z for p in pairs for z in (p[0], canonical_associate(p[0]))]
        olds = [z for p in pairs
                for z in (p[1], old.canonical_associate(p[1]))]
        assert [order_key(z) for z in news] == \
            [old.order_key(z) for z in olds]
        assert sorted(range(len(news)), key=lambda i: order_key(news[i])) \
            == sorted(range(len(olds)), key=lambda i: old.order_key(olds[i]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_DS),
       st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60),
                          st.integers(1, 40)), max_size=6))
def test_parse_round_trip_fractional(d, coeffs):
    cfg = ring(d)
    f = KPoly([KElem(a, b, cfg, den) for a, b, den in coeffs], cfg)
    assert parse_kpoly(str(f), cfg) == f


def test_cli_fractional_output_pinned(capsys):
    # kfactor, poly-factor, poly-elasticity, irr, d1, d2-demo, gamma-check
    # and psp-check on inputs or outputs with denominators, stdout and
    # stderr recorded before KElem held integers over one denominator
    from quadfactor.cli import main
    path = pathlib.Path(__file__).with_name("kpoly_pinned.jsonl")
    cases = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(cases) == 103
    for case in cases:
        assert main(case["argv"]) == case["code"], case["argv"]
        out = capsys.readouterr()
        assert (out.out, out.err) == (case["stdout"], case["stderr"]), \
            case["argv"]
