import itertools
import json
import math
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kelem_oracle import coords

from quadfactor.errors import DomainError, ResourceLimitError
from quadfactor.ideals import (content_ideal, gauss_product_check,
                               is_primitive, is_superprimitive)
from quadfactor.kpoly import KElem, KPoly, factor_k
from quadfactor.parse import parse_rpoly
from quadfactor.qint import (_coords_key, _is_squarefree, _lattice_walk,
                             _twice_sqrt, check_integral,
                             common_nonunit_divisor, elements_of_norm,
                             is_irreducible, ring, units)
from quadfactor.rpoly import (WITNESS_MAX_CANDIDATES, _linear_leads,
                              _quad_splits_in_rx, _splits, _witness_count,
                              canonical_poly, factorizations_rx,
                              is_irreducible_rx, lambda_candidates,
                              property_p_witness)


def RP(text, d):
    return parse_rpoly(text, ring(d))


def RX(vals, cfg):
    """The polynomial of R[x] with integer coefficients vals, low first."""
    return KPoly.from_rationals(vals, cfg)


def E(u, v, d):
    return KElem.of(u, v, ring(d))


def test_rpoly_basics():
    cfg = ring(-5)
    f = RX([1, 2, 1], cfg)
    g = KPoly([cfg.el(1, 1)], cfg)
    assert (f * g).coeffs == KPoly(
        [cfg.el(1, 1), cfg.el(2, 2), cfg.el(1, 1)], cfg).coeffs
    assert f.try_scale_div(cfg.el(2)) is None
    assert RX([2, 4], cfg).try_scale_div(cfg.el(2)) == RX([1, 2], cfg)
    assert str(RP("2*x+1-w", -5)) == "2*x+1-w"
    assert canonical_poly(RX([0, -3], cfg)) == RX([0, 3], cfg)
    assert f + g - f == KPoly([cfg.el(1, 1)], cfg)
    assert (f - f).is_zero() and -g == KPoly([cfg.el(-1, -1)], cfg)
    assert repr(g) == "KPoly(1+w, d=-5)"


def test_from_kpoly_rejects_fractions():
    # (x+1)/2 is a polynomial of K[x] but not of R[x]
    bad = RP("x+1", -5).scale(E(Fraction(1, 2), 0, -5))
    assert not bad.is_integral()
    with pytest.raises(DomainError):
        check_integral(bad.coeffs)
    with pytest.raises(DomainError):
        factorizations_rx(bad)


def test_rpoly_rejects_fractions_where_built():
    # 2x + 2/3 is no polynomial of R[x]; is_primitive, which reads
    # numerators only, refuses it rather than answer for 2x + 2
    cfg = ring(-5)
    f = KPoly([KElem(2, 0, cfg, 3), cfg.el(2)], cfg)
    msg = r"coefficient of x\^0 is 2/3, not in Z\[w\]"
    with pytest.raises(DomainError, match=msg):
        check_integral(f.coeffs)
    with pytest.raises(DomainError, match=msg):
        is_primitive(f)


def test_rx_functions_check_membership():
    # polynomials of K[x] outside R[x]: each function that needs R[x]
    # refuses them, naming the first coefficient outside Z[w]
    cfg = ring(-5)
    good = RP("(1+w)*x+2", -5)
    bad = ((KPoly([KElem(2, 0, cfg, 3), cfg.el(2)], cfg), "x^0 is 2/3"),
           (KPoly([cfg.el(0), KElem(1, 1, cfg, 2)], cfg), "x^1 is (1+w)/2"),
           (RP("x+1", -5).scale(E(Fraction(1, 2), 0, -5)), "x^0 is 1/2"))
    checks = (is_irreducible_rx, factorizations_rx, is_primitive,
              is_superprimitive, content_ideal,
              lambda f: gauss_product_check(f, good),
              lambda f: gauss_product_check(good, f),
              lambda f: parse_rpoly(str(f), cfg))
    for f, where in bad:
        msg = re.escape(f"coefficient of {where}, not in Z[w]")
        for check in checks:
            with pytest.raises(DomainError, match=msg):
                check(f)
    # an integral KPoly built directly answers as the parsed input
    for built, text in ((KPoly([cfg.el(2), cfg.el(1, 1)], cfg), "(1+w)*x+2"),
                        (RX([6, 0, 6], cfg), "6*x^2+6"),
                        (KPoly([cfg.el(1, 1), cfg.el(0, 1), cfg.el(2)], cfg),
                         "2*x^2+w*x+1+w")):
        parsed = RP(text, -5)
        assert built == parsed and str(built) == text
        for check in (is_irreducible_rx, is_primitive, is_superprimitive,
                      content_ideal):
            assert check(built) == check(parsed), (text, check)
        assert factorizations_rx(built).factorizations == \
            factorizations_rx(parsed).factorizations
    assert gauss_product_check(KPoly([cfg.el(2), cfg.el(1, 1)], cfg),
                               good) is False


def test_constant_splits_have_irreducible_g():
    # the memo discards every split whose g is reducible, so _splits
    # offers a constant g only when it is irreducible; the certificate
    # is still the common divisor of least norm
    cases = (("81*x", -14), ("36*x^2+36", -5), ("8*x+8", -3), ("16*x", -1),
             ("(4+4*w)*x+8", -2), ("30", -5))
    for text, d in cases:
        f = RP(text, d)
        consts = [c.g.coeffs[0] for c in _splits(f, tuple(factor_k(f)[1]))
                  if not c.subset]
        assert consts and all(map(is_irreducible, consts)), text
        cert = is_irreducible_rx(f)[1]
        assert cert.subset == () and cert.g.coeffs[0] == consts[0] == \
            common_nonunit_divisor(list(f.coeffs)), text


def test_constant_splits_take_no_irreducibility_probe(monkeypatch):
    # a constant g of _splits is irreducible in R, so in R[x]: factoring a
    # nonconstant input calls the memo on no constant key, yet still
    # finds the factorizations that start with a constant
    from quadfactor import rpoly
    calls, memo = [], rpoly._poly_multisets

    def counted(f, ks):
        calls.append(f.degree())
        return memo(f, ks)

    monkeypatch.setattr(rpoly, "_poly_multisets", counted)
    for text, d in (("81*x", -14), ("36*x^2+36", -5), ("(4+4*w)*x+8", -2)):
        memo.cache_clear()
        calls.clear()
        fs = factorizations_rx(RP(text, d)).factorizations
        assert calls and 0 not in calls, text
        assert any(m[0].degree() == 0 for m in fs), text


def test_certificate_takes_one_divisor_scan(monkeypatch, capsys):
    # 720 has 122 canonical divisors at d = -5; the certificate is the
    # first irreducible of one divisor scan of the coefficients
    from quadfactor import cli, qint
    scan, calls = qint._divisor_scan, []

    def counting(elems):
        calls.append(elems)
        return scan(elems)

    monkeypatch.setattr(qint, "_divisor_scan", counting)
    assert cli.main(["--d", "-5", "irr", "720*x+720"]) == 0
    assert capsys.readouterr().out == (
        '{"poly": "720*x+720", "d": -5, "irreducible": false, '
        '"certificate": {"subset": [], "lambda": "2", "g": "2", '
        '"h": "360*x+360"}}\n')
    assert len(calls) == 1


def test_lambda_candidates_exact():
    # splitting x^2+x+1 over Z[sqrt(-3)]: neither half can be rescaled in
    g0, g1 = factor_k(RP("x^2+x+1", -3))[1]
    assert lambda_candidates(g0, g1) == []
    # 2x+1+w = 2 * (x + (1+w)/2): lam = 2 pulls the factor into R[x]
    unit, ks = factor_k(RP("2*x+1+w", -3))
    assert lambda_candidates(ks[0], KPoly.const(unit)) == [E(2, 0, -3)]
    # x^2+x+3/2 with cofactor 2 over Z[sqrt(-5)]: roots (-1±w)/2, so the
    # monic part splits over K; only lam = 2 rescales it into R[x]
    unit5, ks5 = factor_k(RP("2*x^2+2*x+3", -5))
    assert len(ks5) == 2
    assert lambda_candidates(ks5[0] * ks5[1], KPoly.const(unit5)) == \
        [E(2, 0, -5)]
    # no lam fits both halves here
    g = RP("x+1", -5).scale(E(Fraction(1, 2), Fraction(1, 2), -5)) \
        + RP("x", -5).scale(E(Fraction(1, 2), Fraction(-1, 2), -5))
    assert str(g) == "x+(1+w)/2"
    h = RP("2*x+1-w", -5)
    assert lambda_candidates(g, h) == []
    with pytest.raises(DomainError):
        lambda_candidates(KPoly([], ring(-5)), h)
    # x * 1/2 is not in R[x], so no rescaling pulls both halves in
    half = KPoly.const(E(Fraction(1, 2), 0, -5))
    assert lambda_candidates(RP("x", -5), half) == []


def test_lambda_candidates_match_ball_walk():
    # every grouping of seeded products, rescaled by a small constant
    # so g0 may be non-monic or have a non-integral leading coefficient
    import lambda_oracle
    from quadfactor.rpoly import _groupings
    from quadfactor.suite import CORE_RINGS
    rng = random.Random(33)
    scales = [(1, 0), (2, 0), (Fraction(1, 2), 0), (1, 1),
              (Fraction(1, 3), Fraction(-1, 3)), (0, 1), (3, -1)]

    def small(cfg, deg):
        return KPoly([cfg.el(rng.randint(-3, 3), rng.randint(-1, 1))
                      for _ in range(deg)] + [cfg.el(rng.randint(1, 3),
                                                     rng.randint(-1, 1))],
                     cfg)

    # irreducible in R[x] but split in K[x]: groupings with no lam
    witnesses = {-3: "x^2+x+1", -5: "2*x^2+2+w"}
    cases = nonempty = fractional_lc = repeated = 0
    for i in range(90):
        d = CORE_RINGS[i % len(CORE_RINGS)]
        cfg = ring(d)
        a = small(cfg, 1)
        if i % 3 == 0:
            f = a * a
        elif i % 3 == 1 and d in witnesses:
            f = a * RP(witnesses[d], d)
        else:
            f = a * small(cfg, rng.randint(1, 2))
        if rng.random() < 0.3:
            f = f.scale(cfg.el(rng.randint(2, 3), rng.randint(0, 1)))
        unit, ks = factor_k(f)
        repeated += len(set(ks)) < len(ks)
        for subset, g0, h0 in _groupings(tuple(ks), unit):
            t = KElem.of(*rng.choice(scales), cfg)
            g0, h0 = g0.scale(t), h0.scale(t.inv())
            got = lambda_candidates(g0, h0)
            assert got == lambda_oracle.lambda_candidates(g0, h0), (f, subset)
            cases += 1
            nonempty += bool(got)
            fractional_lc += not g0.lc().is_integral()
    assert cases > 100 and 30 < nonempty < cases - 10
    assert fractional_lc > 20 and repeated > 20


def test_is_irreducible_rx():
    cfg = ring(-14)
    ok, cert = is_irreducible_rx(RP("81*x", -14))
    assert not ok
    assert cert.g == RX([3], cfg) and cert.h == RP("27*x", -14)
    assert cert.subset == ()
    ok, cert = is_irreducible_rx(RP("x^2+5", -5))
    assert not ok
    assert cert.g * cert.h == RP("x^2+5", -5)
    # certificates compare and hash by their fields
    again = is_irreducible_rx(RP("x^2+5", -5))[1]
    assert again is not cert and again == cert and len({cert, again}) == 1
    assert is_irreducible_rx(RP("x^2+x+1", -5)) == (True, None)
    assert is_irreducible_rx(RP("x", -5)) == (True, None)
    assert is_irreducible_rx(RP("2*x^2+2+w", -5)) == (True, None)
    # content divisors over Z[sqrt(-3)]: 1+w sorts before 2 at norm 4
    ok, cert = is_irreducible_rx(RP("4*x^2+4*x+4", -3))
    assert not ok and cert.g == KPoly([ring(-3).el(1, 1)], ring(-3))
    assert cert.g * cert.h == RP("4*x^2+4*x+4", -3)
    # constants delegate to element irreducibility
    assert is_irreducible_rx(RX([3], cfg)) == (True, None)
    ok, cert = is_irreducible_rx(RX([6], ring(-5)))
    assert not ok
    prod = cert.g * cert.h
    assert prod == RX([6], ring(-5))


def test_guards():
    cfg = ring(-5)
    with pytest.raises(DomainError):
        is_irreducible_rx(KPoly([], cfg))
    with pytest.raises(DomainError):
        is_irreducible_rx(RX([1], cfg))
    with pytest.raises(ResourceLimitError):
        is_irreducible_rx(RP("x^7+1", -5))
    with pytest.raises(ResourceLimitError):
        factorizations_rx(RX([10 ** 4, 1], cfg))


def test_factorizations_rx():
    fs = factorizations_rx(RP("x^2+5", -5))
    assert {tuple(str(g) for g in m) for m in fs.factorizations} == \
        {("x-w", "x+w")}
    assert fs.lengths() == [2]
    assert fs.elasticity() == 1
    fs = factorizations_rx(RP("x", -5))
    assert {tuple(str(g) for g in m) for m in fs.factorizations} == {("x",)}
    # constant polynomials reuse element factorizations
    fs = factorizations_rx(RX([6], ring(-5)))
    assert {tuple(str(g) for g in m) for m in fs.factorizations} == \
        {("2", "3"), ("1-w", "1+w")}


def test_rx_factorizations_multiply_back():
    # nothing in factorizations_rx multiplies a factorization back, so
    # check that each one is a unit multiple of its input, on seeded
    # products of one to three factors of degree <= 2
    rng = random.Random(39)
    for _ in range(560):
        cfg = ring(rng.choice((-1, -2, -3, -5, -6, -7, -14, -15)))
        f = RX([1], cfg)
        for _ in range(rng.randint(1, 3)):
            f = f * KPoly([cfg.el(rng.randint(-3, 3), rng.randint(-2, 2))
                           for _ in range(rng.randint(1, 3))], cfg)
        if f.is_zero() or f.is_unit():
            continue
        for m in factorizations_rx(f).factorizations:
            prod = RX([1], cfg)
            for g in m:
                prod = prod * g
            assert any(prod.scale(u) == f for u in units(cfg)), (f, m)


def test_factorizations_81x():
    fs = factorizations_rx(RP("81*x", -14))
    assert fs.lengths() == [3, 5]
    assert fs.elasticity() == Fraction(5, 3)
    for m in fs.factorizations:
        prod = RX([1], ring(-14))
        for g in m:
            assert is_irreducible_rx(g)[0]
            prod = prod * g
        assert canonical_poly(prod) == RP("81*x", -14)


def test_property_p_witnesses():
    assert property_p_witness(ring(-3), 20, 2) == RP("x^2+x+1", -3)
    assert property_p_witness(ring(-5), 20, 2) == RP("2*x^2+2+w", -5)
    assert property_p_witness(ring(-6), 20, 2) == RP("2*x^2+3", -6)
    assert property_p_witness(ring(-1), 20, 2) is None
    assert property_p_witness(ring(-2), 20, 2) is None
    for d in (-3, -5, -6):
        wit = property_p_witness(ring(d), 20, 2)
        assert is_irreducible_rx(wit)[0]
        assert len(factor_k(wit)[1]) == 2
        assert is_primitive(wit)
    with pytest.raises(DomainError):
        property_p_witness(ring(-5), 0, 2)
    with pytest.raises(ResourceLimitError):
        property_p_witness(ring(-5), 20, 3)


def test_quadratic_shortcut_matches_generic():
    rng = random.Random(14)
    checked = 0
    for _ in range(150):
        d = rng.choice((-1, -2, -3, -5, -6, -14))
        cfg = ring(d)
        f = KPoly([cfg.el(rng.randint(-4, 4), rng.randint(-2, 2)),
                   cfg.el(rng.randint(-4, 4), rng.randint(-2, 2)),
                   cfg.el(rng.randint(-4, 4), rng.randint(-2, 2))], cfg)
        if f.degree() != 2:
            continue
        if common_nonunit_divisor(list(f.coeffs)) is not None:
            continue
        c0, c1, c2 = f.coeffs
        t = _twice_sqrt(*coords(c1 * c1 - c2 * c0 * cfg.el(4)), d)
        splits = t is not None and _quad_splits_in_rx(
            (c2.a, c2.b), (c1.a, c1.b), t, _linear_leads(c2), d)
        assert is_irreducible_rx(f)[0] == (not splits)
        checked += 1
    assert checked > 50


def test_quadratic_test_matches_field_oracle():
    # every quadratic with coefficients of norm <= 8: the integer test
    # and the Fraction-based one agree on "square?", on the root up to
    # sign, and on "splits in R[x]?"
    import witness_oracle
    from quadfactor.suite import CORE_RINGS
    squares = splits = 0
    for d in CORE_RINGS + (-13, -43):
        cfg = ring(d)
        elems = [cfg.el(a, b) for a in range(-2, 3) for b in range(-2, 3)
                 if a * a - d * b * b <= 8]
        for c2, c1, c0 in itertools.product(elems, repeat=3):
            if c2.is_zero():
                continue
            s = witness_oracle.quad_disc_sqrt(c2, c1, c0)
            t = _twice_sqrt(*coords(c1 * c1 - c2 * c0 * cfg.el(4)), d)
            assert (t is None) == (s is None), (d, c2, c1, c0)
            if t is None:
                continue
            assert KElem.of(*t, cfg) in (s + s, -(s + s)), (d, c2, c1, c0)
            got = _quad_splits_in_rx((c2.a, c2.b), (c1.a, c1.b), t,
                                     _linear_leads(c2), d)
            assert got == witness_oracle.quad_splits_in_rx(c2, c1, s), \
                (d, c2, c1, c0)
            squares += 1
            splits += got
    assert squares > 1000 and 100 < splits < squares - 100


@st.composite
def _discriminants(draw):
    d = draw(st.sampled_from([d for d in range(-1, -101, -1)
                              if _is_squarefree(-d)]))
    big = st.integers(-10 ** 9, 10 ** 9)
    if draw(st.booleans()):
        return d, draw(big), draw(big)
    # a square times a small factor, so that roots occur often
    p, q = draw(st.integers(-3000, 3000)), draw(st.integers(-3000, 3000))
    m = draw(st.sampled_from([1, -1, 2, 3, d, -d, 2 * d]))
    return d, m * (p * p + d * q * q), m * 2 * p * q


@settings(max_examples=400, deadline=None)
@given(_discriminants())
def test_twice_sqrt_matches_sqrt_in_field(case):
    from sqrt_oracle import sqrt_in_field
    d, a, b = case
    cfg = ring(d)
    s = sqrt_in_field(KElem.of(a, b, cfg))
    t = _twice_sqrt(a, b, d)
    assert (t is None) == (s is None)
    if t is not None:
        assert KElem.of(*t, cfg) in (s + s, -(s + s))


def test_witness_budget(monkeypatch):
    from quadfactor import rpoly
    cfg = ring(-1)
    leads = sum(len(elements_of_norm(n, cfg)) for n in range(1, 11))
    coeffs = sum(a * a + b * b <= 10
                 for a in range(-3, 4) for b in range(-3, 4))
    total = leads * coeffs ** 2
    monkeypatch.setattr(rpoly, "WITNESS_MAX_CANDIDATES", total)
    assert property_p_witness(cfg, 10, 2) is None
    monkeypatch.setattr(rpoly, "WITNESS_MAX_CANDIDATES", total - 1)
    with pytest.raises(ResourceLimitError):
        property_p_witness(cfg, 10, 2)
    # a witness beyond the budget raises, one inside it is found
    monkeypatch.setattr(rpoly, "WITNESS_MAX_CANDIDATES", 1)
    with pytest.raises(ResourceLimitError):
        property_p_witness(ring(-3), 20, 2)
    monkeypatch.setattr(rpoly, "WITNESS_MAX_CANDIDATES", 10 ** 4)
    assert property_p_witness(ring(-3), 20, 2) == RP("x^2+x+1", -3)


@pytest.mark.parametrize("d, bound", [(-1, 18), (-2, 19)])
def test_witness_square_test_once_per_c1_squared(monkeypatch, d, bound):
    # no witness exists, so every row is scanned; _twice_sqrt runs once
    # per orbit representative: the lead comes no later than its
    # conjugate class, c1 no later than -c1 (and than +-i*c1 at d = -1),
    # and c0 is 0 or of norm no smaller than the lead's.  "Later" is read
    # off the walk's positions, not off the closed form of the scan
    from quadfactor import rpoly
    calls, twice_sqrt = [], rpoly._twice_sqrt

    def counted(*args):
        calls.append(args)
        return twice_sqrt(*args)

    monkeypatch.setattr(rpoly, "_twice_sqrt", counted)
    assert property_p_witness(ring(d), bound, 2) is None
    k = math.isqrt(bound)

    def norm(p):
        return p[0] * p[0] - d * p[1] * p[1]

    coeffs = sorted(((a, b) for a in range(-k, k + 1)
                     for b in range(-k, k + 1) if norm((a, b)) <= bound),
                    key=lambda p: (norm(p), _coords_key(p)))
    pos = {p: i for i, p in enumerate(coeffs)}

    def images(p):
        a, b = p
        return [(-a, -b)] + ([(-b, a), (b, -a)] if d == -1 else [])

    def first(p):
        return min([p] + images(p), key=pos.__getitem__)

    rows = sum(all(pos[q] >= pos[c1] for q in images(c1)) for c1 in coeffs)
    reps = 0
    for lead in coeffs:
        if lead == (0, 0) or first(lead) != lead or \
                pos[first((lead[0], -lead[1]))] < pos[lead]:
            continue
        reps += rows * sum(c0 == (0, 0) or norm(c0) >= norm(lead)
                           for c0 in coeffs)
    assert len(calls) == reps


def test_witness_matches_unpruned_search():
    # every squarefree ring at bounds 1-16: the same first witness, or
    # None, as the search that tests every candidate
    import witness_oracle
    from test_kpoly import ALL_DS
    found = 0
    for d in ALL_DS:
        for bound in range(1, 17):
            want = witness_oracle.property_p_witness(ring(d), bound)
            assert property_p_witness(ring(d), bound, 2) == want, (d, bound)
            found += want is not None
    assert found > 100


@pytest.mark.parametrize("d, bound", [(-1, 5), (-2, 6), (-3, 4), (-5, 9),
                                      (-7, 4)])
def test_witness_budget_matches_unpruned_search(monkeypatch, d, bound):
    # every budget from 0 to past the full count: skipped candidates
    # count, so both searches return the same witness or both raise
    import witness_oracle
    from quadfactor import rpoly

    def outcome(search, *args):
        try:
            return search(*args)
        except ResourceLimitError:
            return "exceeds budget"

    cfg = ring(d)
    leads = sum(len(elements_of_norm(n, cfg)) for n in range(1, bound + 1))
    full = leads * _witness_count(cfg, bound) ** 2
    raised = 0
    for budget in range(full + 2):
        monkeypatch.setattr(rpoly, "WITNESS_MAX_CANDIDATES", budget)
        want = outcome(witness_oracle.property_p_witness, cfg, bound)
        assert outcome(property_p_witness, cfg, bound, 2) == want, budget
        raised += want == "exceeds budget"
    assert 0 < raised < full + 2


def test_cli_witness_budget(capsys):
    from quadfactor.cli import main
    assert main(["--d", "-1", "--norm-bound", "40", "witness-p"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["witness"] is None and err == ""
    assert main(["--d", "-1", "--norm-bound", "80", "witness-p"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "resource"


def test_witness_coeffs_order_and_cap():
    # 0 and the nonzero elements by (norm, assoc_key); _witness_count,
    # which checks the budget before any of them is listed, counts them
    from test_kpoly import ALL_DS
    for d in (-1, -5, -97):
        points = sorted(((a, b) for a in range(-30, 31)
                         for b in range(-30, 31)
                         if a * a - d * b * b <= 900),
                        key=lambda p: (p[0] * p[0] - d * p[1] * p[1],
                                       _coords_key(p)))
        assert _lattice_walk(ring(d), 900) == points
    for d in ALL_DS:
        cfg = ring(d)
        for bound in (1, 2, 3, 4, 10, 99, 100, 101, 2000):
            assert _witness_count(cfg, bound) == \
                len(_lattice_walk(cfg, bound)), (d, bound)
        # property_p_witness clamps its count at this norm, which alone
        # outnumbers the budget
        assert _witness_count(cfg, 2 * -d * (WITNESS_MAX_CANDIDATES + 1)) \
            > WITNESS_MAX_CANDIDATES, d
    # the first row, x^2 + c0 (lead 1, c1 = 0), where the budget runs
    # out when the coefficients outnumber it, holds no witness: every
    # c0 whose discriminant -4*c0 is a square splits in R[x]
    squares = 0
    for d in ALL_DS:
        cfg = ring(d)
        lams = _linear_leads(cfg.el(1))
        for a, b in _lattice_walk(cfg, 2000):
            t = _twice_sqrt(-4 * a, -4 * b, d)
            if t is None:
                continue
            squares += 1
            if not _quad_splits_in_rx((1, 0), (0, 0), t, lams, d):
                f = KPoly([cfg.el(a, b), cfg.el(0), cfg.el(1)], cfg)
                assert not is_irreducible_rx(f)[0], f
    assert squares > 600


def test_cli_witness_large_bounds(capsys):
    # the budget, not the norm bound, sets the work: each exits 4, a
    # norm bound of 10^30 included, and a witness found early is found
    # as before
    from quadfactor.cli import main
    for d, bound in ((-5, 10 ** 8), (-97, 3 * 10 ** 6), (-5, 10 ** 30),
                     (-97, 10 ** 30)):
        assert main(["--d", str(d), "--norm-bound", str(bound),
                     "witness-p"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"]["type"] == "resource"
    assert main(["--d", "-3", "--norm-bound", "10000", "witness-p"]) == 0
    assert capsys.readouterr().out == (
        '{"d": -3, "norm_bound": 10000, "deg_bound": 2, '
        '"witness": "x^2+x+1"}\n')


def test_cli_witness_p_pinned(capsys):
    # stdout of witness-p at --norm-bound 20 for every squarefree d in
    # [-100, -1], as the Fraction-based scan printed it
    from quadfactor.cli import main
    path = pathlib.Path(__file__).with_name("witness_p_norm20.jsonl")
    expected = path.read_text().splitlines(keepends=True)
    assert len(expected) == 61
    for line in expected:
        d = json.loads(line)["d"]
        assert main(["--d", str(d), "--norm-bound", "20", "witness-p"]) == 0
        assert capsys.readouterr().out == line


def test_split_search_matches_oracle(monkeypatch):
    import functools

    import rx_oracle
    from quadfactor import rpoly
    from quadfactor.suite import CORE_RINGS
    # factor_k is pure; sharing its results keeps the oracle's repeated
    # K[x] factorizations from dominating the run time
    shared = functools.lru_cache(maxsize=None)(factor_k)
    monkeypatch.setattr(rpoly, "factor_k", shared)
    monkeypatch.setattr(rx_oracle, "factor_k", shared)
    rng = random.Random(21)

    def linear(cfg):
        return KPoly([cfg.el(rng.randint(-3, 3), rng.randint(-1, 1))
                      for _ in range(rng.randint(1, 2))], cfg)

    def check(f):
        fs = factorizations_rx(f).factorizations
        assert fs == rx_oracle.poly_multisets(canonical_poly(f)), f
        assert is_irreducible_rx(f) == rx_oracle.is_irreducible_rx(f), f
        # _splits builds each g canonical, so the memo takes it as is
        assert all(canonical_poly(c.g) == c.g for c in _splits(f, None)), f
        return fs

    checked = 0
    while checked < 60:
        cfg = ring(rng.choice(CORE_RINGS))
        f = linear(cfg) * linear(cfg)
        if f.is_zero() or f.is_unit():
            continue
        check(f)
        checked += 1
    # a Property-P witness times two small factors: splits whose g has
    # two K[x]-factors and is irreducible in R[x]
    witnesses = ((-3, "x^2+x+1"), (-5, "2*x^2+2+w"), (-6, "2*x^2+3"))
    checked = reached = 0
    while checked < 45:
        d, text = witnesses[checked % 3]
        f = RP(text, d) * linear(ring(d)) * linear(ring(d))
        if f.is_zero():
            continue
        fs = check(f)
        reached += any(len(factor_k(g)[1]) == 2
                       for m in fs for g in m)
        checked += 1
    assert reached == checked


@pytest.mark.parametrize("d, text, count, lengths", [
    (-5, "(2*x+1+w)*(2*x+1-w)*(3*x+1+w)*(3*x+1-w)*(x^2+5)", 60, [6]),
    (-3, "(2*x+1+w)*(3*x+1+w)*(3*x+1+w)*(3*x+3)*(x-w)*(2)", 3, [8]),
    (-5, "(3*x+1-w)*(2)*(3*x+1+w)*(x^2+1)*(2*x+1-w)*(3)", 77, [6]),
])
def test_heavy_inputs_match_oracle(monkeypatch, d, text, count, lengths):
    # each factorization is built once, from its least atom, on inputs
    # where most splits are reached from more than one factorization
    import functools

    import rx_oracle
    from quadfactor import rpoly
    shared = functools.lru_cache(maxsize=None)(factor_k)
    monkeypatch.setattr(rpoly, "factor_k", shared)
    monkeypatch.setattr(rx_oracle, "factor_k", shared)
    f = RP(text, d)
    fs = factorizations_rx(f)
    assert fs.factorizations == rx_oracle.poly_multisets(canonical_poly(f))
    assert len(fs.factorizations) == count and fs.lengths() == lengths


def test_rx_memo_entries_hold_each_factorization_once(monkeypatch):
    # an entry is a tuple, so nothing merges a factorization built twice:
    # every entry filled for the inputs compared with rx_oracle above and
    # for the four heavy benchmark inputs has distinct tuples
    from quadfactor import rpoly
    memo, entries = rpoly._poly_multisets, {}

    def recording(f, ks):
        fs = memo(f, ks)
        entries[id(fs)] = fs
        return fs

    memo.cache_clear()
    monkeypatch.setattr(rpoly, "_poly_multisets", recording)
    test_split_search_matches_oracle(monkeypatch)
    for d, text in (
            (-5, "(2*x+1+w)*(2*x+1-w)*(3*x+1+w)*(3*x+1-w)*(x^2+5)"),
            (-3, "(2*x+1+w)*(3*x+1+w)*(3*x+1+w)*(3*x+3)*(x-w)*(2)"),
            (-5, "(3*x+1-w)*(2)*(3*x+1+w)*(x^2+1)*(2*x+1-w)*(3)"),
            (-5, "(7)*(x-w)*(x^2+w)*(w)*(x-1)*(3*x+3)")):
        factorizations_rx(RP(text, d))
    assert len(entries) > 500
    assert all(len(set(fs)) == len(fs) for fs in entries.values())


def test_factor_k_runs_once_per_call(monkeypatch):
    from quadfactor import rpoly
    calls = []

    def counted(f):
        calls.append(f)
        return factor_k(f)

    monkeypatch.setattr(rpoly, "factor_k", counted)
    f = RP("(x+1)*(x+2)*(x+3)", -5)
    assert factorizations_rx(f).lengths() == [3]
    assert len(calls) == 1
    calls.clear()
    assert is_irreducible_rx(f)[0] is False
    assert len(calls) == 1
    # a constant split certifies reducibility before K[x] is needed
    calls.clear()
    assert is_irreducible_rx(RP("2*(x+1)*(x+2)*(x+3)", -5))[1].g == \
        RX([2], ring(-5))
    assert calls == []
