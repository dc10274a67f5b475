import random
from fractions import Fraction

import pytest

from quadfactor.errors import DomainError, ResourceLimitError
from quadfactor.extring import (D2WitnessReport, ExtElem, d1_classify,
                                d1_factorizations, d2_is_irreducible,
                                d2_witness_verify)
from quadfactor.kpoly import KElem, KPoly
from quadfactor.parse import parse_kpoly
from quadfactor.qint import ring


def D1(text, d):
    return ExtElem(parse_kpoly(text, ring(d)), "D1")


def D2(text, d):
    return ExtElem(parse_kpoly(text, ring(d)), "D2")


def test_membership():
    # constant term must lie in Z[w]; higher coefficients may be any
    # field element
    g = D1("1/3*w*x^2+2*x+1", -5)
    assert str(g) == "w/3*x^2+2*x+1"
    with pytest.raises(DomainError) as exc:
        D1("x+1/2", -5)
    assert "x^0" in str(exc.value)
    # D2 constrains the linear coefficient as well
    D2("1/4*x^2+2*x+1", -5)
    with pytest.raises(DomainError) as exc:
        D2("1/2*x+1", -5)
    assert "x^1" in str(exc.value)
    with pytest.raises(DomainError):
        ExtElem(parse_kpoly("x", ring(-5)), "D3")


def test_d1_classify():
    assert d1_classify(D1("1", -5)) == "unit"
    assert d1_classify(D1("-1", -5)) == "unit"
    assert d1_classify(D1("2", -5)) == "constant"
    assert d1_classify(D1("x", -5)) == "associate_of_x"
    assert d1_classify(D1("-x", -5)) == "associate_of_x"
    assert d1_classify(D1("1/2*x", -5)) == "reducible"
    assert d1_classify(D1("2*x", -5)) == "reducible"
    assert d1_classify(D1("w*x+1", -5)) == "one_plus_tail"
    assert d1_classify(D1("x^2+1", -5)) == "one_plus_tail"
    assert d1_classify(D1("-1/3*w*x-1", -5)) == "one_plus_tail"
    assert d1_classify(D1("x^2-1", -5)) == "reducible"
    assert d1_classify(D1("2*x+2", -5)) == "reducible"
    with pytest.raises(DomainError):
        d1_classify(D1("0", -5))
    with pytest.raises(DomainError):
        d1_classify(D2("x", -5))


def strs(fs):
    return {tuple(str(g) for g in m) for m in fs.factorizations}


def test_d1_factorizations():
    assert strs(d1_factorizations(D1("x", -5))) == {("x",)}
    assert strs(d1_factorizations(D1("2*x", -5))) == {("2", "x")}
    assert strs(d1_factorizations(D1("3*x+6", -5))) == {
        ("2", "3", "1/2*x+1"), ("1-w", "1+w", "1/2*x+1")}
    assert d1_factorizations(D1("3*x+6", -5)).lengths() == [3]
    assert d1_factorizations(D1("3*x+6", -5)).elasticity() == 1
    # normal form with v > 0 and a one-plus-tail part
    fs = d1_factorizations(D1("2*x^2+2*x", -5))
    assert strs(fs) == {("2", "x", "x+1")}


def test_d1_factorizations_81_tail():
    g = D1("x^2+81", -14)
    fs = d1_factorizations(g)
    assert fs.lengths() == [3, 5]
    assert fs.elasticity() == Fraction(5, 3)
    for m in fs.factorizations:
        prod = KPoly.const(KElem.of(1, 0, ring(-14)))
        for q in m:
            prod = prod * q
        assert prod in (g.poly, g.poly.scale(KElem.of(-1, 0, ring(-14))))


def test_d1_factorization_guards():
    with pytest.raises(DomainError):
        d1_factorizations(D1("1", -5))
    with pytest.raises(DomainError):
        d1_factorizations(D1("0", -5))
    with pytest.raises(DomainError):
        d1_factorizations(D2("x", -5))
    # in D1 but the normal-form constant sits outside R
    with pytest.raises(DomainError):
        d1_factorizations(D1("1/2*w*x", -5))


def test_d1_product_back_property():
    rng = random.Random(15)
    for _ in range(60):
        d = rng.choice((-1, -5, -14))
        cfg = ring(d)
        coeffs = [KElem.of(rng.randint(-6, 6), rng.randint(-3, 3), cfg)]
        for _ in range(rng.randint(0, 2)):
            coeffs.append(KElem.of(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)), cfg))
        p = KPoly(coeffs, cfg)
        if p.is_zero():
            continue
        g = ExtElem(p, "D1")
        if p.degree() == 0 and p.coeff(0).is_unit():
            continue
        fs = d1_factorizations(g)
        assert fs.factorizations
        units = [KElem.of(1, 0, cfg), KElem.of(-1, 0, cfg)]
        if d == -1:
            units += [KElem.of(0, 1, cfg), KElem.of(0, -1, cfg)]
        for m in fs.factorizations:
            prod = KPoly.const(KElem.of(1, 0, cfg))
            for q in m:
                # every atom is itself unsplittable in D1
                assert d1_classify(ExtElem(q, "D1")) in (
                    "constant", "associate_of_x", "one_plus_tail")
                prod = prod * q
            assert any(prod == p.scale(u) for u in units)


def _d1_divides(q, h):
    # q | h inside D1: the unique K[x] quotient must land back in D1
    if h.degree() < q.degree():
        return False
    quo, rem = h.divmod(q)
    return rem.is_zero() and quo.coeff(0).is_integral()


def _rand_d1_poly(rng, cfg, integral_linear=False):
    coeffs = [KElem.of(rng.randint(-5, 5), rng.randint(-2, 2), cfg)]
    for i in range(rng.randint(0, 2)):
        if integral_linear and i == 0:
            coeffs.append(KElem.of(rng.randint(-4, 4),
                                   rng.randint(-2, 2), cfg))
        else:
            coeffs.append(KElem.of(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)), cfg))
    p = KPoly(coeffs, cfg)
    return p if not p.is_zero() else KPoly.const(KElem.of(2, 0, cfg))


def test_d1_one_plus_tail_atoms_are_prime():
    # whenever an irreducible 1 + x*f(x) divides a product in D1 it
    # divides one of the factors
    rng = random.Random(9)
    cfg = ring(-5)
    checked = 0
    hits = 0
    while checked < 120:
        fc = [KElem.of(1, 0, cfg)]
        for _ in range(rng.randint(1, 2)):
            fc.append(KElem.of(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 2)), cfg))
        q = KPoly(fc, cfg)
        if q.degree() < 1:
            continue
        if d1_classify(ExtElem(q, "D1")) != "one_plus_tail":
            continue
        h = _rand_d1_poly(rng, cfg)
        k = _rand_d1_poly(rng, cfg)
        if rng.random() < 0.5:
            h = h * q
        lhs = _d1_divides(q, h * k)
        rhs = _d1_divides(q, h) or _d1_divides(q, k)
        assert lhs == rhs, f"{q} vs {h} * {k}"
        hits += lhs
        checked += 1
    assert hits > 30


def test_d1_x_prime_on_integral_linear_slice():
    # with linear coefficients kept in Z[w], x | h*k forces x | h or
    # x | k; the next test shows the implication fails off this slice
    rng = random.Random(21)
    cfg = ring(-5)
    x = KPoly([KElem.of(0, 0, cfg), KElem.of(1, 0, cfg)], cfg)
    fired = 0
    for _ in range(150):
        h = _rand_d1_poly(rng, cfg, integral_linear=True)
        k = _rand_d1_poly(rng, cfg, integral_linear=True)
        if rng.random() < 0.4:
            h = h * x
        lhs = _d1_divides(x, h * k)
        rhs = _d1_divides(x, h) or _d1_divides(x, k)
        assert lhs == rhs, f"x vs {h} * {k}"
        fired += lhs
    assert fired > 20


def test_d1_x_divides_product_but_neither_factor():
    # 3 * (x^2 + x/3) = 3*x^2 + x: divisible by x in D1, yet x divides
    # neither factor; associates of x are atoms of the normal-form
    # model, not primes of the full ring
    cfg = ring(-5)
    x = KPoly([KElem.of(0, 0, cfg), KElem.of(1, 0, cfg)], cfg)
    h = KPoly.const(KElem.of(3, 0, cfg))
    k = parse_kpoly("x^2+1/3*x", cfg)
    assert ExtElem(k, "D1").level == "D1"
    assert _d1_divides(x, h * k)
    assert not _d1_divides(x, h)
    assert not _d1_divides(x, k)


def test_d2_is_irreducible():
    assert d2_is_irreducible(D2("x+4", -5))
    assert d2_is_irreducible(D2("x+2", -5))
    assert d2_is_irreducible(D2("2", -5))
    assert not d2_is_irreducible(D2("4", -5))
    assert not d2_is_irreducible(D2("x^2", -5))
    assert not d2_is_irreducible(D2("w*x^2", -5))
    assert not d2_is_irreducible(D2("2*x+2", -5))
    assert not d2_is_irreducible(D2("x^2-4", -5))
    assert not d2_is_irreducible(D2("x^2+5", -5))
    assert d2_is_irreducible(D2("x^2+x+1", -5))
    assert d2_is_irreducible(D2("x^2+w*x+1", -5))
    assert d2_is_irreducible(D2("-1/4*x^2+1", -5))
    # fractional leading coefficient blocks every (1,1)-split
    assert d2_is_irreducible(D2("1/2*x^2+x+1", -5))
    with pytest.raises(DomainError):
        d2_is_irreducible(D1("x", -5))
    with pytest.raises(DomainError):
        d2_is_irreducible(D2("x^3+1", -5))
    with pytest.raises(DomainError):
        d2_is_irreducible(D2("0", -5))
    with pytest.raises(DomainError):
        d2_is_irreducible(D2("1", -5))


def _d2_pick_oracle(p):
    """The D2 test before it deferred to the R[x] test: after the
    constant splits, factor in K[x] and look for a lam rescaling one
    linear factor into R[x], with the norm-ball lam search."""
    import lambda_oracle
    from quadfactor.kpoly import factor_k
    from quadfactor.qint import common_nonunit_divisor, is_irreducible
    g0, g1 = p.coeff(0), p.coeff(1)
    nonzero = [z for z in (g0, g1) if not z.is_zero()]
    if not nonzero:
        return False
    if common_nonunit_divisor(nonzero) is not None:
        return is_irreducible(g0) if p.degree() == 0 else False
    if p.degree() <= 1 or not p.coeff(2).is_integral():
        return True
    unit_k, ks = factor_k(p)
    if len(ks) != 2 or any(q.degree() != 1 for q in ks):
        return True
    for pick in (0, 1):
        if lambda_oracle.lambda_candidates(
                ks[pick], ks[1 - pick].scale(unit_k)):
            return False
    return True


def test_d2_is_irreducible_matches_pick_oracle():
    from quadfactor.suite import CORE_RINGS
    rng = random.Random(27)

    def lin(cfg):
        return KPoly([KElem.of(rng.randint(-3, 3), rng.randint(-1, 1), cfg),
                      KElem.of(rng.randint(-2, 2), rng.randint(-1, 1), cfg)],
                     cfg)

    answers = []
    for i in range(300):
        cfg = ring(CORE_RINGS[i % len(CORE_RINGS)])
        kind = i % 4
        if kind == 0:
            # products of two linear factors of R[x], some non-primitive
            p = lin(cfg) * lin(cfg)
        elif kind == 1:
            p = KPoly([KElem.of(rng.randint(-6, 6), rng.randint(-2, 2), cfg)
                       for _ in range(3)], cfg)
        elif kind == 2:
            # split in K[x] only: (x - r1)(x - r2) with fractional roots
            r1, r2 = (KElem.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                               Fraction(rng.randint(-1, 1), rng.randint(1, 3)),
                               cfg) for _ in range(2))
            c = KElem.of(rng.randint(1, 6), rng.randint(-1, 1), cfg)
            one = KElem.of(1, 0, cfg)
            p = KPoly([-r1, one], cfg) * KPoly([-r2, one], cfg)
            p = p.scale(c)
            if not (p.coeff(0).is_integral() and p.coeff(1).is_integral()):
                continue
        else:
            # fractional leading coefficient
            p = lin(cfg) + KPoly([KElem.of(0, 0, cfg), KElem.of(0, 0, cfg),
                                  KElem.of(Fraction(rng.randint(-3, 3), 2),
                                           0, cfg)], cfg)
        if p.is_zero() or (p.degree() == 0 and
                           p.coeff(0).is_unit()):
            continue
        got = d2_is_irreducible(ExtElem(p, "D2"))
        assert got == _d2_pick_oracle(p), p
        answers.append((p.degree(), got))
    assert len(answers) > 200
    assert sum(1 for deg, ok in answers if deg == 2 and ok) > 60
    assert sum(1 for deg, ok in answers if deg == 2 and not ok) > 60


def test_d2_witness_verify():
    cfg = ring(-5)
    rep = d2_witness_verify(cfg.el(2), 1)
    assert isinstance(rep, D2WitnessReport)
    assert rep.ok()
    assert rep.identity_holds and rep.factors_irreducible
    assert rep.lengths == (2, 3)
    assert rep.elasticity_lower_bound == Fraction(3, 2)
    assert rep.observed_lengths == (2, 3)
    rep = d2_witness_verify(cfg.el(2), 5)
    assert rep.ok()
    assert rep.lengths == (2, 11)
    assert rep.elasticity_lower_bound == Fraction(11, 2)
    # ramified prime of Z[sqrt(-5)]: pi^2 also splits as 2*(-2+w)
    rep = d2_witness_verify(cfg.el(1, 1), 1)
    assert rep.ok()
    assert rep.observed_lengths == (2, 3)
    # d = -14: 3^4 = 81 carries the extra length-2 class (5±2w)
    rep = d2_witness_verify(ring(-14).el(3), 2)
    assert rep.ok()
    assert rep.lengths == (2, 5)
    assert rep.observed_lengths == (2, 3, 5)


def test_d2_witness_guards():
    cfg = ring(-5)
    with pytest.raises(DomainError):
        d2_witness_verify(cfg.el(4), 1)
    with pytest.raises(DomainError):
        d2_witness_verify(cfg.el(2), 0)
    with pytest.raises(ResourceLimitError):
        d2_witness_verify(cfg.el(2), 7)
