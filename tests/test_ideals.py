import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import colon_oracle
import principal_oracle
import pytest
from kelem_oracle import coords, normk

from quadfactor.errors import DomainError, VerificationError
from quadfactor.ideals import (colon, content_ideal, gamma_check,
                               gauss_product_check, gcd_v, hnf2,
                               ideal_from_gens, is_primitive, is_principal, is_superprimitive,
                               mul, unit_ideal, v_closure)
from quadfactor.kpoly import KPoly
from quadfactor.qint import KElem, canonical_associate, ring
from test_kpoly import ALL_DS


def E(u, v, d):
    return KElem.of(u, v, ring(d))


def rand_ideal(rng, cfg):
    while True:
        gens = [cfg.el(rng.randint(-9, 9), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            return ideal_from_gens(gens), gens


def test_hnf_shape():
    cfg = ring(-5)
    I = ideal_from_gens([cfg.el(2), cfg.el(1, 1)])
    assert I.basis() == ((2, 0), (1, 1))
    assert I.denom == 1
    assert I.norm() == 2
    assert str(I) == "<2; 1+w>"
    assert I.contains(E(2, 0, -5))
    assert I.contains(E(1, 1, -5))
    assert I.contains(E(3, 1, -5))
    assert not I.contains(E(1, 0, -5))
    assert not I.contains(E(0, 1, -5))
    assert not I.contains(E(Fraction(1, 2), Fraction(1, 2), -5))


def test_hnf2_characterized():
    """hnf2 against properties that pin the Hermite form, with no second
    implementation: Z(a,0) + Z(b,c) contains every input vector, and its
    index a*c equals the input lattice's index, the gcd of the 2x2
    minors, so the two lattices are equal; c is the gcd of the second
    coordinates, and a > 0, c > 0, 0 <= b < a fix the basis.  A list
    of rank < 2 (every minor 0) raises DomainError."""
    rng = random.Random(25)
    raised = 0
    for _ in range(3000):
        bound = rng.choice((3, 30, 10 ** 3, 10 ** 12))
        vecs = [(rng.randint(-bound, bound),
                 rng.choice((0, rng.randint(-bound, bound))))
                for _ in range(rng.randint(1, 6))]
        minors = math.gcd(*(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2)
                            in itertools.combinations(vecs, 2)))
        if minors == 0:
            with pytest.raises(DomainError):
                hnf2(vecs)
            raised += 1
            continue
        a, b, c = hnf2(vecs)
        assert a > 0 and c > 0 and 0 <= b < a
        assert c == math.gcd(*(y for _, y in vecs))
        assert a * c == minors
        for x, y in vecs:
            assert y % c == 0 and (x - y // c * b) % a == 0
    assert 100 < raised < 2000


def test_frac_ideal_invariants_raise():
    # Z*(2,0) + Z*(0,1) is not closed under w at d = -5: the check is
    # explicit, so it also runs under python -O
    from quadfactor.ideals import FracIdeal
    with pytest.raises(VerificationError) as exc:
        FracIdeal(2, 0, 1, 1, ring(-5))
    assert str(exc.value) == ("FracIdeal(a=2, b=0, c=1, denom=1, "
                              "cfg=RingCfg(d=-5)) is not a reduced ideal "
                              "lattice")
    with pytest.raises(VerificationError):
        FracIdeal(2, 0, 1, 0, ring(-5))


def test_frac_ideal_equality_is_by_ideal():
    # one ideal from three generator lists: equal, hashing equal, one
    # element of a set; a different ideal stays apart
    cfg = ring(-5)
    I = ideal_from_gens([cfg.el(2), cfg.el(1, 1)])
    J = ideal_from_gens([cfg.el(1, 1), cfg.el(2), cfg.el(3, 1)])
    K = ideal_from_gens([E(1, -1, -5), E(2, 0, -5)])
    assert I == J == K
    assert hash(I) == hash(J) == hash(K)
    assert len({I, J, K}) == 1
    assert I != ideal_from_gens([cfg.el(2)])
    # the same lattice (a, b, c) = (2, 1, 1) in another ring
    assert I != ideal_from_gens([ring(-3).el(2), ring(-3).el(1, 1)])


def test_ideal_from_gens_rejects_zero():
    with pytest.raises(DomainError):
        ideal_from_gens([])
    with pytest.raises(DomainError):
        ideal_from_gens([ring(-5).el(0)])


def test_colon_of_prime_over_two():
    cfg = ring(-5)
    I = ideal_from_gens([cfg.el(2), cfg.el(1, 1)])
    C = colon(I)
    assert C.denom == 2
    assert C.contains(E(1, 0, -5))
    assert C.contains(E(Fraction(1, 2), Fraction(1, 2), -5))
    assert C.contains(E(Fraction(1, 2), Fraction(-1, 2), -5))
    # z * I <= R for every generator pair
    for g in C.generators():
        for h in (E(2, 0, -5), E(1, 1, -5)):
            prod = g * h
            assert unit_ideal(cfg).contains(prod)


def test_v_closure_fixed_point():
    cfg = ring(-5)
    I = ideal_from_gens([cfg.el(2), cfg.el(1, 1)])
    assert v_closure(I) == I
    J = ideal_from_gens([cfg.el(6)])
    assert v_closure(J) == J


def seeded_ideals(seed, per_ring, u, v, dens):
    """per_ring ideals over each of the 61 rings, with 1-3 generators
    (a + b*w)/den, |a| <= u, |b| <= v, den drawn from dens."""
    rng = random.Random(seed)
    for d in ALL_DS:
        cfg = ring(d)
        for _ in range(per_ring):
            gens = []
            while not gens:
                gens = [KElem(rng.randint(-u, u), rng.randint(-v, v), cfg,
                              rng.choice(dens))
                        for _ in range(rng.randint(1, 3))]
                gens = [g for g in gens if not g.is_zero()]
            yield ideal_from_gens(gens), gens


def test_colon_matches_kernel_oracle():
    # the closed form against the integer-kernel elimination it replaced
    seen = set()
    for I, _ in seeded_ideals(20, 60, 40, 15, (1, 1, 2, 3, 4, 6)):
        assert colon(I) == colon_oracle.colon(I), I
        seen.add((I.cfg.d % 4 == 1, I.denom > 1, I.c > 1))
    assert len(seen) == 8  # d = 1 mod 4 or not, fractional, c > 1


def _times_integral(s, t, k, g):
    """Whether (s + t*w)/k times g lies in Z[w], on plain integers."""
    x = s * g.a + t * g.b * g.cfg.d
    y = s * g.b + t * g.a
    return x % (k * g.den) == 0 and y % (k * g.den) == 0


def test_colon_from_its_definition():
    # (R : I) = {z : z*I <= R}, checked on I's own generators with no
    # lattice code: every generator of colon(I) multiplies each one into
    # R, and every z = (s + t*w)/k in a box that does lies in colon(I)
    beyond_r = 0
    for I, gens in seeded_ideals(21, 3, 4, 3, (1, 1, 2)):
        C = colon(I)
        for z in C.generators():
            assert all(_times_integral(z.a, z.b, z.den, g) for g in gens)
        for k in range(1, 7):
            for s in range(-9, 10):
                for t in range(-9, 10):
                    if all(_times_integral(s, t, k, g) for g in gens):
                        z = KElem(s, t, I.cfg, k)
                        assert C.contains(z), (I, z)
                        beyond_r += z.den > 1
    assert beyond_r > 1000


def test_every_ideal_is_divisorial():
    # Z[w] = Z[x]/(x^2 - d) is monogenic, hence Gorenstein, and in a
    # one-dimensional Gorenstein domain every nonzero fractional ideal
    # is divisorial (Bass, "On the ubiquity of Gorenstein rings", 1963);
    # v_closure computes (R : (R : I)) from the definition, with no
    # shortcut, so I_v = I is an independent check on colon.  gcd_v and
    # gamma_check read I itself by the theorem; the v-closure route
    # they replaced is their oracle, on (B, C) = (I, previous ideal of
    # the ring) and (I, (R : I)), whose product is R when I is invertible
    seen = set()
    prev = None
    for I, gens in seeded_ideals(22, 40, 40, 15, (1, 1, 2, 3, 6)):
        assert v_closure(I) == I, I
        assert gcd_v(gens) == is_principal(v_closure(I)), gens
        for C in (colon(I), prev):
            if C is None or C.cfg.d != I.cfg.d:
                continue
            rep = gamma_check(I, C)
            assert rep.product_v_trivial == (
                v_closure(mul(I, C)) == unit_ideal(I.cfg)), (I, C)
            assert rep.b_v_generator == is_principal(v_closure(I)), I
            seen.add((rep.product_v_trivial, rep.holds))
        prev = I
    assert seen == {(True, True), (True, False), (False, True)}


def test_is_principal():
    cfg = ring(-5)
    assert is_principal(ideal_from_gens([cfg.el(6)])) == E(6, 0, -5)
    assert is_principal(
        ideal_from_gens([cfg.el(2), cfg.el(1, 1)])) is None
    rng = random.Random(8)
    for _ in range(80):
        d = rng.choice((-1, -2, -3, -5, -14))
        cfg = ring(d)
        g = cfg.el(rng.randint(-9, 9), rng.randint(-4, 4))
        if g.is_zero():
            continue
        got = is_principal(ideal_from_gens([g]))
        assert got == canonical_associate(g)


def test_is_principal_matches_walk_oracle():
    # the shortest reduced vector against the walk over every lattice
    # point of norm N(I) that it replaced
    principal = 0
    for I, _ in seeded_ideals(23, 60, 30, 12, (1, 1, 2, 3, 4, 6)):
        got = is_principal(I)
        assert got == principal_oracle.is_principal(I), I
        principal += got is not None
    assert 1000 < principal < 3600


@pytest.mark.parametrize("argv", [
    ["--d", "-1", "gcd-v", "100000000+w"],
    ["--d", "-95", "gamma-check", "--", "(-28+11*w)^4", "-53-2*w"],
])
def test_principal_test_on_large_norms_finishes(argv):
    # both once walked about sqrt(N(I)/|d|) lattice rows and ran for
    # many seconds; a child process with a timeout turns a hang into a
    # failure
    import quadfactor
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(quadfactor.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "quadfactor", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_mul_conjugate_primes():
    cfg = ring(-5)
    P = ideal_from_gens([cfg.el(2), cfg.el(1, 1)])
    Q = ideal_from_gens([cfg.el(2), cfg.el(1, -1)])
    assert mul(P, Q) == ideal_from_gens([cfg.el(2)])
    # 2 ramifies over d = -5, so P = Q and P^2 = (2)
    assert P == Q
    assert mul(P, P) == ideal_from_gens([cfg.el(2)])


def test_ideal_laws_random():
    rng = random.Random(9)
    for _ in range(120):
        cfg = ring(rng.choice((-1, -2, -3, -5, -6, -14)))
        I, gens = rand_ideal(rng, cfg)
        Iv = v_closure(I)
        # I <= I_v and closure is idempotent
        for g in I.generators():
            assert Iv.contains(g)
        assert v_closure(Iv) == Iv
        # colon is antitone: J = I + one generator contains I
        extra = cfg.el(rng.randint(-9, 9), rng.randint(-4, 4))
        if extra.is_zero():
            continue
        J = ideal_from_gens(gens + [extra])
        for g in J.generators():
            assert J.contains(g)
        CJ, CI = colon(J), colon(I)
        for g in CJ.generators():
            assert CI.contains(g)


def test_content_and_primitivity():
    cfg = ring(-5)
    f = KPoly([cfg.el(2), cfg.el(1, 1)], cfg)
    assert is_primitive(f)
    assert content_ideal(f) == ideal_from_gens([cfg.el(2), cfg.el(1, 1)])
    g = KPoly.from_rationals([4, 4, 6], cfg)
    assert not is_primitive(g)
    with pytest.raises(DomainError):
        is_primitive(KPoly([], cfg))


def test_superprimitive():
    cfg = ring(-5)
    f = KPoly([cfg.el(2), cfg.el(1, 1)], cfg)
    ok, wit = is_superprimitive(f)
    assert not ok
    assert wit == E(Fraction(1, 2), Fraction(-1, 2), -5)
    # the witness multiplies the whole content ideal into R
    A = content_ideal(f)
    for g in A.generators():
        assert unit_ideal(cfg).contains(wit * g)
    assert not wit.is_integral()
    g2 = KPoly([cfg.el(1), cfg.el(0, 1)], cfg)
    ok2, wit2 = is_superprimitive(g2)
    assert ok2 and wit2 is None


def test_superprimitive_implies_primitive():
    rng = random.Random(10)
    for _ in range(150):
        cfg = ring(rng.choice((-1, -2, -3, -5, -6, -14)))
        coeffs = [cfg.el(rng.randint(-6, 6), rng.randint(-3, 3))
                  for _ in range(rng.randint(1, 3))]
        if all(c.is_zero() for c in coeffs):
            continue
        f = KPoly(coeffs, cfg)
        if f.is_zero():
            continue
        ok, wit = is_superprimitive(f)
        if ok:
            assert is_primitive(f)
        else:
            assert wit is not None and not wit.is_integral()
            A = content_ideal(f)
            for g in A.generators():
                assert unit_ideal(cfg).contains(wit * g)


def _superprimitive_oracle(f):
    """The witness search before the reduced basis: every non-integral
    point of (R : A_f) up to the least norm of a non-integral Hermite
    basis vector, walked row by row, minimized by (normk, |u|, v)."""
    C = colon(content_ideal(f))
    if C.denom == 1:
        return True, None
    m = C.denom
    bound = min(x * x - C.cfg.d * y * y for x, y in C.basis()
                if x % m or y % m)
    cands = set()
    for x, y in principal_oracle._points_up_to(C, bound):
        z = KElem.of(Fraction(x, m), Fraction(y, m), C.cfg)
        if not z.is_integral():
            cands.add(canonical_associate(z))
    return False, min(cands, key=lambda z: (normk(z), abs(coords(z)[0]),
                                            coords(z)[1]))


def test_superprimitive_matches_full_search():
    # every ring, contents of norm up to about 10^3: the witness read off
    # u, v and u+v against the walk over every point below a Hermite
    # basis vector's norm
    rng = random.Random(12)
    witnesses = 0
    for d in ALL_DS:
        cfg = ring(d)
        for _ in range(2):
            c = cfg.el(rng.randint(-9, 9), rng.randint(-3, 3))
            coeffs = [c * cfg.el(rng.randint(-4, 4), rng.randint(-2, 2))
                      for _ in range(rng.randint(1, 3))]
            f = KPoly(coeffs, cfg)
            if f.is_zero():
                continue
            got = is_superprimitive(f)
            assert got == _superprimitive_oracle(f), f
            witnesses += not got[0]
    assert witnesses > 30


def test_superprimitive_witness_from_v_and_u_plus_v(capsys):
    # the witness is the reduced basis's second vector v at d = -6 and
    # u+v at d = -3: dropping either from the candidates changes these
    from quadfactor.cli import main
    assert main(["--d", "-6", "psp-check", "2*x-w"]) == 0
    assert capsys.readouterr().out == (
        '{"poly": "2*x-w", "d": -6, "primitive": true, '
        '"superprimitive": false, "witness": "w/2"}\n')
    assert main(["--d", "-3", "psp-check", "--",
                 "(17+19*w)*x-(51-41*w)"]) == 0
    assert capsys.readouterr().out == (
        '{"poly": "(17+19*w)*x-(51-41*w)", "d": -3, "primitive": false, '
        '"superprimitive": false, "witness": "(1-4*w)/49"}\n')


def test_superprimitive_large_content(capsys):
    from quadfactor.cli import main
    assert main(["--d", "-51", "psp-check", "(8+3*w)*x+8+3*w"]) == 0
    assert capsys.readouterr().out == (
        '{"poly": "(8+3*w)*x+8+3*w", "d": -51, "primitive": false, '
        '"superprimitive": false, "witness": "(8-3*w)/523"}\n')
    # content of norm 124576: the witness lies at that norm, and is read
    # off the reduced basis without scanning the norms below it
    assert main(["--d", "-55", "psp-check", "(7+3*w)*(3+2*w)"]) == 0
    assert capsys.readouterr().out == (
        '{"poly": "-(309-23*w)", "d": -55, "primitive": false, '
        '"superprimitive": false, "witness": "(309+23*w)/124576"}\n')


def test_gcd_v():
    cfg = ring(-5)
    assert gcd_v([cfg.el(4), cfg.el(2)]) == cfg.el(2)
    assert gcd_v([cfg.el(2), cfg.el(1, 1)]) is None
    assert gcd_v([cfg.el(6)]) == cfg.el(6)
    assert gcd_v([cfg.el(0), cfg.el(3)]) == cfg.el(3)
    cfg1 = ring(-1)
    assert gcd_v([cfg1.el(1, 1), cfg1.el(2)]) == cfg1.el(1, 1)
    with pytest.raises(DomainError):
        gcd_v([cfg.el(0)])


def test_ideal_conditions_compute_no_colon(monkeypatch):
    # gcd_v and gamma_check read the ideal itself, so neither runs the
    # two colon ideals of a v-closure; is_superprimitive reads (R : A_f)
    from quadfactor import ideals
    calls = []

    def counted(I):
        calls.append(I)
        return colon(I)

    monkeypatch.setattr(ideals, "colon", counted)
    cfg = ring(-5)
    B = ideal_from_gens([cfg.el(2), cfg.el(1, 1)])
    C = ideal_from_gens([E(1, 0, -5), E(Fraction(1, 2), Fraction(-1, 2), -5)])
    assert gcd_v([cfg.el(4), cfg.el(2)]) == cfg.el(2)
    assert gamma_check(B, C).holds is False
    assert calls == []
    assert is_superprimitive(KPoly([cfg.el(2), cfg.el(1, 1)], cfg))[0] is False
    assert calls == [B]


def gcd_distributivity_check(elems, b):
    """Instance check of [b*a1, ..., b*an] = b * [a1, ..., an].

    Returns None when [a1, ..., an] does not exist (the identity is then
    inapplicable rather than false); otherwise True/False.  Any False
    certifies that primitive polynomials with non-superprimitive behavior
    exist over this ring."""
    if b.is_zero():
        raise DomainError("scaling by zero")
    g = gcd_v(elems)
    if g is None:
        return None
    scaled = gcd_v([b * e for e in elems if not e.is_zero()])
    if scaled is None:
        return False
    return canonical_associate(b * g) == scaled


def test_gcd_distributivity():
    cfg = ring(-5)
    assert gcd_distributivity_check([cfg.el(4), cfg.el(2)],
                                    cfg.el(1, 1)) is True
    assert gcd_distributivity_check([cfg.el(2), cfg.el(1, 1)],
                                    cfg.el(3)) is None
    with pytest.raises(DomainError):
        gcd_distributivity_check([cfg.el(2)], cfg.el(0))
    rng = random.Random(11)
    cfg1 = ring(-1)
    for _ in range(100):
        elems = [cfg1.el(rng.randint(-9, 9), rng.randint(-4, 4))
                 for _ in range(2)]
        b = cfg1.el(rng.randint(-5, 5), rng.randint(-3, 3))
        if b.is_zero() or all(e.is_zero() for e in elems):
            continue
        # class number 1: every closure is principal, so the identity
        # must hold on the nose
        assert gcd_distributivity_check(elems, b) is True


def test_gauss_product():
    cfg = ring(-5)
    f = KPoly([cfg.el(2), cfg.el(1, 1)], cfg)
    g = KPoly([cfg.el(2), cfg.el(1, -1)], cfg)
    assert gauss_product_check(f, g) is False
    cfg1 = ring(-1)
    rng = random.Random(12)
    seen_true = 0
    for _ in range(60):
        a = KPoly([cfg1.el(rng.randint(-5, 5), rng.randint(-3, 3))
                   for _ in range(rng.randint(2, 3))], cfg1)
        b = KPoly([cfg1.el(rng.randint(-5, 5), rng.randint(-3, 3))
                   for _ in range(rng.randint(2, 3))], cfg1)
        if a.is_zero() or b.is_zero():
            continue
        if not (is_primitive(a) and is_primitive(b)):
            continue
        assert gauss_product_check(a, b) is True
        seen_true += 1
    assert seen_true > 20
    with pytest.raises(DomainError):
        gauss_product_check(KPoly.from_rationals([4, 4, 6], cfg), f)


def test_gamma_check():
    cfg = ring(-5)
    B = ideal_from_gens([cfg.el(2), cfg.el(1, 1)])
    C = ideal_from_gens([E(1, 0, -5),
                         E(Fraction(1, 2), Fraction(-1, 2), -5)])
    assert v_closure(mul(B, C)) == unit_ideal(cfg)
    rep = gamma_check(B, C)
    assert rep.product_v_trivial and rep.b_v_generator is None
    assert rep.holds is False
    # trivial product closure never arises here, so the implication holds
    C2 = ideal_from_gens([cfg.el(2), cfg.el(1, -1)])
    assert gamma_check(B, C2).holds is True
    cfg1 = ring(-1)
    B1 = ideal_from_gens([cfg1.el(1, 1)])
    C1 = ideal_from_gens([E(Fraction(1, 2), Fraction(-1, 2), -1)])
    assert gamma_check(B1, C1).holds is True
