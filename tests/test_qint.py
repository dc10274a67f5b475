import collections
import math
import operator
import random
from fractions import Fraction

import pytest
from kelem_oracle import coords

from quadfactor.errors import DomainError
from quadfactor.qint import (KElem, _associate_coords, _canonical_coords,
                             _canonical_points, _coords_key, _divisors,
                             _is_rational_prime, _lattice_walk,
                             canonical_associate, common_divisors,
                             common_nonunit_divisor, conj, elements_of_norm,
                             irreducible_common_divisors, is_irreducible,
                             is_prime, norm, ring, try_div, units)

RINGS = (-1, -2, -3, -5, -6, -10, -13, -14)


def test_ring_flags():
    assert ring(-1).is_maximal and ring(-1).is_ufd
    assert ring(-2).is_maximal and ring(-2).is_ufd
    assert not ring(-3).is_maximal and not ring(-3).is_ufd
    assert ring(-5).is_maximal and not ring(-5).is_ufd
    assert ring(-5).class_number == 2
    assert ring(-14).class_number == 4
    assert not ring(-7).is_maximal
    assert ring(-7).class_number is None
    assert ring(-97).is_maximal


def test_ring_is_one_object_per_d():
    # equality and hashing are by identity, so ring() must not make two
    assert ring(-5) is ring(-5)
    assert repr(ring(-5)) == "RingCfg(d=-5)"
    assert ring(-5) != ring(-6)
    assert len({ring(-5), ring(-5), ring(-6)}) == 2


@pytest.mark.parametrize("bad", [0, 1, -4, -9, -12, -101, -100])
def test_ring_rejects(bad):
    with pytest.raises(DomainError):
        ring(bad)


def test_arithmetic():
    cfg = ring(-5)
    x = cfg.el(1, 2)
    y = cfg.el(3, -1)
    assert x * y == cfg.el(13, 5)
    assert x + y == cfg.el(4, 1)
    assert x - y == cfg.el(-2, 3)
    assert (-x) == cfg.el(-1, -2)
    assert x ** 3 == x * x * x
    assert norm(x) == 21
    assert conj(x) == cfg.el(1, -2)
    assert str(x) == "1+2*w"
    assert str(cfg.el(0, -1)) == "-w"
    assert str(cfg.el(-3)) == "-3"


def test_mixed_rings_raise():
    # elements of two rings never combine, fractions of K included
    x = ring(-5).el(1, 2)
    for y in (ring(-6).el(1, 2), KElem(1, 2, ring(-6), 3)):
        for u, v in ((x, y), (y, x)):
            for op in (operator.add, operator.sub, operator.mul,
                       operator.truediv):
                with pytest.raises(DomainError, match="mixed rings"):
                    op(u, v)
    with pytest.raises(DomainError, match="mixed rings"):
        try_div(x, ring(-6).el(1))
    with pytest.raises(DomainError, match="negative powers"):
        x ** -1


def test_norm_multiplicative():
    rng = random.Random(1)
    for _ in range(1000):
        cfg = ring(rng.choice(RINGS))
        x = cfg.el(rng.randint(-30, 30), rng.randint(-15, 15))
        y = cfg.el(rng.randint(-30, 30), rng.randint(-15, 15))
        assert norm(x * y) == norm(x) * norm(y)


def test_try_div():
    cfg = ring(-5)
    assert try_div(cfg.el(6), cfg.el(1, 1)) == cfg.el(1, -1)
    assert try_div(cfg.el(3), cfg.el(2)) is None
    assert try_div(cfg.el(0), cfg.el(7)) == cfg.el(0)
    with pytest.raises(DomainError):
        try_div(cfg.el(3), cfg.el(0))
    rng = random.Random(2)
    for _ in range(300):
        cfg = ring(rng.choice(RINGS))
        x = cfg.el(rng.randint(-9, 9), rng.randint(-4, 4))
        y = cfg.el(rng.randint(-9, 9), rng.randint(-4, 4))
        if y.is_zero():
            continue
        q = try_div(x * y, y)
        assert q == x


def test_units_and_canonical():
    assert [str(u) for u in units(ring(-1))] == ["1", "-1", "w", "-w"]
    assert [str(u) for u in units(ring(-5))] == ["1", "-1"]
    cfg = ring(-1)
    assert canonical_associate(cfg.el(0, 3)) == cfg.el(3)
    assert canonical_associate(cfg.el(-2, 1)) == cfg.el(1, 2)
    cfg5 = ring(-5)
    assert canonical_associate(cfg5.el(-1, 1)) == cfg5.el(1, -1)
    rng = random.Random(3)
    for _ in range(200):
        cfg = ring(rng.choice(RINGS))
        x = cfg.el(rng.randint(-20, 20), rng.randint(-10, 10))
        c = canonical_associate(x)
        assert canonical_associate(c) == c
        assert any(c == x * u for u in units(cfg))


def test_elements_of_norm():
    cfg = ring(-14)
    assert [str(z) for z in elements_of_norm(81, cfg)] == \
        ["5+2*w", "5-2*w", "9"]
    assert elements_of_norm(2, ring(-5)) == ()
    assert elements_of_norm(1, ring(-5)) == (ring(-5).el(1),)
    assert elements_of_norm(0, ring(-5)) == (ring(-5).el(0),)
    for n in range(1, 60):
        for z in elements_of_norm(n, cfg):
            assert norm(z) == n
            assert canonical_associate(z) == z


def test_irreducible_examples():
    cfg = ring(-5)
    for val in (cfg.el(2), cfg.el(3), cfg.el(1, 1), cfg.el(1, -1),
                cfg.el(0, 1), cfg.el(11)):
        assert is_irreducible(val)
    for val in (cfg.el(4), cfg.el(6), cfg.el(9), cfg.el(21), cfg.el(2, 2)):
        assert not is_irreducible(val)
    with pytest.raises(DomainError):
        is_irreducible(cfg.el(0))
    with pytest.raises(DomainError):
        is_irreducible(cfg.el(-1))


def test_prime_examples():
    cfg = ring(-5)
    assert is_prime(cfg.el(11))          # inert
    assert is_prime(cfg.el(0, 1))        # norm 5 is a rational prime
    # norm 21 = 3*7, so (1+2w) splits as an ideal: irreducible, not prime
    assert is_irreducible(cfg.el(1, 2))
    assert not is_prime(cfg.el(1, 2))
    assert not is_prime(cfg.el(2))       # irreducible but not prime
    assert not is_prime(cfg.el(3))
    assert is_irreducible(cfg.el(2))
    cfg14 = ring(-14)
    assert is_irreducible(cfg14.el(2)) and not is_prime(cfg14.el(2))
    assert is_irreducible(cfg14.el(3)) and not is_prime(cfg14.el(3))


def test_prime_matches_splitting_witnesses():
    """Independent certification: for a rational prime p, a solution of
    r^2 = d (mod p) yields the witness p | (r-w)(r+w) with p dividing
    neither factor, so p is not prime; with no solution and p not
    dividing d, p must be prime (the random product test backs this)."""
    for d in RINGS:
        cfg = ring(d)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            root = next((r for r in range(p) if (r * r - d) % p == 0), None)
            pe = cfg.el(p)
            if root is not None:
                lhs = cfg.el(root, -1) * cfg.el(root, 1)
                assert try_div(lhs, pe) is not None
                if try_div(cfg.el(root, -1), pe) is None and \
                        try_div(cfg.el(root, 1), pe) is None:
                    assert not is_prime(pe)
                else:
                    # p divides a factor: the witness is void (p | w
                    # never happens, so this needs r = 0 and p | d
                    # with w/p integral, impossible)
                    raise AssertionError("witness construction broke")
            else:
                assert is_prime(pe)


def test_prime_divides_factor_property():
    rng = random.Random(4)
    for d in (-1, -2, -3, -5, -14):
        cfg = ring(d)
        primes = [z for n in range(2, 50)
                  for z in elements_of_norm(n, cfg) if is_prime(z)]
        for _ in range(300):
            p = rng.choice(primes)
            y = cfg.el(rng.randint(-12, 12), rng.randint(-5, 5))
            z = cfg.el(rng.randint(-12, 12), rng.randint(-5, 5))
            if try_div(y * z, p) is not None:
                assert try_div(y, p) is not None or \
                    try_div(z, p) is not None


def test_irreducible_iff_prime_in_ufd():
    cfg = ring(-1)
    for n in range(2, 10001):
        for z in elements_of_norm(n, cfg):
            assert is_irreducible(z) == is_prime(z)


def test_common_divisors():
    cfg = ring(-5)
    assert common_nonunit_divisor(
        [cfg.el(4), cfg.el(4), cfg.el(6)]) == cfg.el(2)
    assert common_nonunit_divisor([cfg.el(2), cfg.el(1, 1)]) is None
    zeros = [cfg.el(0), cfg.el(0)]
    with pytest.raises(DomainError):
        common_nonunit_divisor(zeros)
    with pytest.raises(DomainError):
        list(common_divisors(zeros))
    with pytest.raises(DomainError):
        list(irreducible_common_divisors(zeros))
    assert list(irreducible_common_divisors([cfg.el(6)])) == \
        [cfg.el(2), cfg.el(1, 1), cfg.el(1, -1), cfg.el(3)]
    for empty_list_scan in (common_nonunit_divisor, common_divisors,
                            irreducible_common_divisors):
        with pytest.raises(DomainError, match="empty element list"):
            empty_list_scan([])


def _assert_scans_match(elems):
    import divisor_oracle
    assert list(common_divisors(elems)) == \
        list(divisor_oracle.common_divisors(elems)), elems
    assert list(irreducible_common_divisors(elems)) == \
        divisor_oracle.irreducible_common_divisors(elems), elems


def test_divisor_scan_matches_oracle_every_element():
    # every class of norm <= 3000: same divisors, same irreducibles,
    # in the same order, as the try_div scan with its separate filter
    from quadfactor.suite import CORE_RINGS
    checked = 0
    for d in CORE_RINGS + (-13, -43, -47, -89):
        cfg = ring(d)
        for n in range(2, 3001):
            for x in elements_of_norm(n, cfg):
                _assert_scans_match([x])
                checked += 1
    assert checked == 14967


def test_divisor_scan_matches_oracle_seeded_lists():
    # lists of 1-4 multiples of one nonunit, zeros included
    rng = random.Random(11)
    ds = (-1, -2, -3, -5, -6, -14, -21, -26)
    for i in range(3000):
        cfg = ring(ds[i % len(ds)])
        f = cfg.el(0)
        while f.norm() < 2:
            f = cfg.el(rng.randint(-12, 12), rng.randint(-6, 6))
        elems = [cfg.el(0) if rng.random() < 0.15 else
                 f * cfg.el(rng.randint(-8, 8), rng.randint(-4, 4))
                 for _ in range(rng.randint(1, 4))]
        if all(e.is_zero() for e in elems):
            elems[0] = f
        _assert_scans_match(elems)
    # lists with coprime norms (g = 1) or a unit; lists where, for some
    # s | n0 with s^2 < n0, only s divides g or only n0/s does; lists
    # whose least norm n0 is a square
    shapes = collections.Counter()
    for i in range(2000):
        cfg = ring(ds[i % len(ds)])
        f, h = _nonunit(rng, cfg, 12), _nonunit(rng, cfg, rng.choice((3, 12)))
        k = _nonunit(rng, cfg, 16)
        elems = ([f * h, k], [k, rng.choice(units(cfg)), f * h],
                 [f * h, f * k], [f * f, f * f * k, f * h * h])[i % 4]
        _assert_scans_match(elems)
        shapes.update(_list_shapes(elems))
    assert min(shapes[kind] for kind in
               ("coprime", "unit", "only s", "only n0/s", "square")) > 50, \
        shapes


def _nonunit(rng, cfg, k):
    while True:
        f = cfg.el(rng.randint(-k, k), rng.randint(-k // 2, k // 2))
        if f.norm() > 1:
            return f


def _list_shapes(elems):
    norms = [e.norm() for e in elems]
    g, n0 = math.gcd(*norms), min(norms)
    shapes = {"coprime"} if g == 1 else set()
    if n0 == 1:
        shapes.add("unit")
    if n0 > 1 and math.isqrt(n0) ** 2 == n0:
        shapes.add("square")
    for s in _divisors(n0):
        if s * s < n0 and (g % s == 0) != (g % (n0 // s) == 0):
            shapes.add("only s" if g % s == 0 else "only n0/s")
    return shapes


def test_str_parse_forms():
    cfg = ring(-5)
    assert str(cfg.el(5, 2)) == "5+2*w"
    assert str(cfg.el(5, -2)) == "5-2*w"
    assert str(cfg.el(0, 0)) == "0"
    assert str(cfg.el(0, 2)) == "2*w"
    assert str(cfg.el(-1, 1)) == "-1+w"


def _is_prime_by_trial(n):
    return n >= 2 and all(n % i for i in range(2, math.isqrt(n) + 1))


def test_divisors_match_trial_division():
    # every n <= 10^5 against a sieve, then 300 seeded n log-uniform up
    # to 10^12 against trial division up to sqrt(n); the cache is
    # bypassed so the test leaves no 10^5 entries behind.  The scan
    # tries 2, 3, 5 and then only numbers prime to 30, so every residue
    # class prime to 30 is also reached as a semiprime near 10^8, as a
    # prime power and next to the primes the wheel skips
    divisors = _divisors.__wrapped__
    top = 10 ** 5
    sieve = [[] for _ in range(top + 1)]
    for i in range(1, top + 1):
        for j in range(i, top + 1, i):
            sieve[j].append(i)
    for n in range(1, top + 1):
        assert divisors(n) == tuple(sieve[n]), n
    rng = random.Random(12)
    for _ in range(300):
        n = int(math.exp(rng.uniform(0, math.log(10 ** 12))))
        small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
        assert divisors(n) == tuple(sorted({*small, *(n // i for i in small)}))
    big = [p for p in range(9000, 10_000) if _is_prime_by_trial(p)]
    assert {p % 30 for p in big} == {1, 7, 11, 13, 17, 19, 23, 29}
    for p in big[-40:] + rng.sample(big, 40):
        q = rng.choice(big)
        want = (1, p, p * p) if p == q else (1, *sorted((p, q)), p * q)
        assert divisors(p * q) == want, (p, q)
        for s in (2, 3, 5, 7, 30):
            n = s * p * q
            small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
            assert divisors(n) == tuple(sorted({*small,
                                                *(n // i for i in small)}))
    for p in (2, 3, 5, 7, 11, 13, 29, 31, 37, 9973):
        powers = [1]
        while powers[-1] * p <= 10 ** 8:
            powers.append(powers[-1] * p)
            assert divisors(powers[-1]) == tuple(powers), powers[-1]
    last = 99_999_989  # the largest prime below 10^8
    assert _is_prime_by_trial(last) and divisors(last) == (1, last)
    assert divisors(2 * last) == (1, 2, last, 2 * last)
    assert not _is_rational_prime(1) and _is_rational_prime(2)
    assert [n for n in range(60) if _is_rational_prime(n)] == \
        [n for n in range(2, 60) if len(sieve[n]) == 2]


def _orbit_min(a, b, d):
    # the canonical coordinates by definition: the least unit multiple
    return min(_associate_coords(a, b, d), key=_coords_key)


def test_canonical_closed_form_matches_orbit_min():
    # zero, both axes and |a| = |b| (at d = -1) lie in the grid
    for d in (-1, -2, -5):
        cfg = ring(d)
        for a in range(-15, 16):
            for b in range(-15, 16):
                z = canonical_associate(cfg.el(a, b))
                assert (z.a, z.b) == _orbit_min(a, b, d), (a, b, d)
                for den in (1, 2, 3):
                    k = canonical_associate(
                        KElem.of(Fraction(a, den), Fraction(b, den), cfg))
                    assert isinstance(k, KElem)
                    assert coords(k) == _orbit_min(
                        Fraction(a, den), Fraction(b, den), d), (a, b, den)


def test_elements_of_norm_matches_lattice_walk():
    top = 2000
    for d in (-1, -3, -5, -89):
        classes = {}
        for b in range(-math.isqrt(top // -d), math.isqrt(top // -d) + 1):
            for a in range(-math.isqrt(top), math.isqrt(top) + 1):
                n = a * a - d * b * b
                if n <= top:
                    classes.setdefault(n, set()).add(_orbit_min(a, b, d))
        cfg = ring(d)
        for n in range(top + 1):
            want = sorted(classes.get(n, ()), key=_coords_key)
            assert [(z.a, z.b) for z in elements_of_norm(n, cfg)] == want


def test_lattice_walk_canonical_points_are_the_classes_by_norm():
    # the walk's canonical nonzero points, in walk order, are the
    # concatenation of elements_of_norm(n) over n <= B: d = -1 has four
    # units, d = -3 is a non-maximal order.  Each B is a norm with
    # several classes, so the walk ends inside a run of equal norms
    for d, bound in ((-1, 1105), (-3, 2548), (-5, 1449), (-97, 2597)):
        cfg = ring(d)
        assert len(elements_of_norm(bound, cfg)) >= 4
        want = [(z.a, z.b) for n in range(1, bound + 1)
                for z in elements_of_norm(n, cfg)]
        got = [(z.a, z.b) for z in
               _canonical_points(cfg, _lattice_walk(cfg, bound))]
        assert got == want, d


def _seeded_large_elements(rng, count):
    ds = (-1, -2, -3, -5, -6, -14, -21, -26, -89)
    out = []
    while len(out) < count:
        cfg = ring(rng.choice(ds))
        target = int(math.exp(rng.uniform(math.log(2), math.log(10 ** 8))))
        b = rng.randint(0, math.isqrt(target // -cfg.d))
        x = cfg.el(math.isqrt(target + cfg.d * b * b) * rng.choice((1, -1)),
                   b * rng.choice((1, -1)))
        if 1 < x.norm() <= 10 ** 8:
            out.append(x)
    return out


def test_divisor_scan_matches_oracle_large_norms():
    # single elements with norms up to 10^8, where most divisors are
    # reached as cofactors, then lists whose least-norm element is not
    # first (a multiple of it and its conjugate come before it)
    rng = random.Random(13)
    xs = _seeded_large_elements(rng, 60)
    for x in xs:
        _assert_scans_match([x])
    for x in xs[:30]:
        y = x.cfg.el(rng.randint(1, 9), rng.randint(-3, 3))
        _assert_scans_match([x * y, x * conj(y), x])
        _assert_scans_match([x * x, x.cfg.el(0), x * y])


def test_divisor_scan_reads_only_small_norms(monkeypatch):
    # the scan reads a class list only for n <= isqrt(norm(x)): a
    # divisor of larger norm is reached through its cofactor.  For one
    # element each such divisor n of its norm is read once, ascending:
    # the pass over n finds the divisors of norm n and of norm(x)/n
    import quadfactor.qint as qint
    asked, read = [], qint._elements_of_norm

    def recorder(n, cfg):
        asked.append(n)
        return read(n, cfg)

    monkeypatch.setattr(qint, "_elements_of_norm", recorder)
    rng = random.Random(14)
    for x in _seeded_large_elements(rng, 60):
        asked.clear()
        assert list(irreducible_common_divisors([x]))
        n = x.norm()
        assert asked == [s for s in _divisors(n) if s * s <= n], x
        # in a list, the bound is set by the element of least norm
        asked.clear()
        y = x.cfg.el(rng.randint(2, 9), rng.randint(-3, 3))
        assert list(irreducible_common_divisors([x * y, x]))
        assert asked and max(asked) <= math.isqrt(x.norm()), x


def test_canonical_coords_scale_invariant():
    # canonical_associate reads a KElem's numerators over den directly:
    # a positive scale of (a, b) must pick the same unit multiple, for
    # every unit multiple of every element of the grid
    for d in (-1, -5):
        for a in range(-12, 13):
            for b in range(-12, 13):
                for ua, ub in _associate_coords(a, b, d):
                    ca, cb = _canonical_coords(ua, ub, d)
                    for k in (2, 3, 7, 10 ** 20 + 1):
                        assert _canonical_coords(k * ua, k * ub, d) == \
                            (k * ca, k * cb), (ua, ub, k, d)
