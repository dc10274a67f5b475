"""Kronecker's interpolation method, kept only as a test oracle.

The Q[x] factorer kpoly used before Zassenhaus: a degree-k divisor of f
is determined by its values at k+1 points, and each value g(x_i) must
divide f(x_i), so finitely many divisor combinations exhaust all
candidates.  Evaluation points are 0, 1, -1, 2, -2, ... skipping roots
of f (a root found on the way is itself a factor).  Exact but
exponential in the degree; use it on degree <= 4."""

import math
from fractions import Fraction

from kelem_oracle import coords
from quadfactor.kpoly import KElem, KPoly, poly_order_key
from quadfactor.qint import _divisors


def _int_eval(F: list[int], x: int) -> int:
    acc = 0
    for c in reversed(F):
        acc = acc * x + c
    return acc


def _signed_divisors(n: int) -> tuple[int, ...]:
    """Divisors of n by ascending absolute value, positive first."""
    return tuple(s for t in _divisors(abs(n)) for s in (t, -t))


def _points():
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _lagrange(pts: list[int], vals: list[int]) -> list[Fraction]:
    """Interpolating polynomial (coefficients low-to-high, Fractions)."""
    n = len(pts)
    acc = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            # multiply basis by (x - pts[j])
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= pts[j] * basis[k + 1]
            denom *= pts[i] - pts[j]
        scale = Fraction(vals[i]) / denom
        for k in range(len(basis)):
            acc[k] += scale * basis[k]
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def _frac_divmod(F: list[int], G: list[int]):
    q = [Fraction(0)] * max(len(F) - len(G) + 1, 0)
    rem = [Fraction(c) for c in F]
    while len(rem) >= len(G) and rem:
        c = rem[-1] / G[-1]
        k = len(rem) - len(G)
        q[k] = c
        for i, gc in enumerate(G):
            rem[k + i] -= c * gc
        while rem and rem[-1] == 0:
            rem.pop()
    return q, rem


def _exact_int_quotient(F: list[int], G: list[int]) -> list[int] | None:
    q, r = _frac_divmod(F, G)
    if r:
        return None
    if any(c.denominator != 1 for c in q):
        return None
    return [int(c) for c in q]


def _compatible_combos(pts: list[int], divlists: list[tuple[int, ...]]):
    """Divisor tuples with d_i = d_j mod (x_i - x_j) for all pairs.

    Any integer polynomial g satisfies g(x_i) = g(x_j) mod (x_i - x_j),
    so incompatible tuples cannot interpolate to an integer divisor and
    are pruned before interpolation.
    """
    chosen: list[int] = []

    def rec(i: int):
        if i == len(pts):
            yield tuple(chosen)
            return
        for cand in divlists[i]:
            if all((cand - chosen[j]) % (pts[i] - pts[j]) == 0
                   for j in range(i)):
                chosen.append(cand)
                yield from rec(i + 1)
                chosen.pop()

    yield from rec(0)


def kronecker(F: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive integer polynomial, lc > 0.

    Factors of minimal degree are found first, which certifies their
    irreducibility: any proper factor would already have shown up at a
    smaller k.
    """
    n = len(F) - 1
    if n == 1:
        return [F[:]]
    kmax = n // 2
    pts: list[int] = []
    vals: list[int] = []
    gen = _points()
    while len(pts) < kmax + 1:
        x = next(gen)
        fx = _int_eval(F, x)
        if fx == 0:
            g = [-x, 1]
            q = _exact_int_quotient(F, g)
            assert q is not None
            return sorted([g] + kronecker(q),
                          key=lambda h: (len(h), tuple(reversed(h))))
        pts.append(x)
        vals.append(fx)
    for k in range(1, kmax + 1):
        p = pts[:k + 1]
        divlists = [_signed_divisors(v) for v in vals[:k + 1]]
        # g and -g interpolate from opposite sign tuples; fixing the first
        # divisor positive halves the search without losing candidates
        divlists[0] = tuple(t for t in divlists[0] if t > 0)
        for combo in _compatible_combos(p, divlists):
            cand = _lagrange(p, list(combo))
            if len(cand) - 1 != k or any(c.denominator != 1 for c in cand):
                continue
            g = [int(c) for c in cand]
            if g[-1] < 0:
                g = [-c for c in g]
            q = _exact_int_quotient(F, g)
            if q is not None:
                return sorted(kronecker(g) + kronecker(q),
                              key=lambda h: (len(h), tuple(reversed(h))))
    return [F[:]]


def rational_factors(p: KPoly) -> tuple[KElem, list[KPoly]]:
    """content * product-of-primitive-integer-irreducibles for rational p,
    as kpoly.factor_q returns it, by Kronecker's method."""
    us = [coords(c)[0] for c in p.coeffs]
    denl = 1
    for u in us:
        denl = math.lcm(denl, u.denominator)
    ints = [int(u * denl) for u in us]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    sign = 1 if ints[-1] > 0 else -1
    F = [c // (g * sign) for c in ints]
    content = KElem.of(Fraction(g * sign, denl), 0, p.cfg)
    if len(F) == 1:
        return content, []
    factors = [KPoly.from_rationals(h, p.cfg) for h in kronecker(F)]
    return content, sorted(factors, key=poly_order_key)
