"""Fractional ideals of Z[w] as integer lattices, and the divisorial
operations built on them.

A nonzero fractional ideal is (1/m) * L for a full rank-2 sublattice
L <= Z^2 (coordinates over the basis {1, w}) closed under multiplication
by w.  L is kept in Hermite normal form L = Z*(a,0) + Z*(b,c) with a > 0,
c > 0, 0 <= b < a, and m minimal.  This representation is unique, so
ideal equality is representation equality.

The colon ideal (R : I) is read off the Hermite form in closed form,
never by inversion formulas: in a non-maximal order some ideals are not
invertible, and (R : I) must still come out right there.

Z[w] = Z[x]/(x^2 - d) is monogenic, hence Gorenstein, so by Bass ("On
the ubiquity of Gorenstein rings", 1963) every nonzero fractional ideal
is divisorial: I_v = I.  gcd_v and gamma_check read I itself; v_closure
remains the definition (R : (R : I)), checked against the theorem.

is_principal and is_superprimitive read their answers off one Lagrange
reduction of the numerator lattice, with no lattice walk.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, VerificationError, load
from .qint import (KElem, RingCfg, _canonical_coords, check_coeff_norms,
                   check_integral, common_nonunit_divisor)


def hnf2(vecs: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form (a, b, c) of the lattice spanned by integer vectors:
    lattice = Z*(a,0) + Z*(b,c), a > 0, c > 0, 0 <= b < a.

    Euclid on the second coordinates folds each (x, y) into a pivot
    (b, c): each step (b, c), (x, y) := (x, y), (b - q*x, c - q*y) is
    unimodular, so the span does not change, and the leftover (x, 0)
    joins a = gcd(a, x).
    """
    a = b = c = 0
    for x, y in vecs:
        while y:
            q = c // y
            b, c, x, y = x, y, b - q * x, c - q * y
        a = math.gcd(a, x)
    if c == 0 or a == 0:
        raise DomainError("lattice is not full rank")
    if c < 0:
        b, c = -b, -c
    return a, b % a, c


class FracIdeal(namedtuple("FracIdeal", "a b c denom cfg")):
    """Fractional ideal (1/denom) * (Z*(a,0) + Z*(b,c)) of Z[w]; the
    reduced form is unique, so equality compares the fields.  __new__
    checks the fields; the inherited _make and _replace do not."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, denom: int, cfg: RingCfg):
        self = super().__new__(cls, a, b, c, denom, cfg)
        # reduced Hermite form, closed under the w-action (x, y) -> (d*y, x)
        if not (0 <= b < a and c > 0 and denom > 0
                and math.gcd(a, b, c, denom) == 1
                and self._lattice_member(0, a)
                and self._lattice_member(cfg.d * c, b)):
            raise VerificationError(f"{self!r} is not a reduced ideal lattice")
        return self

    def _lattice_member(self, x: int, y: int) -> bool:
        if y % self.c:
            return False
        return (x - (y // self.c) * self.b) % self.a == 0

    def basis(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, 0), (self.b, self.c))

    def generators(self) -> list[KElem]:
        m = self.denom
        return [KElem(self.a, 0, self.cfg, m),
                KElem(self.b, self.c, self.cfg, m)]

    def contains(self, z: KElem) -> bool:
        # z*denom must be integral: as gcd(a, b, den) = 1, den | denom
        q, r = divmod(self.denom, z.den)
        return not r and self._lattice_member(z.a * q, z.b * q)

    def norm(self):
        """Index-based norm a*c / denom^2 (the module index [R : I],
        extended multiplicatively to fractional ideals)."""
        return load("fractions").Fraction(self.a * self.c,
                                           self.denom * self.denom)

    def __str__(self) -> str:
        g1, g2 = self.generators()
        return f"<{g1}; {g2}>"


def _make(vectors: list[tuple[int, int]], denom: int, cfg: RingCfg) -> FracIdeal:
    """(1/denom) * span(vectors), reduced.  b // g needs no reduction
    mod a // g: 0 <= b < a and g divides both."""
    a, b, c = hnf2(vectors)
    g = math.gcd(a, b, c, denom)
    return FracIdeal(a // g, b // g, c // g, denom // g, cfg)


def unit_ideal(cfg: RingCfg) -> FracIdeal:
    return FracIdeal(1, 0, 1, 1, cfg)


def ideal_from_gens(gens: list[KElem]) -> FracIdeal:
    """The fractional R-module generated by the given field elements."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise DomainError("the zero ideal is not representable")
    cfg = gens[0].cfg
    m = math.lcm(*(g.den for g in gens))
    vecs = []
    for g in gens:
        x, y = g.a * (m // g.den), g.b * (m // g.den)
        vecs.append((x, y))
        vecs.append((cfg.d * y, x))  # w * g
    return _make(vecs, m, cfg)


def _products(I: FracIdeal, J: FracIdeal) -> list[tuple[int, int]]:
    """Numerators of the pairwise products of the lattice bases; over
    I.denom * J.denom they generate I*J (both factors are already
    w-closed, so four products suffice)."""
    d = I.cfg.d
    return [(x1 * x2 + d * y1 * y2, x1 * y2 + y1 * x2)
            for x1, y1 in I.basis() for x2, y2 in J.basis()]


def mul(I: FracIdeal, J: FracIdeal) -> FracIdeal:
    """Product ideal."""
    if I.cfg.d != J.cfg.d:
        raise DomainError("mixed rings")
    return _make(_products(I, J), I.denom * J.denom, I.cfg)


def colon(I: FracIdeal) -> FracIdeal:
    """(R : I) = {z in K : z*I <= R}, in closed form from the Hermite form.

    Write I = (1/m)L with L spanned by (a,0) and (b,c).  L is closed
    under w, so c | a, c | b, and A = a/c divides B^2 - d for B = b/c.
    z*a in mR forces z = (m/a)(s + t*w) with integer s, t; then z*(b+c*w)
    lies in mR iff s*B + t*d = 0 and s + t*B = 0 mod A, and the first
    congruence follows from the second.  So (R : I) is (m/a) times the
    lattice {s = -B*t mod A} = span{(A,0), (-B,1)}.  No inverse is used,
    so ideals that are not invertible come out right too.  The answer is
    checked against the definition, (R : I)*I <= R, and a failure raises
    VerificationError.
    """
    a, b, c, m = I.a, I.b, I.c, I.denom
    A, B = a // c, b // c
    g = math.gcd(m, a)
    C = FracIdeal(m * A // g, m * (-B % A) // g, m // g, a // g, I.cfg)
    # (R : I)*I <= R: every basis product is integral
    D = C.denom * m
    if any(x % D or y % D for x, y in _products(C, I)):
        raise VerificationError(f"(R : I)*I is not integral for I = {I}")
    return C


def v_closure(I: FracIdeal) -> FracIdeal:
    """Divisorial closure I_v = (R : (R : I))."""
    return colon(colon(I))


def _reduced_basis(I: FracIdeal):
    """Lagrange-reduced basis of the numerator lattice of I for the
    norm form x^2 + |d|*y^2; the first vector is a shortest one."""
    dd = -I.cfg.d

    def q(p):
        return p[0] * p[0] + dd * p[1] * p[1]

    u, v = sorted([(I.a, 0), (I.b, I.c)], key=q)
    while True:
        k = (2 * (u[0] * v[0] + dd * u[1] * v[1]) + q(u)) // (2 * q(u))
        v = (v[0] - k * u[0], v[1] - k * u[1])
        if q(v) >= q(u):
            return u, v
        u, v = v, u


def is_principal(I: FracIdeal) -> KElem | None:
    """A generator if I = gR for some g in K, else None.

    Every nonzero element z of the numerator lattice L = denom*I spans
    zR <= L, so normk(z) = [R : zR] >= [R : L] = a*c, with equality
    exactly when zR = L.  So I is principal exactly when a shortest
    vector u of L under the norm form has norm a*c, and then u/denom
    generates I.  The generators are the unit multiples of one another,
    so the canonical one is returned, read off the numerators of u over
    denom: a positive scale changes neither.  The answer is checked by
    exact ideal equality, and a failure raises VerificationError.
    """
    (x, y), _ = _reduced_basis(I)
    d = I.cfg.d
    if x * x - d * y * y != I.a * I.c:
        return None
    if _make([(x, y), (d * y, x)], I.denom, I.cfg) != I:
        raise VerificationError(f"{I} is not generated by its shortest vector")
    return KElem(*_canonical_coords(x, y, d), I.cfg, I.denom)


# ---------------------------------------------------------------------------
# content ideals of polynomials over Z[w]
# ---------------------------------------------------------------------------

def _coeff_list(f) -> list[KElem]:
    """The coefficients of f, which must be a nonzero polynomial of R[x]."""
    coeffs = list(f.coeffs)
    if not coeffs or all(c.is_zero() for c in coeffs):
        raise DomainError("zero polynomial has no content ideal")
    check_integral(coeffs)
    return coeffs


def content_ideal(f) -> FracIdeal:
    """A_f: the ideal generated by the coefficients of f over Z[w]."""
    return ideal_from_gens(_coeff_list(f))


def is_primitive(f) -> bool:
    """No single nonunit of Z[w] divides every coefficient.  The divisor
    scan factors the gcd of the coefficient norms by trial division, so
    a coefficient norm past qint.MAX_COEFF_NORM raises
    ResourceLimitError."""
    coeffs = _coeff_list(f)
    check_coeff_norms(coeffs)
    return common_nonunit_divisor(coeffs) is None


def is_superprimitive(f) -> tuple[bool, KElem | None]:
    """Whether (R : A_f) = R; when it is not, also return a witness
    z with z*A_f <= R and z outside R.

    (R : A_f) always contains R; it equals R exactly when the reduced
    denominator m of the colon ideal is 1.  Otherwise the witness is the
    canonical non-integral point least by (x^2 + |d|*y^2, |x|, y) on its
    numerators (x, y) over m.  With (u, v) from _reduced_basis, 2<u,v>
    lies in [-q(u), q(u)) and q(u) <= q(v), so every i*u + j*v but the
    multiples of u, +-v and +-(u+v) has norm > q(v) (>= 3*q(v) when
    |j| >= 2).  u and v are not both integral, so the witness is the
    least non-integral one of u, v and u+v.
    """
    C = colon(content_ideal(f))
    m, d = C.denom, C.cfg.d
    if m == 1:
        return True, None
    u, v = _reduced_basis(C)
    cands = (_canonical_coords(x, y, d)
             for x, y in (u, v, (u[0] + v[0], u[1] + v[1]))
             if x % m or y % m)
    x, y = min(cands, key=lambda p: (p[0] * p[0] - d * p[1] * p[1],
                                     abs(p[0]), p[1]))
    return False, KElem(x, y, C.cfg, m)


def gcd_v(elems: list[KElem]) -> KElem | None:
    """Greatest common divisor in the divisor-theoretic sense: g such
    that the common divisors of the input are exactly the divisors of g.
    Exists iff the v-closure of the generated ideal I is principal, and
    I_v = I by Bass's theorem, so is_principal reads I itself; None when
    it is not.  g is the canonical generator, in Z[w] when the elements
    are; v_closure remains the definition the tests check against."""
    if all(e.is_zero() for e in elems):
        raise DomainError("gcd of zeros is undefined")
    return is_principal(ideal_from_gens(elems))


def gauss_product_check(f, g) -> bool:
    """For primitive f, g over Z[w]: is f*g primitive?

    True instances are consistent with the Gauss lemma; a False instance
    certifies its failure over this ring."""
    if not (is_primitive(f) and is_primitive(g)):
        raise DomainError("gauss_product_check expects primitive inputs")
    return common_nonunit_divisor(list((f * g).coeffs)) is None


class GammaReport(namedtuple("GammaReport",
                              "product_v_trivial b_v_generator")):
    """One instance of the implication (B*C)_v = R  ==>  B_v principal:
    whether the premise holds, and a generator of B_v = B (Bass), if any."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return not self.product_v_trivial or self.b_v_generator is not None


def gamma_check(B: FracIdeal, C: FracIdeal) -> GammaReport:
    """(B*C)_v = R  ==>  B_v principal, read on B*C and B themselves as
    I_v = I (Bass); v_closure remains the definition the tests check."""
    return GammaReport(product_v_trivial=mul(B, C) == unit_ideal(B.cfg),
                       b_v_generator=is_principal(B))
