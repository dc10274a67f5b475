"""Fractional ideals of Z[w] as integer lattices, and the divisorial
operations built on them.

A nonzero fractional ideal is (1/m) * L for a full rank-2 sublattice
L <= Z^2 (coordinates over the basis {1, w}) closed under multiplication
by w.  L is kept in Hermite normal form L = Z*(a,0) + Z*(b,c) with a > 0,
c > 0, 0 <= b < a, and m minimal.  This representation is unique, so
ideal equality is representation equality.

The colon ideal (R : I) is computed by pure integer linear algebra (a
kernel over Z), never by inversion formulas: in a non-maximal order some
ideals are not invertible, and (R : I) must still come out right there.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, VerificationError
from .qint import (KElem, RingCfg, _canonical_coords, _coords_key,
                   check_coeff_norms, check_integral,
                   common_nonunit_divisor)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf2(vecs: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form (a, b, c) of the lattice spanned by integer vectors:
    lattice = Z*(a,0) + Z*(b,c), a > 0, c > 0, 0 <= b < a.
    """
    xs = []
    piv = None  # running combination with nonzero y-coordinate
    for x, y in vecs:
        if y == 0:
            xs.append(x)
            continue
        if piv is None:
            piv = (x, y)
            continue
        g, s, t = _xgcd(piv[1], y)
        leftover = (y // g) * piv[0] - (piv[1] // g) * x
        piv = (s * piv[0] + t * x, g)
        xs.append(leftover)
    a = 0
    for x in xs:
        a = math.gcd(a, x)
    if piv is None or a == 0:
        raise DomainError("lattice is not full rank")
    b, c = piv
    if c < 0:
        b, c = -b, -c
    b %= a
    return a, b, c


def _int_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {v : A v = 0} for the matrix with the
    given rows, via column elimination with a unimodular transform."""
    r = len(rows)
    n = len(rows[0])
    B = [[rows[j][i] for j in range(r)] for i in range(n)]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(r):
        while True:
            nz = [i for i in range(rank, n) if B[i][col] != 0]
            if len(nz) <= 1:
                break
            i, j = nz[0], nz[1]
            bi, bj = B[i][col], B[j][col]
            g, s, t = _xgcd(bi, bj)
            Bi, Bj, Ui, Uj = B[i][:], B[j][:], U[i][:], U[j][:]
            B[i] = [s * p + t * q for p, q in zip(Bi, Bj)]
            U[i] = [s * p + t * q for p, q in zip(Ui, Uj)]
            B[j] = [(bi // g) * q - (bj // g) * p for p, q in zip(Bi, Bj)]
            U[j] = [(bi // g) * q - (bj // g) * p for p, q in zip(Ui, Uj)]
        nz = [i for i in range(rank, n) if B[i][col] != 0]
        if nz:
            i = nz[0]
            B[rank], B[i] = B[i], B[rank]
            U[rank], U[i] = U[i], U[rank]
            rank += 1
    return [U[i] for i in range(rank, n)]


class FracIdeal:
    """Fractional ideal (1/denom) * (Z*(a,0) + Z*(b,c)) of Z[w]; the
    reduced form is unique, so equality compares the fields."""

    __slots__ = ("a", "b", "c", "denom", "cfg")

    def __init__(self, a: int, b: int, c: int, denom: int, cfg: RingCfg):
        self.a, self.b, self.c, self.denom, self.cfg = a, b, c, denom, cfg
        # reduced Hermite form, closed under the w-action (x, y) -> (d*y, x)
        if not (0 <= b < a and c > 0 and denom > 0
                and math.gcd(a, b, c, denom) == 1
                and self._lattice_member(0, a)
                and self._lattice_member(cfg.d * c, b)):
            raise VerificationError(f"{self!r} is not a reduced ideal lattice")

    def _fields(self) -> tuple:
        return self.a, self.b, self.c, self.denom, self.cfg.d

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FracIdeal)
                and self._fields() == other._fields())

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"FracIdeal(a={self.a}, b={self.b}, c={self.c}, "
                f"denom={self.denom}, cfg={self.cfg!r})")

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

    def norm(self) -> Fraction:
        """Index-based norm a*c / denom^2 (the module index [R : I],
        extended multiplicatively to fractional ideals)."""
        return Fraction(self.a * self.c, self.denom * self.denom)

    def __str__(self) -> str:
        g1, g2 = self.generators()
        return f"<{g1}; {g2}>"


def _make(vectors: list[tuple[int, int]], denom: int, cfg: RingCfg) -> FracIdeal:
    a, b, c = hnf2(vectors)
    g = math.gcd(math.gcd(a, b), math.gcd(c, denom))
    return FracIdeal(a // g, (b // g) % (a // g), c // g, denom // g, cfg)


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


def mul(I: FracIdeal, J: FracIdeal) -> FracIdeal:
    """Product ideal; generated by pairwise products of lattice bases
    (both factors are already w-closed, so four products suffice)."""
    if I.cfg.d != J.cfg.d:
        raise DomainError("mixed rings")
    d = I.cfg.d
    vecs = []
    for x1, y1 in I.basis():
        for x2, y2 in J.basis():
            vecs.append((x1 * x2 + d * y1 * y2, x1 * y2 + y1 * x2))
    return _make(vecs, I.denom * J.denom, I.cfg)


def colon(I: FracIdeal) -> FracIdeal:
    """(R : I) = {z in K : z*I <= R}, by integer linear algebra.

    Write I = (1/m)L with L spanned by u1 = (a,0), u2 = (b,c).  A field
    element z = p + q*w multiplies u1 into mR iff p, q lie in (m/a)Z, so
    z = (m/a)(s + t*w) with integer s, t.  The u2 condition then reads
    s*b + t*d*c = 0 and s*c + t*b = 0 mod a, i.e. (s,t) lies in the
    projection of the integer kernel of [[b, d*c, -a, 0], [c, b, 0, -a]].
    That projection is injective onto the solution set, so the two kernel
    basis vectors span it, and (R : I) = (m/a) * span.
    """
    d = I.cfg.d
    a, b, c, m = I.a, I.b, I.c, I.denom
    rows = [[b, d * c, -a, 0],
            [c, b, 0, -a]]
    kern = _int_kernel(rows)
    if len(kern) != 2:
        raise VerificationError(f"colon kernel has rank {len(kern)}, not 2")
    vecs = [(m * v[0], m * v[1]) for v in kern]
    return _make(vecs, a, I.cfg)


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


def _points_up_to(I: FracIdeal, bound: int):
    """Numerator vectors (x, y) of I with x^2 + |d|*y^2 <= bound: one
    row y = c*j per j, stepping x by a through the residue j*b mod a."""
    dd = -I.cfg.d
    jmax = math.isqrt(bound // (dd * I.c * I.c))
    for j in range(-jmax, jmax + 1):
        y = I.c * j
        xmax = math.isqrt(bound - dd * y * y)
        x0 = j * I.b - (j * I.b + xmax) // I.a * I.a
        for x in range(x0, xmax + 1, I.a):
            yield (x, y)


def is_principal(I: FracIdeal) -> KElem | None:
    """A generator if I = gR for some g in K, else None.

    gR = I forces normk(g) to equal the index norm of I, so candidates
    are the finitely many lattice points of that norm; each is checked by
    exact ideal equality, so a None answer is definitive.  The canonical
    generator least by _coords_key is returned, read off the numerators
    (x, y) over denom: a positive scale changes neither.
    """
    target = I.a * I.c  # normk(g) * denom^2 must equal a*c
    d = I.cfg.d
    best = None
    for x, y in _points_up_to(I, target):
        if x * x - d * y * y != target:
            continue
        if _make([(x, y), (d * y, x)], I.denom, I.cfg) == I:
            g = _canonical_coords(x, y, d)
            if best is None or _coords_key(g) < _coords_key(best):
                best = g
    return None if best is None else KElem(*best, I.cfg, I.denom)


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
    denominator of the colon ideal is 1.  Otherwise some vector of a
    reduced basis is non-integral, and its norm bounds the least norm
    of a non-integral point, so scanning the points up to that norm is
    exhaustive.  The witness is the smallest offender: among the
    canonical associates of least normk, the one minimizing (|u|, v),
    i.e. (x^2 + |d|*y^2, |x|, y) on the numerators (x, y) over denom.
    """
    C = colon(content_ideal(f))
    if C.denom == 1:
        return True, None
    m = C.denom
    d = C.cfg.d
    bound = min(x * x - d * y * y for x, y in _reduced_basis(C)
                if x % m or y % m)
    cands = (_canonical_coords(x, y, d)
             for x, y in _points_up_to(C, bound) if x % m or y % m)
    x, y = min(cands, key=lambda p: (p[0] * p[0] - d * p[1] * p[1],
                                     abs(p[0]), p[1]))
    return False, KElem(x, y, C.cfg, m)


def gcd_v(elems: list[KElem]) -> KElem | None:
    """Greatest common divisor in the divisor-theoretic sense: g such
    that the common divisors of the input are exactly the divisors of g.
    Exists iff the divisorial closure of the generated ideal is
    principal; None when it is not.  g is the canonical generator
    is_principal returns; it lies in Z[w] when the elements do, since
    the v-closure of an integral ideal is integral."""
    if all(e.is_zero() for e in elems):
        raise DomainError("gcd of zeros is undefined")
    return is_principal(v_closure(ideal_from_gens(elems)))


def gauss_product_check(f, g) -> bool:
    """For primitive f, g over Z[w]: is f*g primitive?

    True instances are consistent with the Gauss lemma; a False instance
    certifies its failure over this ring."""
    if not (is_primitive(f) and is_primitive(g)):
        raise DomainError("gauss_product_check expects primitive inputs")
    return common_nonunit_divisor(list((f * g).coeffs)) is None


class GammaReport:
    """One instance of the implication (B*C)_v = R  ==>  B_v principal:
    whether the premise holds, and a generator of B_v if it has one."""

    __slots__ = ("product_v_trivial", "b_v_generator")

    def __init__(self, product_v_trivial: bool, b_v_generator: KElem | None):
        self.product_v_trivial = product_v_trivial
        self.b_v_generator = b_v_generator

    @property
    def holds(self) -> bool:
        return not self.product_v_trivial or self.b_v_generator is not None


def gamma_check(B: FracIdeal, C: FracIdeal) -> GammaReport:
    """Instance of the implication: (B*C)_v = R  ==>  B_v principal."""
    return GammaReport(
        product_v_trivial=v_closure(mul(B, C)) == unit_ideal(B.cfg),
        b_v_generator=is_principal(v_closure(B)))
