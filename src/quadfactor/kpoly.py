"""Polynomials over K = Q(sqrt(d)) and factorization in K[x].

A scalar is a `qint.KElem`, (a + b*w)/den: integers a, b over one
common denominator den > 0, reduced so that gcd(a, b, den) = 1.
Polynomials keep coefficients low-to-high in one type, `KPoly`, for
K[x] and its subring R[x]: a polynomial lies in R[x] when every
coefficient lies in Z[w] (`is_integral`), and the functions that need
R[x] check that with `qint.check_integral`.

Rational polynomials are factored over Z by the Zassenhaus method
(`zpoly.zassenhaus`: Berlekamp mod p, Hensel lifting, recombination)
after splitting off content and repeated factors.

K[x] factorization reduces to Q[x] by norm descent (Trager 1976): shift
f by s*w until N(x) = g*conj(g) is squarefree, factor N over Q, and read
each K-factor off as gcd(g, h_i).  Every quadratic, input or Q-factor,
splits by its discriminant instead, with no descent.  Each factorization
is checked by multiplying back before it is returned.
"""

from __future__ import annotations

import math

from .errors import DomainError, ResourceLimitError, VerificationError
from .qint import KElem, RingCfg, _twice_sqrt, order_key, try_div
from .zpoly import zassenhaus

FACTOR_Q_MAX_DEG = 8
FACTOR_K_MAX_DEG = 6
_SHIFT_LIMIT = 20
_SHIFTS = tuple(s for k in range(1, _SHIFT_LIMIT + 1) for s in (k, -k))


def sqrt_in_field(z: KElem) -> KElem | None:
    """A square root of z inside K = Q(sqrt(d)), or None.

    z*den^2 = (a + b*w)*den lies in Z[w], and qint._twice_sqrt gives
    t = 2*den*sqrt(z) in integers, so the root is t/(2*den): the one
    with positive rational part, or with rational part 0 and
    nonnegative w-part."""
    if z.is_zero():
        return z
    t = _twice_sqrt(z.a * z.den, z.b * z.den, z.cfg.d)
    if t is None:
        return None
    return KElem(t[0], t[1], z.cfg, 2 * z.den)


class KPoly:
    """A polynomial over K = Q(sqrt(d)); coefficient i multiplies x^i.

    R[x] is the subring whose coefficients all lie in Z[w]
    (is_integral); is_unit and try_scale_div answer in R[x]."""

    __slots__ = ("coeffs", "cfg")

    def __init__(self, coeffs, cfg: RingCfg):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self.cfg = cfg

    @classmethod
    def const(cls, z):
        return cls([z], z.cfg)

    @staticmethod
    def from_rationals(vals, cfg: RingCfg) -> "KPoly":
        return KPoly([KElem.of(v, 0, cfg) for v in vals], cfg)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def zero_elem(self) -> KElem:
        return KElem(0, 0, self.cfg)

    def one_elem(self) -> KElem:
        return KElem(1, 0, self.cfg)

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.zero_elem()

    def __add__(self, o):
        n = max(len(self.coeffs), len(o.coeffs))
        return KPoly([self.coeff(i) + o.coeff(i) for i in range(n)], self.cfg)

    def __sub__(self, o):
        n = max(len(self.coeffs), len(o.coeffs))
        return KPoly([self.coeff(i) - o.coeff(i) for i in range(n)], self.cfg)

    def __neg__(self):
        return KPoly([-c for c in self.coeffs], self.cfg)

    def __mul__(self, o):
        if self.is_zero() or o.is_zero():
            return KPoly([], self.cfg)
        out = [self.zero_elem()] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(o.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return KPoly(out, self.cfg)

    def scale(self, z):
        return KPoly([c * z for c in self.coeffs], self.cfg)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, KPoly) and self.coeffs == other.coeffs
                and self.cfg.d == other.cfg.d)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.cfg.d))

    def __repr__(self) -> str:
        return f"KPoly({self}, d={self.cfg.d})"

    def __str__(self) -> str:
        out = ""
        for k in range(self.degree(), -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = str(-c)
            composite = (any(ch in cs[1:] for ch in "+-")
                         and not cs.startswith("("))
            if k == 0:
                # a trailing "+a-b*w" parses the same without parens;
                # only "-(a-b*w)" genuinely needs them
                body = f"({cs})" if neg and composite else cs
            else:
                if composite:
                    cs = f"({cs})"
                xpow = "x" if k == 1 else f"x^{k}"
                body = xpow if cs == "1" else f"{cs}*{xpow}"
            out += ("-" if neg else "+" if out else "") + body
        return out or "0"

    def is_unit(self) -> bool:
        """A unit of R[x]: a constant unit of R."""
        return self.degree() == 0 and self.coeffs[0].is_unit()

    def is_rational(self) -> bool:
        return all(c.b == 0 for c in self.coeffs)

    def monic(self) -> "KPoly":
        return self.scale(self.lc().inv())

    def divmod(self, g: "KPoly") -> tuple["KPoly", "KPoly"]:
        if g.is_zero():
            raise DomainError("polynomial division by zero")
        n, inv, rem = g.degree(), g.lc().inv(), list(self.coeffs)
        q = [self.zero_elem()] * max(len(rem) - n, 0)
        for k in reversed(range(len(q))):
            c = q[k] = rem[k + n] * inv
            for i, gc in enumerate(g.coeffs):
                rem[k + i] = rem[k + i] - c * gc
        return KPoly(q, self.cfg), KPoly(rem[:n], self.cfg)

    def derivative(self) -> "KPoly":
        return KPoly([KElem(i, 0, self.cfg) * c
                      for i, c in enumerate(self.coeffs)][1:], self.cfg)

    def conj_coeffs(self) -> "KPoly":
        return KPoly([c.conj() for c in self.coeffs], self.cfg)

    def shifted(self, t: KElem) -> "KPoly":
        """f(x + t), computed by Horner over K[x]."""
        x_plus_t = KPoly([t, self.one_elem()], self.cfg)
        acc = KPoly([], self.cfg)
        for c in reversed(self.coeffs):
            acc = acc * x_plus_t + KPoly.const(c)
        return acc

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.coeffs)

    def try_scale_div(self, c: KElem) -> "KPoly | None":
        """self / c in R[x] if c divides every coefficient in R, else None."""
        out = []
        for a in self.coeffs:
            q = try_div(a, c)
            if q is None:
                return None
            out.append(q)
        return KPoly(out, self.cfg)


def poly_order_key(p: KPoly):
    return (p.degree(), tuple(order_key(c) for c in reversed(p.coeffs)))


def poly_gcd(f: KPoly, g: KPoly) -> KPoly:
    """Monic gcd in K[x] by the Euclidean algorithm (field coefficients)."""
    if f.is_zero() and g.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f.divmod(g)[1]
    return f.monic()


def _integer_form(p: KPoly) -> tuple[KElem, list[int]]:
    """(c, F) with rational p = c * F, F primitive in Z[x] with lc > 0."""
    den = math.lcm(*(c.den for c in p.coeffs))
    ints = [c.a * (den // c.den) for c in p.coeffs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return KElem(g, 0, p.cfg, den), [c // g for c in ints]


def _repeat(f: KPoly, distinct: list[KPoly]) -> list[KPoly]:
    """The distinct factors of f, each repeated by its multiplicity."""
    out = []
    for q in distinct:
        quo, r = f.divmod(q)
        while r.is_zero():
            out.append(q)
            f = quo
            quo, r = f.divmod(q)
    return out


def _checked(f: KPoly, unit: KElem, factors: list[KPoly]):
    """(unit, sorted factors), once they multiply back to f exactly."""
    prod = KPoly.const(unit)
    for q in factors:
        prod = prod * q
    if prod != f:
        raise VerificationError(f"factors of {f} do not multiply back")
    return unit, sorted(factors, key=poly_order_key)


def factor_q(f: KPoly) -> tuple[KElem, list[KPoly]]:
    """Factor a rational polynomial into unit * irreducible integer
    polynomials (primitive, positive leading coefficient), repeated by
    multiplicity.
    """
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    if not f.is_rational():
        raise DomainError("factor_q expects rational coefficients")
    if f.degree() > FACTOR_Q_MAX_DEG:
        raise ResourceLimitError(
            f"degree {f.degree()} exceeds factor_q guard {FACTOR_Q_MAX_DEG}")
    content, F = _integer_form(f)
    sqf = f.divmod(poly_gcd(f, f.derivative()))[0]
    distinct = [KPoly.from_rationals(g, f.cfg) for g in
                (zassenhaus(_integer_form(sqf)[1]) if len(F) > 1 else ())]
    return _checked(f, content, _repeat(f, distinct))


def _trager(h: KPoly) -> list[KPoly]:
    """Distinct monic irreducible K[x]-factors of monic squarefree h.

    Every quadratic, h or a Q-factor of it, goes to _quadratic_factors.
    Any other rational h is factored over Q first, by one Zassenhaus call
    on its integer form (h is already squarefree), and each other Q-factor
    descends from shift 1: at shift 0 its norm h^2 is never squarefree.
    """
    if h.degree() == 2:
        return _quadratic_factors(h)
    if not h.is_rational():
        return _descent(h, (0,) + _SHIFTS)
    qs = (KPoly.from_rationals(q, h.cfg).monic()
          for q in zassenhaus(_integer_form(h)[1]))
    return [g for q in qs for g in (_quadratic_factors(q) if q.degree() == 2
                                    else _descent(q, _SHIFTS))]


def _descent(h: KPoly, shifts: tuple[int, ...]) -> list[KPoly]:
    """Trager's norm descent for monic squarefree h.

    Shift h by s*w until N = g * conj(g) is squarefree over Q; then the
    rational irreducible factors of N are exactly the norms of the
    K-factors of g, and each K-factor is recovered as a gcd.  N has a
    repeated root only where a root of h plus s*w meets a root of
    conj(h) minus s*w, which fixes s for each of the deg(h)^2 <= 36 pairs
    of roots; so one of the 41 shifts 0, +-1, ..., +-20 works (one of the
    40 nonzero ones for rational h, whose pairs of equal roots meet at
    s = 0).
    """
    cfg = h.cfg
    if h.degree() <= 1:
        return [h]
    for s in shifts:
        g = h.shifted(KElem(0, -s, cfg))  # g(x) = h(x - s*w)
        normpoly = g * g.conj_coeffs()
        if not normpoly.is_rational():
            raise VerificationError(f"norm of {g} is not rational")
        if poly_gcd(normpoly, normpoly.derivative()).degree() != 0:
            continue
        gcds = (poly_gcd(g, KPoly.from_rationals(n, cfg))
                for n in zassenhaus(_integer_form(normpoly)[1]))
        out = [q.shifted(KElem(0, s, cfg)).monic() for q in gcds]
        if sum(q.degree() for q in out) != h.degree():
            raise VerificationError(f"norm descent lost factors of {h}")
        return sorted(out, key=poly_order_key)
    raise VerificationError(f"no squarefree norm shift for {h}")


def _quadratic_factors(h: KPoly) -> list[KPoly]:
    """Distinct monic irreducible K[x]-factors of monic squarefree
    h = x^2 + b*x + c: x - r for the roots r = (-b +- s)/2 when the
    discriminant b^2 - 4c has a square root s in K, else h itself."""
    b, c = h.coeff(1), h.coeff(0)
    s = sqrt_in_field(b * b - c * KElem(4, 0, h.cfg))
    if s is None:
        return [h]
    half = KElem(1, 0, h.cfg, 2)
    return sorted((KPoly([(b + t) * half, h.one_elem()], h.cfg)
                   for t in (s, -s)), key=poly_order_key)


def factor_k(f: KPoly) -> tuple[KElem, list[KPoly]]:
    """Complete factorization in K[x]: unit * monic irreducibles
    (repeated according to multiplicity).
    """
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    if f.degree() > FACTOR_K_MAX_DEG:
        raise ResourceLimitError(
            f"degree {f.degree()} exceeds factor_k guard {FACTOR_K_MAX_DEG}")
    unit = f.lc()
    m = f.monic()
    if m.degree() == 0:
        return unit, []
    sqf = m.divmod(poly_gcd(m, m.derivative()))[0]
    return _checked(f, unit, _repeat(m, _trager(sqf)))
