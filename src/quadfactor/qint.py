"""Exact arithmetic in imaginary quadratic orders Z[w], w = sqrt(d).

Elements are a + b*w with integer a, b and d < 0 squarefree.  The norm
a^2 + |d|*b^2 is multiplicative, vanishes only at 0, and bounds every
divisor of an element, so divisibility, irreducibility and primality are
all decidable by finite enumeration.  Only d < 0 is supported: the unit
group is then finite ({1, -1}, plus {w, -w} when d = -1), which makes
"up to associates" a finite canonical notion.

Associate classes get a canonical representative: the unit multiple
minimizing (-sign(a), |a|, -sign(b), |b|) lexicographically, i.e. positive
rational part preferred, then small, then positive w-part.  The same
rule, and the same order key, serve the field elements of kpoly: both
scalar types hold integer numerators a, b over a denominator den > 0
(den = 1 for QuadInt) and are built as `type(x)(a, b, cfg[, den])`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import DomainError, VerificationError

MAX_ABS_D = 100

# Class numbers of Q(sqrt(d)) for the maximal orders we ship metadata for,
# from the standard tables of imaginary quadratic fields.  Orders whose d
# is missing report None.
_CLASS_NUMBERS = {
    -1: 1, -2: 1, -5: 2, -6: 2, -10: 2, -13: 2, -14: 4,
    -17: 4, -21: 4, -22: 2,
}


def _is_squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


class RingCfg:
    """Description of one order Z[sqrt(d)].  ring() makes exactly one
    per d, so equality and hashing are by identity."""

    __slots__ = ("d", "is_maximal", "class_number", "is_ufd")

    def __init__(self, d: int, is_maximal: bool, class_number: int | None,
                 is_ufd: bool):
        self.d, self.is_maximal = d, is_maximal
        self.class_number, self.is_ufd = class_number, is_ufd

    def el(self, a: int, b: int = 0) -> "QuadInt":
        return QuadInt(a, b, self)

    def __repr__(self) -> str:
        return f"RingCfg(d={self.d})"


@functools.lru_cache(maxsize=None)
def ring(d: int) -> RingCfg:
    """Validated configuration for Z[sqrt(d)], d < 0 squarefree, |d| <= 100."""
    if d >= 0:
        raise DomainError(f"d must be negative, got {d}")
    if abs(d) > MAX_ABS_D:
        raise DomainError(f"|d| must be <= {MAX_ABS_D}, got {d}")
    if not _is_squarefree(-d):
        raise DomainError(f"d must be squarefree, got {d}")
    # Z[sqrt(d)] is the maximal order iff d is not 1 mod 4 (e.g. d = -3
    # misses (1+sqrt(-3))/2, so it is a proper suborder of index 2).
    maximal = d % 4 != 1
    h = _CLASS_NUMBERS.get(d) if maximal else None
    return RingCfg(d=d, is_maximal=maximal, class_number=h,
                   is_ufd=maximal and h == 1)


class QuadInt:
    """An element a + b*w of Z[w], w = sqrt(d)."""

    __slots__ = ("a", "b", "cfg")
    den = 1  # the denominator kpoly.KElem carries, always 1 here

    def __init__(self, a: int, b: int, cfg: RingCfg):
        self.a = a
        self.b = b
        self.cfg = cfg

    def coords(self) -> tuple[int, int]:
        return self.a, self.b

    def norm(self) -> int:
        return self.a * self.a - self.cfg.d * self.b * self.b

    def conj(self) -> "QuadInt":
        return QuadInt(self.a, -self.b, self.cfg)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def _check(self, other: "QuadInt") -> None:
        if self.cfg.d != other.cfg.d:
            raise DomainError("mixed rings")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.cfg)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.cfg)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.cfg)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        d = self.cfg.d
        return QuadInt(self.a * other.a + d * self.b * other.b,
                       self.a * other.b + self.b * other.a, self.cfg)

    def __pow__(self, n: int) -> "QuadInt":
        if n < 0:
            raise DomainError("negative powers leave the order")
        out = QuadInt(1, 0, self.cfg)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QuadInt) and self.a == other.a
                and self.b == other.b and self.cfg.d == other.cfg.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.cfg.d))

    def __repr__(self) -> str:
        return f"QuadInt({self.a}, {self.b}, d={self.cfg.d})"

    def __str__(self) -> str:
        return format_coords(self.a, self.b)


def format_coords(a, b) -> str:
    """Render a + b*w; shared by integral and fractional scalar types."""
    if b == 0:
        return str(a)
    mag = "w" if abs(b) == 1 else f"{abs(b)}*w"
    wpart = mag if b > 0 else f"-{mag}"
    if a == 0:
        return wpart
    return f"{a}+{mag}" if b > 0 else f"{a}-{mag}"


def norm(x: QuadInt) -> int:
    return x.norm()


def conj(x: QuadInt) -> QuadInt:
    return x.conj()


def try_div(x: QuadInt, y: QuadInt) -> QuadInt | None:
    """Exact quotient x / y in Z[w], or None when y does not divide x.

    x / y = x * conj(y) / norm(y), so divisibility is two integer
    divisibility checks; no floating point is involved.
    """
    if y.is_zero():
        raise DomainError("division by zero")
    n = y.norm()
    t = x * y.conj()
    if t.a % n or t.b % n:
        return None
    return QuadInt(t.a // n, t.b // n, x.cfg)


def _twice_sqrt(a: int, b: int, d: int) -> tuple[int, int] | None:
    """(u, v) with (u + v*w)^2 = 4*(a + b*w), or None when a + b*w is no
    square in K.

    A square root s of D = a + b*w in K is integral over Z, so it lies
    in the ring of integers O_K, and 2*O_K lies in Z[w]: O_K is Z[w]
    itself, or Z[(1+w)/2] when d = 1 mod 4.  So t = 2*s = u + v*w has
    integer coordinates.  Its norm is 4*r with r = isqrt(norm(D)), and
    t^2 = 4*D reads u^2 + d*v^2 = 4*a, u*v = 2*b; hence u^2 = 2*(r + a)
    and -d*v^2 = 2*(r - a), three integer square-root tests, with the
    sign of v fixed by u*v = 2*b once u >= 0 is chosen."""
    n = a * a - d * b * b
    r = math.isqrt(n)
    if r * r != n:
        return None
    u = math.isqrt(2 * (r + a))
    if u * u != 2 * (r + a):
        return None
    q, rem = divmod(2 * (r - a), -d)
    v = math.isqrt(q)
    if rem or v * v != q:
        return None
    if b < 0:
        v = -v
    if u * u + d * v * v != 4 * a or u * v != 2 * b:
        raise VerificationError(f"({format_coords(u, v)})^2 is not "
                                f"4*({format_coords(a, b)})")
    return u, v


def _associate_coords(a, b, d: int) -> list:
    """Coordinates of the unit multiples of a + b*w.  The units are the
    elements of norm 1: +-1, and also +-w when d = -1."""
    out = [(a, b), (-a, -b)]
    if d == -1:
        out += [(-b, a), (b, -a)]
    return out


def units(cfg: RingCfg) -> list[QuadInt]:
    """All units: exactly the elements of norm 1."""
    return [cfg.el(a, b) for a, b in _associate_coords(1, 0, cfg.d)]


def _coords_key(p):
    """Order key on coordinates realizing the canonical-representative rule."""
    a, b = p
    sa = 0 if a > 0 else (1 if a == 0 else 2)
    sb = 0 if b > 0 else (1 if b == 0 else 2)
    return (sa, abs(a), sb, abs(b))


def _canonical_coords(a, b, d: int):
    """Coordinates of the unit multiple of a + b*w minimizing _coords_key,
    in closed form.  For d != -1 the orbit is (a, b), (-a, -b): keep the
    one with a > 0, or a = 0 and b >= 0.  For d = -1 exactly one rotation
    by a unit lies in a > 0, b >= 0 (when the element is nonzero); the
    only other multiple with a > 0 is (b, -a), when b > 0, and it wins
    the |a| comparison exactly when b < a."""
    if d == -1:
        if a <= 0 < b:
            a, b = b, -a
        elif a < 0 and b <= 0:
            a, b = -a, -b
        elif b < 0 <= a:
            a, b = -b, a
        return (b, -a) if 0 < b < a else (a, b)
    return (a, b) if a > 0 or (a == 0 and b >= 0) else (-a, -b)


def canonical_associate(x):
    """The unit multiple of x (in Z[w] or in K) minimizing _coords_key.

    _canonical_coords reads only the signs of a, b and a - b, which a
    positive den leaves alone, so it serves the numerators of
    (a + b*w)/den directly; a unit multiple keeps den and gcd(a, b, den)."""
    a, b = _canonical_coords(x.a, x.b, x.cfg.d)
    if x.den == 1:
        return type(x)(a, b, x.cfg)
    return type(x)(a, b, x.cfg, x.den)


def order_key(x):
    """Deterministic total order on elements of Z[w] or of K (used to
    sort multisets): norm, then coordinates, as exact rationals."""
    a, b, den = x.a, x.b, x.den
    n = a * a - x.cfg.d * b * b
    if den == 1:
        return (n, a, b)
    return (Fraction(n, den * den), Fraction(a, den), Fraction(b, den))


@functools.lru_cache(maxsize=None)
def _elements_of_norm(n: int, cfg: RingCfg) -> tuple[QuadInt, ...]:
    if n == 0:
        return (cfg.el(0),)
    d = cfg.d
    found = set()
    for b in range(math.isqrt(n // -d) + 1):
        r = n + d * b * b
        a = math.isqrt(r)
        if a * a == r:
            # (-a, -b) and (-a, b) are associates of these two
            found.add(_canonical_coords(a, b, d))
            found.add(_canonical_coords(a, -b, d))
    return tuple(QuadInt(a, b, cfg)
                 for a, b in sorted(found, key=_coords_key))


def elements_of_norm(n: int, cfg: RingCfg) -> tuple[QuadInt, ...]:
    """One representative per associate class with norm exactly n."""
    if n < 0:
        raise DomainError("norms are non-negative")
    return _elements_of_norm(n, cfg)


@functools.lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    """Sorted divisors of n >= 1, from its factorization by trial
    division: each prime found is divided out, so the search stops at
    the square root of what is left, not of n."""
    out = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            power = out
            while n % p == 0:
                n //= p
                power = [t * p for t in power]
                out += power
        p += 1 if p == 2 else 2
    if n > 1:
        out += [t * n for t in out]
    return tuple(sorted(out))


def _is_rational_prime(n: int) -> bool:
    return n >= 2 and len(_divisors(n)) == 2


def _require_factorable(x: QuadInt) -> None:
    if x.is_zero():
        raise DomainError("zero has no factorization data")
    if x.is_unit():
        raise DomainError("units have no factorization data")


def _is_irreducible_canonical(x: QuadInt) -> bool:
    # a proper divisor has smaller norm and so comes first; the only
    # canonical divisor of x with the norm of x is x itself
    return next(common_divisors([x])) == x


def is_irreducible(x: QuadInt) -> bool:
    """No factorization into two nonunits; decided by scanning the
    associate classes whose norm divides norm(x), smallest first."""
    _require_factorable(x)
    return _is_irreducible_canonical(canonical_associate(x))


def is_prime(x: QuadInt) -> bool:
    """Whether (x) is a prime ideal.

    R/(x) is finite, so (x) is prime iff R/(x) is a field.  That happens
    exactly when norm(x) is a rational prime (then R/(x) has prime order),
    or x is an associate of a rational prime p that stays inert, i.e.
    t^2 - d is irreducible mod p.  For p = 2 the polynomial t^2 - d is a
    square mod 2, so 2 never qualifies; for odd p inertness is the
    Euler-criterion test d^((p-1)/2) = -1 mod p.
    """
    _require_factorable(x)
    if _is_rational_prime(x.norm()):
        return True
    c = canonical_associate(x)
    if c.b == 0:
        p = c.a
        if _is_rational_prime(p) and p != 2 and x.cfg.d % p != 0:
            if pow(x.cfg.d % p, (p - 1) // 2, p) == p - 1:
                return True
    return False


def common_divisors(elems: list[QuadInt]):
    """Canonical nonunits dividing every element, by ascending norm.

    A common divisor's norm divides the gcd g of the norms, so the scan
    is finite unless every element is zero; then every nonunit divides
    and the scan runs over all norms.

    Each norm m | g is read from its small side.  Let x0 be a nonzero
    element of least norm N0.  When m^2 <= N0 the candidates are the
    classes of norm m.  Otherwise they come from the cofactors: c of
    norm m divides x0 exactly when x0 = c*q with norm(q) = k = N0/m,
    and then c = x0*conj(q)/k; replacing q by u*q for a unit u replaces
    c by an associate.  So each class of divisors of x0 of norm m comes
    from exactly one class q of norm k with x0*conj(q) = 0 mod k, and
    the canonical c, sorted by _coords_key, are the classes of norm m the
    first branch would have tested, less those that do not divide x0.
    Either way elements_of_norm is asked only for norms <= sqrt(N0).

    Each candidate is tested with integers only, by the identity
    `try_div` rests on: c = ca + cb*w divides x = a + b*w exactly when
    x*conj(c) = (a*ca - d*b*cb) + (b*ca - a*cb)*w is 0 mod m = norm(c),
    coordinate by coordinate.  Since m divides norm(x) here, either
    congruence implies the other (norm(x*conj(c)) is 0 mod m^2 and d is
    squarefree); the second is evaluated only on a hit and keeps the
    test exact without that premise."""
    cfg = elems[0].cfg
    d = cfg.d
    pairs = [(e.a, e.b) for e in elems if not e.is_zero()]
    if not pairs:
        for m in itertools.count(2):
            yield from elements_of_norm(m, cfg)
    g = n0 = 0
    for a, b in pairs:
        n = a * a - d * b * b
        g = math.gcd(g, n)
        if not n0 or n < n0:
            n0, xa, xb = n, a, b
    for m in _divisors(g)[1:]:
        if m * m <= n0:
            cands = elements_of_norm(m, cfg)
        else:
            k = n0 // m
            found = []
            for q in elements_of_norm(k, cfg):
                ta, tb = xa * q.a - d * xb * q.b, xb * q.a - xa * q.b
                if not ta % k and not tb % k:
                    found.append(_canonical_coords(ta // k, tb // k, d))
            found.sort(key=_coords_key)
            cands = [QuadInt(ca, cb, cfg) for ca, cb in found]
        for c in cands:
            ca, cb = c.a, c.b
            for a, b in pairs:
                if (a * ca - d * b * cb) % m or (b * ca - a * cb) % m:
                    break
            else:
                yield c


def common_nonunit_divisor(elems: list[QuadInt]) -> QuadInt | None:
    """Smallest-norm canonical nonunit dividing every element, or None.

    A common divisor of minimal norm > 1 is automatically irreducible:
    any proper factor of it would be a smaller common divisor.  When
    every element is zero this is the smallest irreducible of the ring.
    """
    if not elems:
        raise DomainError("empty element list")
    return next(common_divisors(elems), None)


def irreducible_common_divisors(elems: list[QuadInt]) -> list[QuadInt]:
    """All canonical irreducibles dividing every element of the list.

    Irreducibility is decided inside the divisor scan: a divisor c is
    kept exactly when no divisor kept before it divides c.  Every
    divisor of c is a common divisor of smaller norm, so the scan yields
    it first; a reducible c has an irreducible proper divisor, which was
    kept; and two distinct canonical divisors of equal norm cannot
    divide each other (their quotient would be a unit).  norm(y) | norm(c)
    is tested first, as a cheap filter."""
    if all(e.is_zero() for e in elems):
        raise DomainError("all elements are zero")
    d = elems[0].cfg.d
    kept = []
    out = []
    for c in common_divisors(elems):
        ca, cb = c.a, c.b
        m = ca * ca - d * cb * cb
        for n, ya, yb in kept:
            if (m % n == 0 and not (ca * ya - d * cb * yb) % n
                    and not (cb * ya - ca * yb) % n):
                break
        else:
            kept.append((m, ca, cb))
            out.append(c)
    return out
