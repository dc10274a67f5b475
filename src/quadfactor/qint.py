"""Exact arithmetic in imaginary quadratic orders Z[w], w = sqrt(d).

Elements are a + b*w with integer a, b and d < 0 squarefree.  The norm
a^2 + |d|*b^2 is multiplicative, vanishes only at 0, and bounds every
divisor of an element, so divisibility, irreducibility and primality are
all decidable by finite enumeration.  Divisor questions share one scan,
which reads each pair of norms once: a divisor of x and its cofactor
have norms s and norm(x)/s, one of them <= sqrt(norm(x)), and one
congruence on a class of norm s finds both; every divisor question takes
every pass at once.  Only d < 0 is supported: the unit group is then
finite ({1, -1}, plus {w, -w} when d = -1), which makes "up to
associates" a finite canonical notion.

Associate classes get a canonical representative: the unit multiple
minimizing (-sign(a), |a|, -sign(b), |b|) lexicographically, i.e. positive
rational part preferred, then small, then positive w-part.

One scalar type, KElem, serves R and its field of fractions
K = Q(sqrt(d)): integer numerators a, b over a denominator den > 0,
with den = 1 exactly on R.  The canonical rule and the order key read
the numerators, so they serve both.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import DomainError, ResourceLimitError, VerificationError, load

MAX_ABS_D = 100
MAX_COEFF_NORM = 10 ** 6

# Class numbers of Q(sqrt(d)) for the maximal orders we ship metadata for,
# from the standard tables of imaginary quadratic fields.  Orders whose d
# is missing report None.
_CLASS_NUMBERS = {
    -1: 1, -2: 1, -5: 2, -6: 2, -10: 2, -13: 2, -14: 4,
    -17: 4, -21: 4, -22: 2,
}


def _is_squarefree(n: int) -> bool:
    return all(n % (t * t) for t in _divisors(n)[1:])


class RingCfg:
    """Description of one order Z[sqrt(d)].  ring() makes exactly one
    per d, so equality and hashing are by identity."""

    __slots__ = ("d", "is_maximal", "class_number", "is_ufd")

    def __init__(self, d: int, is_maximal: bool, class_number: int | None,
                 is_ufd: bool):
        self.d, self.is_maximal = d, is_maximal
        self.class_number, self.is_ufd = class_number, is_ufd

    def el(self, a: int, b: int = 0) -> "KElem":
        """The element a + b*w of R."""
        return KElem(a, b, self)

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


class KElem:
    """An element (a + b*w)/den of K = Q(sqrt(d)); it lies in R = Z[w]
    exactly when den = 1.

    a, b and den are integers with den > 0 and gcd(a, b, den) = 1, the
    form the constructor reduces to.  The form is unique, so equality
    and hashing compare the integers.  Elements of R take the den = 1
    path, which stores the integers as given."""

    __slots__ = ("a", "b", "den", "cfg")

    def __init__(self, a: int, b: int, cfg: RingCfg, den: int = 1):
        if den != 1:
            if den <= 0:
                if den == 0:
                    raise DomainError("division by zero in K")
                a, b, den = -a, -b, -den
            g = math.gcd(a, b, den)
            a, b, den = a // g, b // g, den // g
        self.a = a
        self.b = b
        self.den = den
        self.cfg = cfg

    @staticmethod
    def of(u, v, cfg: RingCfg) -> "KElem":
        """u + v*w for integers or exact rationals u, v."""
        a, da = u.as_integer_ratio()
        b, db = v.as_integer_ratio()
        return KElem(a * db, b * da, cfg, da * db)

    def norm(self):
        """The field norm: an integer on R, an exact rational off it."""
        n = self.a * self.a - self.cfg.d * self.b * self.b
        if self.den == 1:
            return n
        return load("fractions").Fraction(n, self.den * self.den)

    def conj(self) -> "KElem":
        return KElem(self.a, -self.b, self.cfg, self.den)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        """Whether the element is a unit of R: in R, of norm 1."""
        return self.den == 1 and \
            self.a * self.a - self.cfg.d * self.b * self.b == 1

    def is_integral(self) -> bool:
        """Whether the element lies in the order Z[w]."""
        return self.den == 1

    def __add__(self, o: "KElem") -> "KElem":
        if self.cfg.d != o.cfg.d:
            raise DomainError("mixed rings")
        if self.den == o.den:
            return KElem(self.a + o.a, self.b + o.b, self.cfg, self.den)
        return KElem(self.a * o.den + o.a * self.den,
                     self.b * o.den + o.b * self.den, self.cfg,
                     self.den * o.den)

    def __sub__(self, o: "KElem") -> "KElem":
        if self.cfg.d != o.cfg.d:
            raise DomainError("mixed rings")
        if self.den == o.den:
            return KElem(self.a - o.a, self.b - o.b, self.cfg, self.den)
        return KElem(self.a * o.den - o.a * self.den,
                     self.b * o.den - o.b * self.den, self.cfg,
                     self.den * o.den)

    def __neg__(self) -> "KElem":
        return KElem(-self.a, -self.b, self.cfg, self.den)

    def __mul__(self, o: "KElem") -> "KElem":
        d = self.cfg.d
        if d != o.cfg.d:
            raise DomainError("mixed rings")
        a, b, c, e = self.a, self.b, o.a, o.b
        return KElem(a * c + d * b * e, a * e + b * c, self.cfg,
                     self.den * o.den)

    def __pow__(self, n: int) -> "KElem":
        if n < 0:
            raise DomainError("negative powers leave the order")
        out = KElem(1, 0, self.cfg)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inv(self) -> "KElem":
        # den/(a + b*w) = den*(a - b*w)/N, N = a^2 - d*b^2 > 0 as d < 0
        a, b = self.a, self.b
        return KElem(self.den * a, -self.den * b, self.cfg,
                     a * a - self.cfg.d * b * b)

    def __truediv__(self, o: "KElem") -> "KElem":
        # den2*(a + b*w)*(c - e*w) / (den1*(c^2 - d*e^2)), one gcd
        a, b, c, e, d = self.a, self.b, o.a, o.b, self.cfg.d
        if d != o.cfg.d:
            raise DomainError("mixed rings")
        return KElem(o.den * (a * c - d * b * e), o.den * (b * c - a * e),
                     self.cfg, self.den * (c * c - d * e * e))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, KElem) and self.a == other.a
                and self.b == other.b and self.den == other.den
                and self.cfg.d == other.cfg.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.den, self.cfg.d))

    def __str__(self) -> str:
        inner = format_coords(self.a, self.b)
        if self.den == 1:
            return inner
        if any(ch in inner[1:] for ch in "+-"):
            return f"({inner})/{self.den}"
        return f"{inner}/{self.den}"

    def __repr__(self) -> str:
        return f"KElem({self}, d={self.cfg.d})"


def format_coords(a, b) -> str:
    """Render a + b*w, a and b integers."""
    if b == 0:
        return str(a)
    mag = "w" if abs(b) == 1 else f"{abs(b)}*w"
    wpart = mag if b > 0 else f"-{mag}"
    if a == 0:
        return wpart
    return f"{a}+{mag}" if b > 0 else f"{a}-{mag}"


def norm(x: KElem) -> int:
    return x.norm()


def conj(x: KElem) -> KElem:
    return x.conj()


def try_div(x: KElem, y: KElem) -> KElem | None:
    """Exact quotient x / y in Z[w] of x, y in Z[w], or None when y
    does not divide x.

    x / y = x * conj(y) / norm(y), so divisibility is two integer
    divisibility checks; no floating point is involved.
    """
    if x.den != 1 or y.den != 1:
        raise DomainError(f"{x if x.den != 1 else y} is not in Z[w]")
    d = x.cfg.d
    if d != y.cfg.d:
        raise DomainError("mixed rings")
    a, b, c, e = x.a, x.b, y.a, y.b
    n = c * c - d * e * e
    if not n:
        raise DomainError("division by zero")
    ta, tb = a * c - d * b * e, b * c - a * e
    if ta % n or tb % n:
        return None
    return KElem(ta // n, tb // n, x.cfg)


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


def units(cfg: RingCfg) -> list[KElem]:
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
    return KElem(a, b, x.cfg, x.den)


def order_key(x):
    """Deterministic total order on elements of Z[w] or of K (used to
    sort multisets): norm, then coordinates, as exact rationals."""
    a, b, den = x.a, x.b, x.den
    n = a * a - x.cfg.d * b * b
    if den == 1:
        return (n, a, b)
    Fraction = load("fractions").Fraction
    return (Fraction(n, den * den), Fraction(a, den), Fraction(b, den))


@functools.lru_cache(maxsize=None)
def _elements_of_norm(n: int, cfg: RingCfg) -> tuple[KElem, ...]:
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
    return tuple(KElem(a, b, cfg)
                 for a, b in sorted(found, key=_coords_key))


def elements_of_norm(n: int, cfg: RingCfg) -> tuple[KElem, ...]:
    """One representative per associate class with norm exactly n."""
    if n < 0:
        raise DomainError("norms are non-negative")
    return _elements_of_norm(n, cfg)


def _lattice_walk(cfg: RingCfg, max_norm: int) -> list:
    """Coordinates of 0 and the nonzero elements of norm <= max_norm in
    (norm, _coords_key) order.  The walk visits them in _coords_key
    order, which the stable sort by norm keeps among equal norms."""
    dd = -cfg.d

    def signed(k):
        # 1..k, 0, -1..-k: the _coords_key order of one coordinate
        return [*range(1, k + 1), 0, *range(-1, -k - 1, -1)]

    return sorted(((a, b) for a in signed(math.isqrt(max_norm))
                   for b in signed(math.isqrt((max_norm - a * a) // dd))),
                  key=lambda p: p[0] * p[0] + dd * p[1] * p[1])


def _canonical_points(cfg: RingCfg, points):
    """The canonical nonzero points of a _lattice_walk as elements: the
    elements_of_norm(n) over the norms n walked, in order."""
    d = cfg.d
    return (KElem(a, b, cfg) for a, b in points
            if (a or b) and _canonical_coords(a, b, d) == (a, b))


# steps from 2 to 3, 5 and 7, then between the residues prime to 30
_WHEEL_START = (1, 2, 2)
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


@functools.lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    """Sorted divisors of n >= 1, from its factorization by trial
    division on a 2*3*5 wheel: after 2, 3 and 5 only numbers prime to
    30 are tried.  Each prime found is divided out, so the search stops
    at the square root of what is left, not of n."""
    out = [1]
    p, steps = 2, itertools.chain(_WHEEL_START, itertools.cycle(_WHEEL))
    while p * p <= n:
        if n % p == 0:
            power = out
            while n % p == 0:
                n //= p
                power = [t * p for t in power]
                out += power
        p += next(steps)
    if n > 1:
        out += [t * n for t in out]
    return tuple(sorted(out))


def _is_rational_prime(n: int) -> bool:
    return n >= 2 and len(_divisors(n)) == 2


def _require_factorable(x: KElem) -> None:
    if x.den != 1:
        raise DomainError(f"{x} is not in Z[w]")
    if x.is_zero():
        raise DomainError("zero has no factorization data")
    if x.is_unit():
        raise DomainError("units have no factorization data")


def _is_irreducible_canonical(x: KElem) -> bool:
    # the scan holds each canonical nonunit divisor of x, x itself (the
    # unit's cofactor) among them: x is irreducible when it is alone
    return len(_norm_pair_scan(x.cfg, x.a, x.b, x.norm())) == 1


def is_irreducible(x: KElem) -> bool:
    """No factorization into two nonunits; decided by scanning the
    associate classes whose norm divides norm(x), smallest first."""
    _require_factorable(x)
    return _is_irreducible_canonical(canonical_associate(x))


def is_prime(x: KElem) -> bool:
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


def check_coeff_norms(coeffs) -> None:
    """ResourceLimitError when a coefficient's norm passes the guard."""
    if any(norm(c) > MAX_COEFF_NORM for c in coeffs):
        raise ResourceLimitError(
            f"coefficient norm exceeds guard {MAX_COEFF_NORM}")


def check_integral(coeffs) -> None:
    """DomainError naming the first coefficient outside Z[w]."""
    for i, c in enumerate(coeffs):
        if c.den != 1:
            raise DomainError(f"coefficient of x^{i} is {c}, not in Z[w]")


def _norm_pair_scan(cfg: RingCfg, xa: int, xb: int, g: int) -> list:
    """(norm, a, b, c) for each canonical nonunit a + b*w dividing the
    nonzero x0 = xa + xb*w with norm dividing g | N0 = norm(x0), found in
    one pass m per divisor m of g; c is the element _elements_of_norm
    cached, or None for a cofactor.  A class q of norm s divides x0
    exactly when x0*conj(q) = 0 mod s, and then its cofactors
    x0*conj(q)/s, canonical, are the classes of divisors of norm N0/s.
    So the pass m reads the classes of norm min(m, N0/m), and finds
    nothing when its partner N0/m < m divides g, whose pass found both:
    when g = N0, the passes stop past sqrt(N0)."""
    d = cfg.d
    n0 = xa * xa - d * xb * xb
    out = []
    for m in _divisors(g):
        k = n0 // m
        if k >= m:
            s, big = m, k
        elif g == n0:
            break
        elif g % k:
            s, big = k, m
        else:
            continue
        for q in _elements_of_norm(s, cfg):
            qa, qb = q.a, q.b
            ta, tb = xa * qa - d * xb * qb, xb * qa - xa * qb
            if ta % s or tb % s:
                continue
            if s == m > 1:
                out.append((s, qa, qb, q))
            if big > s and not g % big:
                ca, cb = _canonical_coords(ta // s, tb // s, d)
                out.append((big, ca, cb, None))
    return out


def _divisor_scan(elems: list[KElem]) -> list:
    """_norm_pair_scan's tuple for each canonical nonunit dividing every
    element, as a list sorted by norm, then _coords_key: x0 has the least
    norm N0, g is the gcd of the norms, and a divisor ca + cb*w of x0
    divides a + b*w when a*ca - d*b*cb and b*ca - a*cb are 0 mod its
    norm."""
    if not elems:
        raise DomainError("empty element list")
    cfg = elems[0].cfg
    d = cfg.d
    pairs = [(e.a, e.b) for e in elems if e.a or e.b]
    if not pairs:
        raise DomainError("all elements are zero")
    norms = [a * a - d * b * b for a, b in pairs]
    xa, xb = pairs.pop(norms.index(min(norms)))
    scan = []
    for t in _norm_pair_scan(cfg, xa, xb, math.gcd(*norms)):
        n, ca, cb, _ = t
        if not any((a * ca - d * b * cb) % n or (b * ca - a * cb) % n
                   for a, b in pairs):
            scan.append(t)
    scan.sort(key=lambda t: (t[0], _coords_key(t[1:3])))
    return scan


def _irreducibles(scan, cfg) -> list:
    """The tuples of scan, where divisors precede their multiples, with
    an irreducible divisor, each with its element: those no tuple kept
    before divides, as distinct canonical divisors of equal norm cannot
    divide each other."""
    d = cfg.d
    kept, out = [], []
    for m, ca, cb, c in scan:
        for n, ya, yb in kept:
            if (m % n == 0 and not (ca * ya - d * cb * yb) % n
                    and not (cb * ya - ca * yb) % n):
                break
        else:
            kept.append((m, ca, cb))
            out.append((m, ca, cb, KElem(ca, cb, cfg) if c is None else c))
    return out


def _atoms(a: int, b: int, cfg: RingCfg) -> tuple:
    """(norm, a, b, element) for each canonical irreducible divisor of
    a + b*w, nonzero, by (norm, a, b): one eager pass over every m."""
    n = a * a - cfg.d * b * b
    scan = _norm_pair_scan(cfg, a, b, n)
    scan.sort()
    return tuple(_irreducibles(scan, cfg))


def common_divisors(elems: list[KElem]) -> list[KElem]:
    """Canonical nonunits dividing every element, as a list sorted by
    norm, then _coords_key."""
    scan = _divisor_scan(elems)
    cfg = elems[0].cfg
    return [KElem(a, b, cfg) if c is None else c for _, a, b, c in scan]


def common_nonunit_divisor(elems: list[KElem]) -> KElem | None:
    """Smallest-norm canonical nonunit dividing every element, or None.

    A common divisor of minimal norm > 1 is automatically irreducible:
    any proper factor of it would be a smaller common divisor."""
    divs = common_divisors(elems)
    return divs[0] if divs else None


def irreducible_common_divisors(elems: list[KElem]) -> list[KElem]:
    """The canonical irreducibles dividing every element of the list,
    as a list sorted by norm, then _coords_key."""
    scan = _divisor_scan(elems)
    return [t[3] for t in _irreducibles(scan, elems[0].cfg)]
