"""Irreducible factorizations of elements of Z[w], and the
`FactorizationSet` that R[x] and D1 share: its length set and its
elasticity, max length / min length as a `Fraction`.

Norms strictly decrease along proper divisors, so the divisor tree is
finite: every factorization of x starts with an irreducible divisor y,
and the rest is a factorization of x/y.  One divisor scan finds the
atoms of x, its canonical irreducible divisors.  Every irreducible
divisor of a quotient q = x/y divides x, so q takes the atoms of x and
skips, by integer congruences, those that do not divide it: no further
scan.  Atoms are ordered by (norm, a, b), and a factorization is built
only as a non-decreasing atom sequence, so each one is built once.

The recursion, `_factor_multisets`, is memoized on the canonical
element alone (its atoms are a function of it): one entry per distinct
element or reducible quotient seen, with no bound, shared by every later
call in the process, so a repeated element costs no scan.  Every entry,
input or quotient, is multiplied back on integer coordinates when it is
filled, and held as a tuple: `factorizations` wraps the checked entry
as it is, and its frozenset is built only when a caller reads it.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import ResourceLimitError, VerificationError
from .qint import KElem, _atoms, _canonical_coords, _require_factorable

NORM_LIMIT = 10 ** 8


class FactorizationSet:
    """All factorizations of one element, up to associates and order,
    given as a tuple or a frozenset of distinct tuples; tuple entries are
    canonical representatives sorted by (norm, a, b).  `lengths` and
    `elasticity` read them as given."""

    __slots__ = ("element", "_fs")

    def __init__(self, element, factorizations: tuple | frozenset):
        self.element, self._fs = element, factorizations

    @property
    def factorizations(self) -> frozenset:
        """The factorizations as a frozenset of tuples, built on the first
        read and kept: frozenset() of a frozenset is that frozenset."""
        self._fs = fs = frozenset(self._fs)
        return fs

    def lengths(self) -> list[int]:
        return sorted({len(m) for m in self._fs})

    def elasticity(self) -> Fraction:
        """max length / min length.  The set is never empty: every
        public constructor (factorizations, rpoly.factorizations_rx,
        extring.d1_factorizations) takes a nonzero nonunit, and so
        yields at least one factorization."""
        lens = self.lengths()
        return Fraction(lens[-1], lens[0])


class _Element:
    """An element a + b*w of Z[w] as a memo key, with its parent's atoms
    when it is a quotient.  Keys compare and hash by the element alone:
    its atoms are a function of it, and a call on an element seen before,
    as an input or as a quotient, then finds its entry without a scan."""

    __slots__ = ("cfg", "a", "b", "atoms")

    def __init__(self, cfg, a: int, b: int, atoms: tuple | None):
        self.cfg, self.a, self.b, self.atoms = cfg, a, b, atoms

    def __eq__(self, other) -> bool:
        return (self.a == other.a and self.b == other.b
                and self.cfg is other.cfg)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.cfg.d))


@functools.lru_cache(maxsize=None)
def _factor_multisets(x: _Element) -> tuple:
    """x canonical, nonzero, nonunit; returns the tuple of its distinct
    factorizations, each a tuple sorted by (norm, a, b) and checked by
    _check_products.

    The atoms are (norm, a, b, element) in ascending order, from the
    divisor scan when x.atoms is None, else its parent's; y divides x
    when x*conj(y) is 0 mod norm(y), coordinate by coordinate.  Each
    factorization is y, its least atom, then one of x/y whose least atom
    is not below y: none when no atom from y up divides x/y, and only
    (x/y,) when the first found from the top has the norm of x/y."""
    cfg, a, b = x.cfg, x.a, x.b
    d = cfg.d
    n = a * a - d * b * b
    atoms, out = x.atoms or _atoms(a, b, cfg), []
    for i, (m, ya, yb, y) in enumerate(atoms):
        ta, tb = a * ya - d * b * yb, b * ya - a * yb
        if n % m or ta % m or tb % m:
            continue
        k = n // m
        if k == 1:
            out.append((y,))
            continue
        qa, qb = _canonical_coords(ta // m, tb // m, d)
        for j in range(len(atoms) - 1, i - 1, -1):
            t, ua, ub, z = atoms[j]
            if not (k % t or (qa * ua - d * qb * ub) % t
                    or (qb * ua - qa * ub) % t):
                break
        else:
            continue
        least = (m, ya, yb)
        for rest in ((z,),) if t == k else _factor_multisets(
                _Element(cfg, qa, qb, atoms)):
            r = rest[0]
            if (r.a * r.a - d * r.b * r.b, r.a, r.b) >= least:
                out.append((y,) + rest)
    _check_products(x, out)
    return tuple(out)


def _check_products(x: _Element, fs) -> None:
    """VerificationError unless every factorization multiplies back, on
    integer coordinates, to an associate of the canonical element x."""
    d = x.cfg.d
    for m in fs:
        pa, pb = 1, 0
        for y in m:
            pa, pb = pa * y.a + d * pb * y.b, pa * y.b + pb * y.a
        if _canonical_coords(pa, pb, d) != (x.a, x.b):
            raise VerificationError(" * ".join(map(str, m)) + " is not an "
                                    f"associate of {KElem(x.a, x.b, x.cfg)}")


def factorizations(x: KElem) -> FactorizationSet:
    """Every factorization of x into irreducibles, up to associates: the
    memo's tuple, each checked once to multiply back to x's associate."""
    n = x.a * x.a - x.cfg.d * x.b * x.b
    if x.den != 1 or n < 2:
        _require_factorable(x)
    if n > NORM_LIMIT:
        raise ResourceLimitError(f"norm {n} exceeds guard {NORM_LIMIT}")
    a, b = _canonical_coords(x.a, x.b, x.cfg.d)
    return FactorizationSet(x, _factor_multisets(_Element(x.cfg, a, b, None)))
