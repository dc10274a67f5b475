"""Irreducible factorizations of elements of Z[w], and the
`FactorizationSet` that R[x] and D1 share: its length set and its
elasticity, max length / min length as a `Fraction`.

Norms strictly decrease along proper divisors, so the divisor tree is
finite: every factorization of x starts with an irreducible divisor y,
and the rest is a factorization of x/y.  Recursing over the canonical
irreducible divisors of x therefore enumerates every factorization up to
associates and order.  Results are memoized on canonical representatives
(the computation is pure), so sweeps over norm ranges share work.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import ResourceLimitError
from .qint import (KElem, _require_factorable, canonical_associate,
                   irreducible_common_divisors, order_key, try_div)

NORM_LIMIT = 10 ** 8


class FactorizationSet:
    """All factorizations of one element, up to associates and order.

    `factorizations` is a frozenset of tuples; tuple entries are
    canonical representatives sorted by (norm, a, b)."""

    __slots__ = ("element", "factorizations")

    def __init__(self, element, factorizations: frozenset):
        self.element, self.factorizations = element, factorizations

    def lengths(self) -> list[int]:
        return sorted({len(m) for m in self.factorizations})

    def elasticity(self) -> Fraction:
        """max length / min length.  The set is never empty: every
        public constructor (factorizations, rpoly.factorizations_rx,
        extring.d1_factorizations) takes a nonzero nonunit, and so
        yields at least one factorization."""
        lens = self.lengths()
        return Fraction(lens[-1], lens[0])


@functools.lru_cache(maxsize=None)
def _factor_multisets(x: KElem) -> frozenset:
    """x canonical, nonzero, nonunit; returns frozenset of sorted tuples."""
    out = set()
    for y in irreducible_common_divisors([x]):
        q = try_div(x, y)
        if q.is_unit():
            out.add((y,))
            continue
        for rest in _factor_multisets(canonical_associate(q)):
            out.add(tuple(sorted((y,) + rest, key=order_key)))
    return frozenset(out)


def factorizations(x: KElem) -> FactorizationSet:
    """Every factorization of x into irreducibles, up to associates."""
    _require_factorable(x)
    if x.norm() > NORM_LIMIT:
        raise ResourceLimitError(f"norm {x.norm()} exceeds guard {NORM_LIMIT}")
    return FactorizationSet(
        element=x,
        factorizations=_factor_multisets(canonical_associate(x)))
