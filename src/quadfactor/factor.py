"""Irreducible factorizations, length sets and elasticity for elements
of Z[w].

Norms strictly decrease along proper divisors, so the divisor tree is
finite: every factorization of x starts with an irreducible divisor y,
and the rest is a factorization of x/y.  Recursing over the canonical
irreducible divisors of x therefore enumerates every factorization up to
associates and order.  Results are memoized on canonical representatives
(the computation is pure), so sweeps over norm ranges share work.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .qint import (QuadInt, RingCfg, _is_irreducible_canonical,
                   _require_factorable, canonical_associate, elements_of_norm,
                   irreducible_common_divisors, order_key, try_div)

NORM_LIMIT = 10 ** 8


@dataclass(frozen=True)
class Elasticity:
    """max length / min length, or one of the symbols."""

    kind: str  # "finite" | "infinite" | "undefined"
    value: Fraction | None

    @staticmethod
    def finite(q) -> "Elasticity":
        return Elasticity("finite", Fraction(q))

    @staticmethod
    def infinite() -> "Elasticity":
        return Elasticity("infinite", None)

    @staticmethod
    def undefined() -> "Elasticity":
        return Elasticity("undefined", None)

    @staticmethod
    def from_lengths(lengths) -> "Elasticity":
        ls = sorted(set(lengths))
        if not ls:
            return Elasticity.undefined()
        return Elasticity.finite(Fraction(ls[-1], ls[0]))

    def as_json(self):
        if self.kind == "finite":
            return {"num": self.value.numerator, "den": self.value.denominator}
        return self.kind

    def __eq__(self, other) -> bool:
        if isinstance(other, Elasticity):
            return self.kind == other.kind and self.value == other.value
        if self.kind == "finite":
            return self.value == other
        return NotImplemented

    def __str__(self) -> str:
        return str(self.value) if self.kind == "finite" else self.kind


@dataclass(frozen=True)
class FactorizationSet:
    """All factorizations of one element, up to associates and order.

    `factorizations` is a frozenset of tuples; tuple entries are
    canonical representatives sorted by (norm, a, b)."""

    element: object
    factorizations: frozenset

    def lengths(self) -> list[int]:
        return sorted({len(m) for m in self.factorizations})

    def elasticity(self) -> Elasticity:
        return Elasticity.from_lengths(len(m) for m in self.factorizations)


@functools.lru_cache(maxsize=None)
def _factor_multisets(x: QuadInt) -> frozenset:
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


def factorizations(x: QuadInt) -> FactorizationSet:
    """Every factorization of x into irreducibles, up to associates."""
    _require_factorable(x)
    if x.norm() > NORM_LIMIT:
        raise ResourceLimitError(f"norm {x.norm()} exceeds guard {NORM_LIMIT}")
    return FactorizationSet(
        element=x,
        factorizations=_factor_multisets(canonical_associate(x)))


def length_set(x: QuadInt) -> set[int]:
    return {len(m) for m in factorizations(x).factorizations}


def elasticity_elem(x: QuadInt) -> Elasticity:
    return factorizations(x).elasticity()


def ring_elasticity_lower_bound(cfg: RingCfg, norm_bound: int) -> Elasticity:
    """max of elasticity_elem over all elements with 2 <= norm <= bound.

    This is reported as a lower bound for the elasticity of the ring:
    the supremum over all elements need not be attained in any finite
    norm range."""
    if norm_bound < 2:
        raise DomainError("norm bound must be at least 2")
    best = None
    for n in range(2, norm_bound + 1):
        for x in elements_of_norm(n, cfg):
            e = elasticity_elem(x).value
            if best is None or e > best:
                best = e
    if best is None:
        return Elasticity.undefined()
    return Elasticity.finite(best)


def verify_factorization_set(fs: FactorizationSet) -> bool:
    """Each multiset multiplies back to an associate of the element and
    consists of irreducibles; used as a self-check in tests."""
    x = fs.element
    for m in fs.factorizations:
        prod = x.cfg.el(1)
        for y in m:
            if not _is_irreducible_canonical(canonical_associate(y)):
                return False
            prod = prod * y
        if canonical_associate(prod) != canonical_associate(x):
            return False
    return True
