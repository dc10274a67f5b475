"""The try_div divisor scan, kept only as a test oracle.

qint.common_divisors and qint.irreducible_common_divisors as they were
before both worked on integer coordinates: every candidate is tested
with try_div, and irreducibility is decided afterwards, one further
full divisor scan per divisor found."""

import itertools
import math

from quadfactor.errors import DomainError
from quadfactor.qint import KElem, elements_of_norm, try_div


def _divisors(n: int) -> list[int]:
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return sorted(set(small + [n // i for i in small]))


def common_divisors(elems: list[KElem]):
    """Canonical nonunits dividing every element, by ascending norm."""
    cfg = elems[0].cfg
    nonzero = [e for e in elems if not e.is_zero()]
    g = 0
    for e in nonzero:
        g = math.gcd(g, e.norm())
    for m in (_divisors(g)[1:] if g else itertools.count(2)):
        for c in elements_of_norm(m, cfg):
            if all(try_div(e, c) is not None for e in nonzero):
                yield c


def _is_irreducible_canonical(x: KElem) -> bool:
    # a proper divisor has smaller norm and so comes first; the only
    # canonical divisor of x with the norm of x is x itself
    return next(common_divisors([x])) == x


def irreducible_common_divisors(elems: list[KElem]) -> list[KElem]:
    """All canonical irreducibles dividing every element of the list."""
    if all(e.is_zero() for e in elems):
        raise DomainError("all elements are zero")
    return [c for c in common_divisors(elems)
            if _is_irreducible_canonical(c)]
