"""The element factorization recursion, kept only as a test oracle.

factor._factor_multisets as it was before one divisor scan served a
whole factorization: every quotient x/y it meets gets a fresh scan of
its own divisors, every tuple it builds is sorted, and the copies of
each factorization (one per distinct first factor) are merged in a set."""

import functools

from quadfactor.qint import (KElem, canonical_associate,
                             irreducible_common_divisors, order_key, try_div)


@functools.lru_cache(maxsize=None)
def factor_multisets(x: KElem) -> frozenset:
    """x canonical, nonzero, nonunit; returns frozenset of sorted tuples."""
    out = set()
    for y in irreducible_common_divisors([x]):
        q = try_div(x, y)
        if q.is_unit():
            out.add((y,))
            continue
        for rest in factor_multisets(canonical_associate(q)):
            out.add(tuple(sorted((y,) + rest, key=order_key)))
    return frozenset(out)


def factorizations(x: KElem) -> frozenset:
    """Every factorization of x, x a nonzero nonunit of Z[w]."""
    return factor_multisets(canonical_associate(x))
