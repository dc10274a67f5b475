"""The field-arithmetic quadratic test, kept only as a test oracle.

rpoly's witness scan as it was before it answered its two questions in
Z[w]: the square root s of the discriminant comes from the
Fraction-based sqrt_oracle, and the split test forms the roots in K as
Fraction-based KElems and asks whether lam*r1 and (c2/lam)*r2 are
integral."""

import itertools
import math
from fractions import Fraction

from quadfactor.qint import KElem, common_divisors, norm, try_div
from sqrt_oracle import sqrt_in_field


def quad_disc_sqrt(c2: KElem, c1: KElem, c0: KElem) -> KElem | None:
    """sqrt of the discriminant c1^2 - 4*c2*c0 when it lies in K."""
    disc = c1 * c1 - c2 * c0 * c2.cfg.el(4)
    dn = norm(disc)
    r = math.isqrt(dn)
    if r * r != dn:
        return None
    return sqrt_in_field(disc)


def quad_splits_in_rx(c2: KElem, c1: KElem, s: KElem) -> bool:
    """For a quadratic with discriminant square root s: is there a
    split into two linear factors lam*(x-r1) and (c2/lam)*(x-r2) of
    R[x], lam running over 1 and the nonunit divisors of c2?"""
    cfg = c2.cfg
    half = KElem.of(Fraction(1, 2), 0, cfg)
    r1 = (-c1 + s) * half / c2
    r2 = (-c1 - s) * half / c2
    for lam in itertools.chain((cfg.el(1),), common_divisors([c2])):
        cofk = try_div(c2, lam)
        if (lam * r1).is_integral() and (cofk * r2).is_integral():
            return True
        if (lam * r2).is_integral() and (cofk * r1).is_integral():
            return True
    return False
