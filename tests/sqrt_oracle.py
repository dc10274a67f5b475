"""The Fraction-based square root in K, kept only as a test oracle.

kpoly.sqrt_in_field as it was before it scaled z into Z[w] and called
qint._twice_sqrt: rational square roots of the coordinates and of the
field norm, with one branch for rational z and one for the rest."""

import math
from fractions import Fraction

from kelem_oracle import coords, normk
from quadfactor.errors import VerificationError
from quadfactor.kpoly import KElem


def _rat_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    a = math.isqrt(q.numerator)
    b = math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def sqrt_in_field(z: KElem) -> KElem | None:
    """A square root of z inside K = Q(sqrt(d)), or None.

    For z = u + v*w with v != 0, (p + q*w)^2 = z forces q = v/(2p) and
    p^2 = (u +- sqrt(normk(z)))/2, so z is a square iff normk(z) is a
    rational square and one of those two rationals is a positive square.
    """
    cfg = z.cfg
    if z.is_zero():
        return z
    u, v = (Fraction(t) for t in coords(z))
    if v == 0:
        r = _rat_sqrt(u)
        if r is not None:
            return KElem.of(r, 0, cfg)
        r = _rat_sqrt(u / cfg.d)  # (t*w)^2 = t^2 * d
        if r is not None:
            return KElem.of(0, r, cfg)
        return None
    s = _rat_sqrt(normk(z))
    if s is None:
        return None
    for p2 in ((u + s) / 2, (u - s) / 2):
        if p2 > 0:
            p = _rat_sqrt(p2)
            if p is not None:
                root = KElem.of(p, v / (2 * p), cfg)
                if root * root != z:
                    raise VerificationError(f"{root} is no square root of {z}")
                return root
    return None
