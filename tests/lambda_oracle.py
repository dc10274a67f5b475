"""The norm-ball lambda search, kept only as a test oracle.

rpoly.lambda_candidates as it was before it took its candidates from
the common divisors of lc(g0)*e: it walks every norm up to
E*normk(C)/m^2, so its cost grows with the size of the coefficients.
Use it on small coefficients."""

from fractions import Fraction

from kelem_oracle import coords, normk
from quadfactor.errors import DomainError
from quadfactor.kpoly import KElem, KPoly
from quadfactor.qint import (canonical_associate, elements_of_norm, norm,
                             order_key)


def lambda_candidates(g0: KPoly, h0: KPoly) -> list[KElem]:
    """All lam in K*, up to associates, with lam*g0 and lam^-1*h0 both
    integral.

    Completeness: write the leading coefficient of g0 as C/m in lowest
    terms (C in R, m in Z minimal).  If lam*g0 is integral then lam*C/m
    = s lies in R, so lam = m*s/C.  If additionally lam^-1*h0 is
    integral then for any nonzero coefficient e of h0, e/lam is
    integral, hence normk(lam) <= normk(e); taking E as the least such
    norm gives normk(s) = normk(lam)*normk(C)/m^2 <= E*normk(C)/m^2.
    Enumerating s over that finite ball and verifying both containments
    is therefore exhaustive.  Each verified lam is recorded by its
    canonical associate (unit rescalings give the same grouping).
    """
    if g0.is_zero() or h0.is_zero():
        raise DomainError("cannot regroup a zero factor")
    if not (g0 * h0).is_integral():
        raise DomainError("product of the groups must lie in R[x]")
    cfg = g0.cfg
    c = g0.lc()
    m = c.den
    big_c = KElem(c.a, c.b, cfg)
    e_min = min(normk(e) for e in h0.coeffs if not e.is_zero())
    bound = Fraction(norm(big_c)) * e_min / (m * m)
    k_m = KElem.of(m, 0, cfg)
    out = []
    seen = set()
    n = 1
    # associate classes of lam biject with those of s = lam*C/m, so
    # canonical representatives s cover every class exactly once
    while n <= bound:
        for s in elements_of_norm(n, cfg):
            lam = s * k_m / big_c
            if g0.scale(lam).is_integral() and \
                    h0.scale(lam.inv()).is_integral():
                best = canonical_associate(lam)
                key = coords(best)
                if key not in seen:
                    seen.add(key)
                    out.append(best)
        n += 1
    out.sort(key=order_key)
    return out
