"""The field-arithmetic quadratic test and the unpruned witness search,
kept only as test oracles.

quad_disc_sqrt and quad_splits_in_rx are rpoly's witness scan as it was
before it answered its two questions in Z[w]: the square root s of the
discriminant comes from the Fraction-based sqrt_oracle, and the split
test forms the roots in K as Fraction-based KElems and asks whether
lam*r1 and (c2/lam)*r2 are integral.  property_p_witness is
rpoly.property_p_witness as it was before it skipped candidates by
symmetry: every (lead, c1, c0) is tested, the rows of c1 and -c1 sharing
the square test of their discriminant."""

import itertools
import math
from fractions import Fraction

from quadfactor import rpoly
from quadfactor.errors import ResourceLimitError
from quadfactor.kpoly import KPoly
from quadfactor.qint import (KElem, _canonical_points, _lattice_walk,
                             _twice_sqrt, common_divisors, norm, try_div)
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


def property_p_witness(cfg, max_norm: int):
    """The first degree-2 witness by the order of rpoly.property_p_witness,
    under the budget rpoly.WITNESS_MAX_CANDIDATES holds at call time."""
    budget = rpoly.WITNESS_MAX_CANDIDATES
    over_budget = ResourceLimitError("witness search exceeds its budget "
                                     f"of {budget} candidates")
    if len(_lattice_walk(cfg, max_norm)) > budget:
        raise over_budget
    d = cfg.d
    inner = _lattice_walk(cfg, max_norm)
    tried = 0
    for lead in _canonical_points(cfg, inner):
        la, lb = 4 * lead.a, 4 * lead.b
        prods = [(a, b, la * a + d * lb * b, la * b + lb * a)
                 for a, b in inner]
        c2, lams = (lead.a, lead.b), rpoly._linear_leads(lead)
        squares = {}
        for c1 in inner:
            c1a, c1b = c1
            sq = sa, sb = c1a * c1a + d * c1b * c1b, 2 * c1a * c1b
            left = budget - tried
            tried += len(prods)
            row = squares.get(sq) if tried <= budget else None
            if row is None:
                row = squares[sq] = [
                    (a, b, t) for a, b, pa, pb in itertools.islice(prods, left)
                    if (t := _twice_sqrt(sa - pa, sb - pb, d)) is not None]
            for a, b, t in row:
                if rpoly._quad_splits_in_rx(c2, c1, t, lams, d):
                    continue
                f = KPoly([KElem(a, b, cfg), KElem(c1a, c1b, cfg), lead], cfg)
                if rpoly.is_irreducible_rx(f)[0]:
                    return f
            if tried > budget:
                raise over_budget
    return None
