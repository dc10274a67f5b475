"""The Property-P witness search: the first quadratic of R[x] that is
irreducible in R[x] but splits in K[x].

A candidate is decided on integer coordinates by two screens: its
discriminant must be a square in K (qint._twice_sqrt), and no rescaling
of its two linear K-factors may lie in R[x] (_quad_splits_in_rx).  The
first candidate that passes both is the witness (property_p_witness
gives the argument), and only it is built as a KPoly; so the search
loads `kpoly` once it has found a witness, and no other polynomial
layer.  The search skips a quadratic that a symmetry of the question
maps to an earlier one, so it still finds the first witness.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left

from .errors import DomainError, ResourceLimitError, load
from .qint import (KElem, RingCfg, _canonical_coords, _canonical_points,
                   _coords_key, _lattice_walk, _twice_sqrt, common_divisors)

WITNESS_MAX_DEG = 2
# quadratics property_p_witness may try before it gives up; d = -1 at
# norm bound 40, the largest exhaustive scan in budget, tries 532512
WITNESS_MAX_CANDIDATES = 10 ** 6


def _witness_count(cfg: RingCfg, max_norm: int) -> int:
    """len(_lattice_walk(cfg, max_norm)) in O(sqrt(max_norm)) steps:
    for each a, the b with a^2 + |d|*b^2 <= max_norm."""
    k = math.isqrt(max_norm)
    return sum(2 * math.isqrt((max_norm - a * a) // -cfg.d) + 1
               for a in range(-k, k + 1))


def _linear_leads(c2: KElem) -> list[tuple[int, int, int, int, int]]:
    """Rows (a, b, 4*a, 4*b, norm(4*lam)) for lam = a + b*w running over
    1 and each canonical nonunit divisor of c2: up to a unit, the
    leading coefficients of the linear factors in R[x] of a quadratic
    with leading coefficient c2."""
    return [(lam.a, lam.b, 4 * lam.a, 4 * lam.b, 16 * lam.norm())
            for lam in itertools.chain((c2.cfg.el(1),),
                                       common_divisors([c2]))]


def _quad_splits_in_rx(c2: tuple, c1: tuple, t: tuple, lams: list,
                       d: int) -> bool:
    """For a quadratic c2*x^2 + c1*x + c0 over R whose discriminant is
    t^2/4, each given by its coordinates (a, b) for a + b*w: is there a
    split into two linear factors of R[x]?  lams is _linear_leads(c2),
    computed once per leading coefficient.

    The roots are r1, r2 = (-2*c1 +- t)/(4*c2).  Any split is
    lam*(x-r1) times (c2/lam)*(x-r2) for one labelling of the roots, so
    lam divides c2: up to a unit it is 1 or a nonunit divisor of c2.
    lam*r1 lies in R iff 4*c2 divides lam*(-2*c1 + t), and (c2/lam)*r2
    does iff 4*lam divides -2*c1 - t.  The other labelling needs no
    test of its own: it is the case lam' = c2/lam, which is in lams up
    to a unit.  A split is a split whether or not the quadratic is
    primitive, so a True answer always means reducible.

    Both divisibilities are tested on coordinates by the identity
    try_div rests on: y divides x exactly when x*conj(y) is 0 mod
    norm(y), coordinate by coordinate.  z = (-2*c1 + t)*conj(4*c2) is
    formed once, and lam*z is tested mod norm(4*c2) for each lam."""
    ga, gb = 4 * c2[0], 4 * c2[1]
    n = ga * ga - d * gb * gb
    pa, pb = t[0] - 2 * c1[0], t[1] - 2 * c1[1]
    za, zb = pa * ga - d * pb * gb, pb * ga - pa * gb
    oa, ob = -t[0] - 2 * c1[0], -t[1] - 2 * c1[1]
    for la, lb, fa, fb, fn in lams:
        if not ((la * za + d * lb * zb) % n or (la * zb + lb * za) % n
                or (oa * fa - d * ob * fb) % fn
                or (ob * fa - oa * fb) % fn):
            return True
    return False


def property_p_witness(cfg: RingCfg, max_norm: int = 20,
                       max_deg: int = WITNESS_MAX_DEG):
    """First quadratic (by leading coefficient, then remaining
    coefficients, each by norm then sign pattern) that is irreducible in
    R[x] but splits in K[x]; None if the search space holds no witness.

    Degrees 0 and 1 cannot witness (constants have no K[x] splitting,
    linear polynomials are K-irreducible), so max_deg = 1 finds none.
    A quadratic is screened in integers: its discriminant must be a
    square in K (_twice_sqrt), and no rescaling of its roots may give
    linear factors of R[x] (_quad_splits_in_rx).  The first survivor is
    returned, and it is a witness.  It splits in K[x]; a split of a
    survivor f into nonunits of R[x] is not linear times linear, so it
    is delta*g with delta a nonunit of R, taken up to a unit so that
    the lead of g = f/delta is canonical.  Then g survives too: its
    discriminant is f's over delta^2, and delta times a linear split of
    g would be one of f.  The lead of g has norm N(lead f)/N(delta) <
    N(lead f), and no coefficient of g has a larger norm than f's.  So
    g, or the member of its orbit that is not skipped (below), survived
    before f, and a reducible f is never the first survivor.  No
    coefficient of the first survivor passes the R[x] layer's guard
    (norm 10^6), so no exit code changes either: at lead 1 a maximal
    order has no survivor (a root in K of a monic quadratic is
    integral, so in R), and a non-maximal one has x^2 + x + (1-d)/4,
    of coefficient norms <= 625, in the first row tested after c1 = 0,
    which holds no survivor (see below); a second lead is reached only
    with at most 1000 coefficients, so below norm bound 250000.

    Both screens are kept by x -> -x, by x -> +-i*x at d = -1 (with
    the unit rescaling, (c1, c0) -> (-+i*c1, -c0)), by conjugation and,
    for c0 != 0, by the reversal x^2*f(1/x).  A candidate is skipped
    only when one of these maps it to a strictly earlier candidate, so
    the first survivor is always tested: a row whose c1 is not
    canonical, a lead whose conjugate class comes first, and a c0 != 0
    of smaller norm than the lead.  Past WITNESS_MAX_CANDIDATES
    candidates, skipped ones included, the search raises
    ResourceLimitError, from a count alone when the coefficients
    outnumber that budget."""
    if max_norm < 1 or max_deg < 1:
        raise DomainError("bounds must be positive")
    if max_deg > WITNESS_MAX_DEG:
        raise ResourceLimitError(
            f"witness search supports degree <= {WITNESS_MAX_DEG}")
    if max_deg < 2:
        return None
    over_budget = ResourceLimitError("witness search exceeds its budget "
                                     f"of {WITNESS_MAX_CANDIDATES} candidates")
    # with more coefficients than the budget L it runs out in the first
    # row, x^2 + c0 (lead 1, c1 = 0), which holds no survivor: a root r is
    # integral, so r is in R and x^2 + c0 = (x-r)(x+r); else d = 1 mod 4,
    # r = (u + v*w)/2 with u, v odd, and -c0 = r^2 has w-part u*v/2 not in
    # Z.  Norm 2*|d|*(L+1) has (2*isqrt(L+1)+1)^2 > L points: stop there
    cap = 2 * -cfg.d * (WITNESS_MAX_CANDIDATES + 1)
    if _witness_count(cfg, min(max_norm, cap)) > WITNESS_MAX_CANDIDATES:
        raise over_budget
    d = cfg.d
    # the coefficients, and the leads, their canonical nonzero points,
    # in (norm, _coords_key) order
    inner = _lattice_walk(cfg, max_norm)
    n, tried = len(inner), 0

    def norm(p):
        return p[0] * p[0] - d * p[1] * p[1]

    for lead in _canonical_points(cfg, inner):
        if (_coords_key(_canonical_coords(lead.a, -lead.b, d))
                < _coords_key((lead.a, lead.b))):
            tried += n * n
            if tried > WITNESS_MAX_CANDIDATES:
                raise over_budget
            continue
        # the kept c0: 0 and every norm from the lead's on (inner[lo:])
        lo = bisect_left(inner, lead.norm(), key=norm)
        # 4*lead*c0 and the split divisors once per lead; a survivor's c0
        # is read back off 4*lead*c0 by exact division
        la, lb, n4 = 4 * lead.a, 4 * lead.b, 16 * lead.norm()
        prods = [(la * a + d * lb * b, la * b + lb * a)
                 for a, b in itertools.chain(
                     inner[:1], itertools.islice(inner, lo, None))]
        c2, lams = (lead.a, lead.b), _linear_leads(lead)
        for c1 in inner:
            c1a, c1b = c1
            left = WITNESS_MAX_CANDIDATES - tried
            tried += n
            if _canonical_coords(c1a, c1b, d) == c1:
                sa, sb = c1a * c1a + d * c1b * c1b, 2 * c1a * c1b
                # the row the budget cuts short keeps its first left c0
                row = prods if tried <= WITNESS_MAX_CANDIDATES else \
                    itertools.islice(prods, min(left, 1) + max(left - lo, 0))
                for pa, pb in row:
                    t = _twice_sqrt(sa - pa, sb - pb, d)
                    if t is None or _quad_splits_in_rx(c2, c1, t, lams, d):
                        continue
                    c0 = KElem((pa * la - d * pb * lb) // n4,
                               (pb * la - pa * lb) // n4, cfg)
                    return load(".kpoly").KPoly(
                        [c0, KElem(c1a, c1b, cfg), lead], cfg)
            if tried > WITNESS_MAX_CANDIDATES:
                raise over_budget
    return None
