"""Polynomials over R = Z[w]: irreducibility, factorizations, elasticity,
and the splitting-behaviour witness search.

A polynomial of R[x] is a `kpoly.KPoly` with every coefficient in Z[w],
which _guard checks.  A nonunit f in R[x] factors through K[x]: any
factorization of f groups the K[x]-irreducible factors of f and
rescales each group by a constant.  For a two-way split f = g*h with
deg g >= 1, g is lam * g0 for some subproduct g0 of the monic K-factors
and some lam in K*.  The admissible lam form a finite, computable set
(see lambda_candidates), which makes irreducibility and the full
factorization tree decidable.

The witness search skips a quadratic that a symmetry of the question
maps to an earlier one, so it still finds the first witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left

from .errors import DomainError, ResourceLimitError
from .factor import FactorizationSet
from .kpoly import FACTOR_K_MAX_DEG, KPoly, factor_k, poly_order_key
from .qint import (KElem, RingCfg, _canonical_coords, _canonical_points,
                   _coords_key, _lattice_walk, _twice_sqrt,
                   canonical_associate, check_coeff_norms, check_integral,
                   common_divisors, irreducible_common_divisors, order_key,
                   try_div)

MAX_DEG = FACTOR_K_MAX_DEG
WITNESS_MAX_DEG = 2
# quadratics property_p_witness may try before it gives up; d = -1 at
# norm bound 40, the largest exhaustive scan in budget, tries 532512
WITNESS_MAX_CANDIDATES = 10 ** 6


def canonical_poly(f: KPoly) -> KPoly:
    """Unit-rescale so the leading coefficient is canonical."""
    return f.scale(try_div(canonical_associate(f.lc()), f.lc()))


class GroupingCertificate:
    """Witness that f is reducible: f = g * h with g, h nonunits of R[x].

    subset gives the indices of the K[x]-factors of f grouped into g
    (empty for a constant split), lam the rescaling constant with
    g = lam * g0."""

    __slots__ = ("subset", "lam", "g", "h")

    def __init__(self, subset: tuple, lam: KElem, g: KPoly, h: KPoly):
        self.subset, self.lam, self.g, self.h = subset, lam, g, h

    def _fields(self) -> tuple:
        return self.subset, self.lam, self.g, self.h

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupingCertificate)
                and self._fields() == other._fields())

    def __hash__(self) -> int:
        return hash(self._fields())


def lambda_candidates(g0: KPoly, h0: KPoly) -> list[KElem]:
    """All lam in K*, up to associates, with lam*g0 and lam^-1*h0 both
    integral.

    Completeness: if lam is admissible then s = lam*lc(g0) lies in R,
    and so does e/lam for every coefficient e of h0; hence lc(g0)*e =
    s*(e/lam) lies in R and is divisible by s.  So there is no lam when
    some lc(g0)*e is not in R, and otherwise s is a unit or a common
    nonunit divisor of the lc(g0)*e.  Associate classes of lam biject
    with those of s, so s = 1 and the canonical common divisors cover
    every class once.  The second containment holds by construction, as
    e/lam = lc(g0)*e/s; so lam = s/lc(g0) is tested on g0 alone, and
    recorded by its canonical associate (unit rescalings give the same
    grouping).
    """
    if g0.is_zero() or h0.is_zero():
        raise DomainError("cannot regroup a zero factor")
    c = g0.lc()
    prods = [c * e for e in h0.coeffs if not e.is_zero()]
    if not all(p.is_integral() for p in prods):
        return []
    lams = (s / c for s in itertools.chain((c.cfg.el(1),),
                                            common_divisors(prods)))
    return sorted((canonical_associate(lam) for lam in lams
                   if g0.scale(lam).is_integral()), key=order_key)


def _guard(f: KPoly) -> None:
    check_integral(f.coeffs)
    if f.is_zero():
        raise DomainError("zero polynomial has no factorizations")
    if f.is_unit():
        raise DomainError("units have no factorizations")
    if f.degree() > MAX_DEG:
        raise ResourceLimitError(
            f"degree {f.degree()} exceeds guard {MAX_DEG}")
    check_coeff_norms(f.coeffs)


def _groupings(ks: tuple, unit: KElem):
    """(subset, g0, h0) for each nonempty proper sub-multiset of the
    sorted ks, in itertools.product order over the counts k taken from
    each run of equal factors (its first k): g0 is the monic product of
    the subset and h0 that of the rest times unit.  Products grow one run
    at a time, shared by the subsets that agree on the runs before, and
    a factor 1 is never multiplied in."""
    if len(ks) < 2:
        return iter(())
    one = KPoly.const(unit.cfg.el(1))

    def mul(p, q):
        return q if p is one else p if q is one else p * q

    # runs[r][k]: the product of k factors of run r
    runs = [list(itertools.accumulate(grp, mul, initial=one))
            for _, grp in itertools.groupby(ks)]

    def walk(r, start, subset, g0, h0):
        powers, m = runs[r], len(runs[r]) - 1
        for k in range(m + 1):
            sub = subset + tuple(range(start, start + k))
            if r + 1 < len(runs):
                yield from walk(r + 1, start + m, sub, mul(g0, powers[k]),
                                mul(h0, powers[m - k]))
            elif 0 < len(sub) < len(ks):
                yield sub, mul(g0, powers[k]), mul(h0, powers[m - k])

    return walk(0, 0, (), one, KPoly.const(unit))


def _splits(f: KPoly, ks):
    """Every split f = g * h into nonunits of R[x] with g canonical, and
    irreducible or nonconstant, up to associates, as certificates.

    ks are the monic K[x]-factors of f, sorted as factor_k returns them;
    None factors f once the constant splits are exhausted.  First come
    the irreducible constant common divisors g of the coefficients by
    ascending norm (skipping those whose cofactor is a unit), then
    g = lam * g0 over the proper sub-multisets g0 of ks and the lam of
    lambda_candidates: a nonconstant g whose cofactor is constant is the
    other half of a constant split."""
    for c in irreducible_common_divisors(list(f.coeffs)):
        h = f.try_scale_div(c)
        if not h.is_unit():
            yield GroupingCertificate((), c, KPoly.const(c), h)
    if ks is None:
        ks = tuple(factor_k(f)[1])
    for subset, g0, h0 in _groupings(ks, f.lc()):
        for lam in lambda_candidates(g0, h0):
            yield GroupingCertificate(subset, lam, g0.scale(lam),
                                      h0.scale(lam.inv()))


def is_irreducible_rx(f: KPoly):
    """-> (bool, GroupingCertificate | None for the reducible case).

    The certificate is the first split of _splits: the common nonunit
    divisor of least norm, which is irreducible, else a grouping of the
    K[x]-factors rescaled into R[x]."""
    _guard(f)
    cert = next(_splits(f, None), None)
    return cert is None, cert


@functools.lru_cache(maxsize=4096)
def _poly_multisets(f: KPoly, ks: tuple) -> tuple:
    """f canonical, nonzero, nonunit, with monic K[x]-factors ks; the
    tuple of its distinct factorizations, KPoly tuples sorted by
    poly_order_key.

    Each factorization is built once, least atom first: from the split
    whose g is its least atom, then a factorization of h whose least atom
    is not below g.  _splits holds that split (a least atom is constant
    whenever any atom is), and distinct splits give distinct canonical g.
    The K[x]-factors of g and h are read off the subset.  A constant g
    of _splits is irreducible in R, hence in R[x], whose units are R's;
    a nonconstant g is irreducible exactly when its own factor set,
    memoised here like f's, is ((g,),)."""
    out = []
    for cert in _splits(f, ks):
        g = cert.g
        if cert.subset and _poly_multisets(
                g, tuple(ks[i] for i in cert.subset)) != ((g,),):
            continue
        least = poly_order_key(g)
        rest_ks = tuple(q for i, q in enumerate(ks) if i not in cert.subset)
        for rest in _poly_multisets(canonical_poly(cert.h), rest_ks):
            if poly_order_key(rest[0]) >= least:
                out.append((g,) + rest)
    return tuple(out) or ((f,),)


def factorizations_rx(f: KPoly) -> FactorizationSet:
    """Every factorization of f in R[x] into irreducibles, up to
    associates and order."""
    _guard(f)
    ks = tuple(factor_k(f)[1])
    return FactorizationSet(
        element=f, factorizations=_poly_multisets(canonical_poly(f), ks))


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
    square in K (_twice_sqrt), no rescaling of its roots may give
    linear factors of R[x] (_quad_splits_in_rx); is_irreducible_rx
    decides a survivor, and rejects one with a common nonunit divisor of
    its coefficients at its first constant split.

    Both properties are kept by x -> -x, by x -> +-i*x at d = -1 (with
    the unit rescaling, (c1, c0) -> (-+i*c1, -c0)), by conjugation and,
    for c0 != 0, by the reversal x^2*f(1/x).  A candidate is skipped
    only when one of these maps it to a strictly earlier candidate, so
    the first witness is always tested: a row whose c1 is not canonical,
    a lead whose conjugate class comes first, and a c0 != 0 of smaller
    norm than the lead.  Past WITNESS_MAX_CANDIDATES candidates,
    skipped ones included, the search raises ResourceLimitError, from a
    count alone when the coefficients outnumber that budget."""
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
    # row, x^2 + c0 (lead 1, c1 = 0), which holds no witness: a root r is
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
                    f = KPoly([c0, KElem(c1a, c1b, cfg), lead], cfg)
                    # shortcut says witness; the full test has the final word
                    if is_irreducible_rx(f)[0]:
                        return f
            if tried > WITNESS_MAX_CANDIDATES:
                raise over_budget
    return None
