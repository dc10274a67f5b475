"""Polynomials over R = Z[w]: irreducibility, factorizations and
elasticity.

A polynomial of R[x] is a `kpoly.KPoly` with every coefficient in Z[w],
which _guard checks.  A nonunit f in R[x] factors through K[x]: any
factorization of f groups the K[x]-irreducible factors of f and
rescales each group by a constant.  For a two-way split f = g*h with
deg g >= 1, g is lam * g0 for some subproduct g0 of the monic K-factors
and some lam in K*.  The admissible lam form a finite, computable set
(see lambda_candidates), which makes irreducibility and the full
factorization tree decidable.
"""

from __future__ import annotations

import functools
import itertools

from . import witness
from .errors import DomainError, ResourceLimitError, load
from .kpoly import FACTOR_K_MAX_DEG, KPoly, factor_k, poly_order_key
from .qint import (KElem, canonical_associate, check_coeff_norms,
                   check_integral, common_divisors,
                   irreducible_common_divisors, order_key, try_div)

MAX_DEG = FACTOR_K_MAX_DEG
# the witness search lives in `witness`; the name stays here, bound to
# the same function, only for qfbench's TRACED table, which reads it
# here; it goes when that table is re-pinned (ROADMAP item 1)
property_p_witness = witness.property_p_witness


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


def factorizations_rx(f: KPoly):
    """Every factorization of f in R[x] into irreducibles, up to
    associates and order, as a `factor.FactorizationSet`."""
    _guard(f)
    ks = tuple(factor_k(f)[1])
    return load(".factor").FactorizationSet(
        element=f, factorizations=_poly_multisets(canonical_poly(f), ks))
