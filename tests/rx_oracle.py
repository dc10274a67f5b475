"""The original R[x] search, kept only as a test oracle.

is_irreducible_rx and _poly_multisets as they were before the single
split generator: each runs its own subset x lam loop, factors every
candidate g and cofactor h again in K[x], and also tries the grouping
of all K[x]-factors with a constant cofactor.  The subsets and their
products come from _submultisets and _grouped, the helpers the search
used before it built its products one run of equal factors at a time."""

import functools
import itertools

from quadfactor.factor import factorizations
from quadfactor.kpoly import KPoly, factor_k, poly_order_key
from quadfactor.qint import (KElem, common_nonunit_divisor,
                             irreducible_common_divisors, is_irreducible,
                             try_div)
from quadfactor.rpoly import (GroupingCertificate, _guard,
                              canonical_poly, lambda_candidates)


def _submultisets(ks: list):
    """Nonempty proper sub-multisets of ks as index tuples, deterministic.

    Equal factors are grouped so each distinct sub-multiset appears once."""
    groups = []
    for i, q in enumerate(ks):
        if groups and groups[-1][0] == q:
            groups[-1][1].append(i)
        else:
            groups.append((q, [i]))
    ranges = [range(len(idx) + 1) for _, idx in groups]
    for counts in itertools.product(*ranges):
        total = sum(counts)
        if total == 0 or total == len(ks):
            continue
        subset = []
        for (_, idx), k in zip(groups, counts):
            subset.extend(idx[:k])
        yield tuple(subset)


def _grouped(ks: list, unit_k: KElem, subset: tuple):
    """(g0, h0) for a subset: g0 monic subproduct, h0 the cofactor with
    the K[x] unit folded in, so g0 * h0 is the original polynomial."""
    cfg = unit_k.cfg
    g0 = KPoly.const(KElem(1, 0, cfg))
    h0 = KPoly.const(unit_k)
    chosen = set(subset)
    for i, q in enumerate(ks):
        if i in chosen:
            g0 = g0 * q
        else:
            h0 = h0 * q
    return g0, h0


def is_irreducible_rx(f: KPoly):
    _guard(f)
    if f.degree() == 0:
        c = f.coeffs[0]
        if is_irreducible(c):
            return True, None
        div = common_nonunit_divisor([c])
        cert = GroupingCertificate(
            subset=(), lam=div,
            g=KPoly.const(div), h=KPoly.const(try_div(c, div)))
        return False, cert
    content = common_nonunit_divisor(list(f.coeffs))
    if content is not None:
        cert = GroupingCertificate(
            subset=(), lam=content,
            g=KPoly.const(content), h=f.try_scale_div(content))
        return False, cert
    unit_k, ks = factor_k(f)
    if len(ks) == 1:
        return True, None
    for subset in _submultisets(ks):
        g0, h0 = _grouped(ks, unit_k, subset)
        for lam in lambda_candidates(g0, h0):
            g = g0.scale(lam)
            h = h0.scale(lam.inv())
            return False, GroupingCertificate(subset, lam, g, h)
    return True, None


@functools.lru_cache(maxsize=None)
def poly_multisets(f: KPoly) -> frozenset:
    """f canonical, nonzero, nonunit; frozenset of sorted KPoly tuples."""
    if f.degree() == 0:
        return frozenset(
            tuple(KPoly.const(c) for c in m)
            for m in factorizations(f.coeffs[0]).factorizations)
    out = set()
    for c in irreducible_common_divisors(list(f.coeffs)):
        q = f.try_scale_div(c)
        for rest in poly_multisets(canonical_poly(q)):
            out.add(tuple(sorted((KPoly.const(c),) + rest,
                                 key=poly_order_key)))
    unit_k, ks = factor_k(f)
    groups = list(_submultisets(ks))
    groups.append(tuple(range(len(ks))))  # constant cofactor route
    for subset in groups:
        g0, h0 = _grouped(ks, unit_k, subset)
        for lam in lambda_candidates(g0, h0):
            g = g0.scale(lam)
            if not is_irreducible_rx(g)[0]:
                continue
            h = h0.scale(lam.inv())
            gc = canonical_poly(g)
            if h.is_unit():
                out.add((gc,))
                continue
            for rest in poly_multisets(canonical_poly(h)):
                out.add(tuple(sorted((gc,) + rest, key=poly_order_key)))
    return frozenset(out)
