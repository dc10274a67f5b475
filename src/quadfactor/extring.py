"""The intermediate rings D1 = R + x*K[x] and D2 = R + R*x + x^2*K[x].

Membership is a condition on low-order coefficients only: the constant
term (and for D2 also the linear term) must lie in R = Z[w]; all higher
coefficients may be arbitrary elements of K.

Factorization in D1 is driven by the normal form g = c * x^v * u(x)
with u(0) = 1: the classification below is exact, and for elements with
c in R the factorizations into (constants of R) * (copies of x) *
(K-irreducible one-plus-tail factors) enumerate the distinct atom
multisets of the normal form.  In D2 the square x^2 * (unit tail) of a
single atom acquires arbitrarily long rival factorizations through
pi^(2n) * (1 - x^2/pi^(2n)), which is what d2_witness_verify checks.
D2 is not atomic: for a in K outside R, a*x^2 has no factorization into
atoms, since any split into nonunits has a nonunit constant c of R as
one factor and (a/c)*x^2, of the same kind, as the other.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ResourceLimitError, VerificationError
from .factor import NORM_LIMIT, FactorizationSet, factorizations
from .kpoly import KPoly, factor_k, poly_order_key
from .qint import (KElem, canonical_associate, common_nonunit_divisor,
                   is_irreducible)
from .rpoly import is_irreducible_rx

D2_MAX_POWER = 6


# depth of each ring level: how many low coefficients must lie in Z[w]
LEVELS = {"D1": 1, "D2": 2}


class ExtElem:
    """Element of D1 or D2, carried as the underlying K[x] polynomial."""

    __slots__ = ("poly", "level")

    def __init__(self, poly: KPoly, level: str):
        depth = LEVELS.get(level)
        if depth is None:
            raise DomainError(f"unknown ring level {level!r}")
        for i in range(depth):
            c = poly.coeff(i)
            if not c.is_integral():
                raise DomainError(
                    f"coefficient of x^{i} is {c}, not in Z[w]; "
                    f"element lies outside {level}")
        self.poly, self.level = poly, level

    def __str__(self) -> str:
        return str(self.poly)


def d1_classify(g: ExtElem) -> str:
    """One of: unit, constant, associate_of_x, one_plus_tail, reducible.

    `constant` means a nonunit constant of R; `one_plus_tail` an
    element r*(1 + x*f) with r a unit and the tail irreducible in K[x].
    Every other nonzero nonunit is genuinely a product of two nonunits
    of D1."""
    if g.level != "D1":
        raise DomainError("classification applies to D1 elements")
    p = g.poly
    if p.is_zero():
        raise DomainError("zero is not classified")
    if p.degree() == 0:
        return "unit" if p.coeff(0).is_unit() else "constant"
    r = p.coeff(0)
    if r.is_zero():
        if p.degree() == 1 and p.coeff(1).is_unit():
            return "associate_of_x"
        # g = x * (g/x) and g/x is a nonunit of D1
        return "reducible"
    if not r.is_unit():
        return "reducible"
    # a unit rescale of p to its tail leaves the monic K-factors as they are
    if len(factor_k(p)[1]) == 1:
        return "one_plus_tail"
    return "reducible"


def _one_plus_tail_factors(u: KPoly) -> list[KPoly]:
    """K-irreducible factors of u (with u(0) = 1), each normalized to
    constant term 1; their product is exactly u."""
    _, ks = factor_k(u)
    out = []
    for q in ks:
        c0 = q.coeff(0)
        if c0.is_zero():
            raise VerificationError("tail factors cannot vanish at 0")
        out.append(q.scale(c0.inv()))
    return out


def d1_factorizations(g: ExtElem) -> FactorizationSet:
    """All factorizations of g in D1 under the normal form
    g = c * x^v * u(x), u(0) = 1: the x^v and tail atoms are rigid, and
    the constant part contributes its Z[w] factorizations, under the
    norm guard of factor.factorizations.

    Requires the constant part c to lie in R (it always does when v = 0;
    for v > 0 membership of g in D1 does not force it)."""
    if g.level != "D1":
        raise DomainError("factorization model applies to D1 elements")
    p = g.poly
    if p.is_zero():
        raise DomainError("zero polynomial has no factorizations")
    v = next(i for i, c in enumerate(p.coeffs) if not c.is_zero())
    c = p.coeff(v)
    if not c.is_integral():
        raise DomainError(
            f"constant part {c} of the normal form is not in Z[w]; "
            "factorizations are not enumerable for this element")
    if v == 0 and p.degree() == 0 and c.is_unit():
        raise DomainError("units have no factorizations")
    tail = KPoly(p.coeffs[v:], p.cfg).scale(c.inv())
    atoms = [KPoly([KElem(0, 0, p.cfg), KElem(1, 0, p.cfg)], p.cfg)] * v
    if tail.degree() >= 1:
        atoms.extend(_one_plus_tail_factors(tail))
    atoms = tuple(sorted(atoms, key=poly_order_key))
    # constants (degree 0, each factorization already in (norm, a, b)
    # order) sort before every atom, and distinct ones stay distinct
    consts = [()] if c.is_unit() else [
        tuple(map(KPoly.const, m)) for m in factorizations(c).factorizations]
    return FactorizationSet(element=g, factorizations=tuple(
        cm + atoms for cm in consts))


def d2_is_irreducible(g: ExtElem) -> bool:
    """Irreducibility in D2 for elements of degree <= 2.

    A split g = A*B in D2 either has a constant factor (then some
    nonunit of R divides both low coefficients, and the cofactor's low
    coefficients stay in R) or is a product of two linear polynomials,
    necessarily in R[x] since degree-1 elements of D2 have both
    coefficients in R.  With the constant splits excluded and an
    integral leading coefficient, g lies in R[x] with no constant
    split there either, so the R[x] test decides it (and applies its
    coefficient guard)."""
    if g.level != "D2":
        raise DomainError("this test applies to D2 elements")
    p = g.poly
    if p.is_zero():
        raise DomainError("zero is not classified")
    if p.degree() > 2:
        raise DomainError("test supports degree <= 2 only")
    g0, g1 = p.coeff(0), p.coeff(1)
    if p.degree() == 0 and g0.is_unit():
        raise DomainError("units are not classified")
    nonzero = [z for z in (g0, g1) if not z.is_zero()]
    if not nonzero:
        # g = a*x^2 splits as c * (a/c)*x^2 for any nonunit constant c
        return False
    c = common_nonunit_divisor(nonzero)
    if c is not None:
        # cofactor low coefficients are low/c, still in R; higher
        # coefficients are unconstrained for D2 membership
        if p.degree() == 0:
            return is_irreducible(g0)
        return False
    if p.degree() <= 1:
        return True
    if not p.coeff(2).is_integral():
        # a (1,1)-split would need both linear factors in R[x], whose
        # product has leading coefficient in R
        return True
    return is_irreducible_rx(p)[0]


class D2WitnessReport:
    """Outcome of the pi^(2n) length-jump construction in D2."""

    __slots__ = ("pi", "n", "identity_holds", "factors_irreducible",
                 "lengths", "elasticity_lower_bound", "observed_lengths")

    def __init__(self, pi: KElem, n: int, identity_holds: bool,
                 factors_irreducible: bool, lengths: tuple[int, int],
                 elasticity_lower_bound: Fraction,
                 observed_lengths: tuple[int, ...]):
        self.pi, self.n = pi, n
        self.identity_holds = identity_holds
        self.factors_irreducible = factors_irreducible
        self.lengths = lengths
        self.elasticity_lower_bound = elasticity_lower_bound
        self.observed_lengths = observed_lengths

    def ok(self) -> bool:
        return self.identity_holds and self.factors_irreducible


def d2_witness_verify(pi: KElem, n: int) -> D2WitnessReport:
    """Check pi^(2n) * (1 - x^2/pi^(2n)) = (pi^n + x) * (pi^n - x) in D2
    and that the three non-constant pieces plus pi are irreducible,
    giving the element factorization lengths 2 and 2n+1.

    n, and the norm of pi^(2n) against factor.NORM_LIMIT, are checked
    before the irreducibility scan of pi, whose cost grows with the norm
    of pi."""
    if n < 1:
        raise DomainError(f"power must be between 1 and {D2_MAX_POWER}")
    if n > D2_MAX_POWER:
        raise ResourceLimitError(f"power must be between 1 and {D2_MAX_POWER}")
    p2n = pi ** (2 * n)
    if p2n.norm() > NORM_LIMIT:
        raise ResourceLimitError(
            f"norm {p2n.norm()} exceeds guard {NORM_LIMIT}")
    if not is_irreducible(pi):
        raise DomainError(f"{pi} is not irreducible in Z[w]")
    cfg = pi.cfg
    pn = pi ** n
    one = KElem(1, 0, cfg)
    f1 = KPoly([pn, one], cfg)
    f2 = KPoly([pn, -one], cfg)
    tail = KPoly([one, KElem(0, 0, cfg), -p2n.inv()], cfg)
    lhs = f1 * f2
    rhs = tail.scale(p2n)
    identity = lhs == rhs
    factors_ok = (d2_is_irreducible(ExtElem(f1, "D2"))
                  and d2_is_irreducible(ExtElem(f2, "D2"))
                  and d2_is_irreducible(ExtElem(tail, "D2")))
    fs = factorizations(p2n)
    power = tuple([canonical_associate(pi)] * (2 * n))
    if power not in fs.factorizations:
        factors_ok = False
    observed = tuple(sorted({2} | {len(m) + 1 for m in fs.factorizations}))
    return D2WitnessReport(
        pi=pi, n=n,
        identity_holds=identity,
        factors_irreducible=factors_ok,
        lengths=(2, 2 * n + 1),
        elasticity_lower_bound=Fraction(2 * n + 1, 2),
        observed_lengths=observed)
