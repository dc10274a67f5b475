"""Battery of cross-checks tying the pieces together.

Each check states a mathematical claim and verifies it from scratch at
run time; run_all executes all of them.  The checks double as the
acceptance tests and as the CLI's self-test subcommand, so their
details carry no timing numbers (output must be reproducible); wall
times are kept in a separate field that tests may inspect.

The factorization oracle here is deliberately primitive: raw integer
pairs, no shared canonicalization helpers, and no division.  It sieves
the atoms out of the products of pairs of nonunits, then multiplies
atoms together, so it shares no divisibility test with the main
implementation.  Agreement with it over whole norm ranges is strong
evidence both are right.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction

from . import extring, factor, ideals, rpoly
from .kpoly import KPoly, factor_k
from .qint import (KElem, _canonical_points, _lattice_walk,
                   common_nonunit_divisor, is_prime, ring)

CORE_RINGS = (-1, -2, -3, -5, -14)


class CheckResult:
    __slots__ = ("name", "claim", "ok", "detail", "seconds")

    def __init__(self, name: str, claim: str, ok: bool, detail: str,
                 seconds: float = 0.0):
        self.name, self.claim, self.ok = name, claim, ok
        self.detail, self.seconds = detail, seconds


# ---------------------------------------------------------------- oracle

def naive_factorization_oracle(d: int, max_norm: int) -> dict:
    """All factorizations for every class with norm in [2, max_norm],
    computed independently on raw coordinate pairs, by multiplication
    only.

    Elements are (a, b) for a + b*sqrt(d).  The atoms are the nonunit
    classes that no product of two nonunits reaches.  Each
    non-decreasing sequence of atoms, ordered by (norm, a, b), whose
    product has norm <= max_norm is recorded under its product's class,
    so each factorization is built exactly once.  Returns {canonical
    pair: set of sorted factor-triple tuples}, factors encoded as
    (norm, a, b)."""
    dd = -d

    # canon_of maps every lattice point of norm <= max_norm to its
    # canonical pair, found once per orbit: a > 0 first, then the least
    # a, then b > 0; nonunits lists those of norm >= 2 as (norm, a, b)
    canon_of, nonunits = {}, []
    r = math.isqrt(max_norm)
    for a in range(-r, r + 1):
        s = math.isqrt((max_norm - a * a) // dd)
        for b in range(-s, s + 1):
            if (a, b) not in canon_of:
                if d == -1 and (a or b):
                    orbit = ((a, b), (-a, -b), (-b, a), (b, -a))
                    u, v = min((p, -q) for p, q in orbit if p > 0)
                    c = (u, -v)
                else:
                    orbit = ((a, b), (-a, -b))
                    c = orbit[0] if orbit[0] > (0, 0) else orbit[1]
                canon_of.update(dict.fromkeys(orbit, c))
                n = a * a + dd * b * b
                if n > 1:
                    nonunits.append((n,) + c)
    nonunits.sort()
    out = {t[1:]: set() for t in nonunits}
    reducible = set()
    for i, (n1, a1, b1) in enumerate(nonunits):
        for j in range(i, len(nonunits)):
            n2, a2, b2 = nonunits[j]
            if n1 * n2 > max_norm:
                break
            reducible.add(canon_of[(a1 * a2 - dd * b1 * b2,
                                    a1 * b2 + a2 * b1)])
    atoms = [t for t in nonunits if t[1:] not in reducible]

    # extend seq, whose product is a + b*sqrt(d) of norm n, by atoms[i:]
    def grow(seq, a, b, n, i):
        for j in range(i, len(atoms)):
            m, ta, tb = t = atoms[j]
            if n * m > max_norm:
                return
            pa, pb = a * ta - dd * b * tb, a * tb + b * ta
            out[canon_of[(pa, pb)]].add(longer := seq + (t,))
            grow(longer, pa, pb, n * m, j)

    grow((), 1, 0, 1, 0)
    del grow  # frees canon_of now: grow's closure cell refers to grow
    return out


def _as_triples(fs: factor.FactorizationSet) -> set:
    # fs sorts its tuples by (norm, a, b), as the oracle does
    d = fs.element.cfg.d
    return {tuple([(z.a * z.a - d * z.b * z.b, z.a, z.b) for z in m])
            for m in fs.factorizations}


# ---------------------------------------------------------------- checks

def _check(name: str, claim: str, budget: float | None = None):
    """Turn body(seed) -> (ok, detail) into a check(seed=0) returning a
    timed CheckResult; with a budget in seconds, the check also fails
    when the body takes longer."""
    def decorate(body):
        @functools.wraps(body)
        def check(seed: int = 0) -> CheckResult:
            t0 = time.perf_counter()
            ok, detail = body(seed)
            dt = time.perf_counter() - t0
            if budget is not None:
                ok = ok and dt < budget
            return CheckResult(name, claim, ok, detail, dt)
        return check
    return decorate


@_check("factor-81",
        "81 in Z[sqrt(-14)] has exactly the factorizations "
        "{3,3,3,3} and {5+2w, 5-2w}; elasticity 2; under 1s", budget=1.0)
def check_factor_81(seed: int):
    cfg = ring(-14)
    fs = factor.factorizations(cfg.el(81))
    expected = frozenset({
        tuple([cfg.el(3)] * 4),
        (cfg.el(5, -2), cfg.el(5, 2)),
    })
    el = fs.elasticity()
    ok = fs.factorizations == expected and el == Fraction(2)
    return ok, f"{len(fs.factorizations)} classes, elasticity {el}"


@_check("poly-factor-81x",
        "81x over Z[sqrt(-14)][x] has length set {3, 5} and "
        "elasticity 5/3; under 5s", budget=5.0)
def check_poly_factor_81x(seed: int):
    cfg = ring(-14)
    f = KPoly.from_rationals([0, 81], cfg)
    fs = rpoly.factorizations_rx(f)
    el = fs.elasticity()
    ok = fs.lengths() == [3, 5] and el == Fraction(5, 3)
    return ok, f"lengths {fs.lengths()}, elasticity {el}"


@_check("rx-split-z3",
        "over Z[sqrt(-3)][x]: (2)(2)(x^2+x+1) = (2x+1+w)(2x+1-w), "
        "all five factors irreducible; 4x^2+4x+4 has length set "
        "{2, 3} and elasticity 3/2")
def check_rx_split_z3(seed: int):
    cfg = ring(-3)
    two = KPoly.from_rationals([2], cfg)
    quad = KPoly.from_rationals([1, 1, 1], cfg)
    l1 = KPoly([cfg.el(1, 1), cfg.el(2)], cfg)
    l2 = KPoly([cfg.el(1, -1), cfg.el(2)], cfg)
    target = KPoly.from_rationals([4, 4, 4], cfg)
    identity = (two * two * quad == target and l1 * l2 == target)
    irr = all(rpoly.is_irreducible_rx(g)[0]
              for g in (two, quad, l1, l2))
    fs = rpoly.factorizations_rx(target)
    ok = (identity and irr and fs.lengths() == [2, 3]
          and fs.elasticity() == Fraction(3, 2))
    return ok, (f"identity {identity}, irreducible {irr}, lengths "
                f"{fs.lengths()}, {len(fs.factorizations)} classes")


@_check("rx-split-z5",
        "over Z[sqrt(-5)][x]: (2)(2x^2+2x+3) = (2x+1+w)(2x+1-w), "
        "all four factors irreducible; 4x^2+4x+6 has exactly two "
        "factorizations, both of length 2, elasticity 1")
def check_rx_split_z5(seed: int):
    cfg = ring(-5)
    two = KPoly.from_rationals([2], cfg)
    quad = KPoly.from_rationals([3, 2, 2], cfg)
    l1 = KPoly([cfg.el(1, 1), cfg.el(2)], cfg)
    l2 = KPoly([cfg.el(1, -1), cfg.el(2)], cfg)
    target = KPoly.from_rationals([6, 4, 4], cfg)
    identity = (two * quad == target and l1 * l2 == target)
    irr = all(rpoly.is_irreducible_rx(g)[0]
              for g in (two, quad, l1, l2))
    fs = rpoly.factorizations_rx(target)
    lens = sorted(len(m) for m in fs.factorizations)
    ok = (identity and irr and lens == [2, 2]
          and fs.elasticity() == Fraction(1))
    return ok, (f"identity {identity}, irreducible {irr}, "
                f"class lengths {lens}")


@_check("hfd-z5",
        "every element of Z[sqrt(-5)] with norm <= 5000 has a "
        "one-length factorization set, and some element has two "
        "distinct factorizations; under 60s", budget=60.0)
def check_hfd_z5(seed: int):
    cfg = ring(-5)
    multi = None
    for x in _canonical_points(cfg, _lattice_walk(cfg, 5000)):
        if x.norm() > 1:
            fs = factor.factorizations(x)
            if len(fs.lengths()) != 1:
                return False, f"length set of {x} is not a singleton"
            if multi is None and len(fs.factorizations) > 1:
                multi = x
    return multi is not None, f"first multi-class element: {multi}"


@_check("factor-oracle",
        "factorizations match an independent raw-integer divisor "
        "oracle for every class of norm <= 2000, d in "
        "{-1, -2, -3, -5, -14}")
def check_factor_oracle(seed: int):
    total = 0
    for d in CORE_RINGS:
        cfg = ring(d)
        oracle = naive_factorization_oracle(d, 2000)
        for (a, b), expected in oracle.items():
            got = _as_triples(factor.factorizations(cfg.el(a, b)))
            if got != expected:
                return False, f"mismatch at d={d}, element {(a, b)}"
            total += 1
    return True, f"{total} elements agree across {len(CORE_RINGS)} rings"


@_check("elasticity-shrink",
        "attaching a prime factor never raises elasticity: "
        "rho(a) >= rho(a*p) on 200 seeded pairs across the rings")
def check_elasticity_shrink(seed: int):
    rng = random.Random(seed)
    ds = (-1, -2, -3, -5, -6, -10, -14)
    pools = {}
    for d in ds:
        cfg = ring(d)
        pools[d] = [x for x in _canonical_points(cfg, _lattice_walk(cfg, 60))
                    if x.norm() > 1 and is_prime(x)]
    checked = 0
    while checked < 200:
        d = ds[checked % len(ds)]
        cfg = ring(d)
        a = cfg.el(rng.randint(-6, 6), rng.randint(-3, 3))
        if a.is_zero() or a.is_unit() or a.norm() > 300:
            continue
        p = rng.choice(pools[d])
        ea = factor.factorizations(a).elasticity()
        eap = factor.factorizations(a * p).elasticity()
        if ea < eap:
            return False, f"rho grew from {ea} to {eap} at d={d}, a={a}"
        checked += 1
    return True, f"{checked} pairs verified"


@_check("psp-witness-z5",
        "2+(1+w)x over Z[sqrt(-5)] is primitive but not "
        "superprimitive, with witness (1-w)/2")
def check_psp_witness_z5(seed: int):
    cfg = ring(-5)
    f = KPoly([cfg.el(2), cfg.el(1, 1)], cfg)
    prim = ideals.is_primitive(f)
    sup, wit = ideals.is_superprimitive(f)
    expected = KElem(1, -1, cfg, 2)
    scaled_in = all((wit * c).is_integral()
                    for c in f.coeffs) if wit else False
    ok = (prim and not sup and wit == expected
          and scaled_in and not wit.is_integral())
    return ok, f"primitive {prim}, superprimitive {sup}, witness {wit}"


@_check("property-p",
        "an R[x]-irreducible polynomial splitting in K[x] exists "
        "within degree 2 and norm 20 for d in {-3,-5,-6,-10,-14} "
        "(first witness for -3 is x^2+x+1) and does not exist for "
        "d in {-1, -2}")
def check_property_p(seed: int):
    notes = []
    for d in (-3, -5, -6, -10, -14):
        cfg = ring(d)
        wit = rpoly.property_p_witness(cfg, 20, 2)
        if wit is None:
            return False, f"no witness found for d={d}"
        if not rpoly.is_irreducible_rx(wit)[0]:
            return False, f"witness for d={d} is reducible"
        if len(factor_k(wit)[1]) < 2:
            return False, f"witness for d={d} does not split over K"
        if d == -3 and wit != KPoly.from_rationals([1, 1, 1], cfg):
            return False, f"first witness for d=-3 was {wit}"
        notes.append(f"d={d}: {wit}")
    for d in (-1, -2):
        cfg = ring(d)
        wit = rpoly.property_p_witness(cfg, 20, 2)
        if wit is not None:
            return False, f"unexpected witness {wit} for d={d}"
        notes.append(f"d={d}: none")
    return True, "; ".join(notes)


@_check("d2-length-jump",
        "for pi=2 over Z[sqrt(-5)] and n=1..5, "
        "pi^(2n)(1 - x^2/pi^(2n)) = (pi^n+x)(pi^n-x) holds in D2 "
        "with irreducible factors; lengths (2, 2n+1) push the "
        "elasticity lower bound (2n+1)/2 without limit")
def check_d2_length_jump(seed: int):
    cfg = ring(-5)
    pi = cfg.el(2)
    bounds = []
    for n in range(1, 6):
        rep = extring.d2_witness_verify(pi, n)
        if not rep.ok():
            return False, f"construction failed at n={n}"
        if rep.lengths != (2, 2 * n + 1):
            return False, f"lengths {rep.lengths} at n={n}"
        if rep.elasticity_lower_bound != Fraction(2 * n + 1, 2):
            return False, f"bound {rep.elasticity_lower_bound} at n={n}"
        if 2 not in rep.observed_lengths or \
                2 * n + 1 not in rep.observed_lengths:
            return False, f"observed {rep.observed_lengths} at n={n}"
        bounds.append(str(rep.elasticity_lower_bound))
    return True, "bounds " + ", ".join(bounds)


@_check("d1-elasticity",
        "50 seeded D1 elements over Z[sqrt(-5)] all have "
        "elasticity 1 (half-factoriality lifts to D1); 81+x^2 over "
        "Z[sqrt(-14)] has length set {3, 5} and elasticity 5/3")
def check_d1_elasticity(seed: int):
    cfg = ring(-5)
    rng = random.Random(seed)
    count = 0
    while count < 50:
        c = cfg.el(rng.randint(-9, 9), rng.randint(-4, 4))
        if c.is_zero() or c.is_unit():
            continue
        v = rng.randint(0, 2)
        coeffs = [KElem(0, 0, cfg)] * v
        coeffs.append(c)
        for _ in range(rng.randint(0, 2)):
            # u/du + (t/dt)*w, drawn in that order
            u, du, t, dt = (rng.randint(-3, 3), rng.randint(1, 3),
                            rng.randint(-2, 2), rng.randint(1, 3))
            coeffs.append(KElem(u * dt, t * du, cfg, du * dt))
        p = KPoly(coeffs, cfg)
        g = extring.ExtElem(p, "D1")
        el = extring.d1_factorizations(g).elasticity()
        if el != Fraction(1):
            return False, f"elasticity {el} for {p}"
        count += 1
    cfg14 = ring(-14)
    p = KPoly([KElem(81, 0, cfg14), KElem(0, 0, cfg14),
               KElem(1, 0, cfg14)], cfg14)
    fs = extring.d1_factorizations(extring.ExtElem(p, "D1"))
    el = fs.elasticity()
    ok = fs.lengths() == [3, 5] and el == Fraction(5, 3)
    return ok, (f"{count} samples at elasticity 1; 81+x^2 lengths "
                f"{fs.lengths()}, elasticity {el}")


@_check("ideal-laws",
        "on seeded fractional ideals: v-closure is idempotent and "
        "contains the ideal, colon reverses inclusions; the Gauss "
        "product (2+(1+w)x)(2+(1-w)x) over Z[sqrt(-5)] fails "
        "primitivity with content divisible by 2; the pair "
        "B=(2,1+w), C=(2,1-w)/2 over Z[sqrt(-5)] breaks the "
        "product-closure implication while Z[i] instances satisfy it")
def check_ideal_laws(seed: int):
    rng = random.Random(seed)

    def contain(big, small):
        return all(big.contains(g) for g in small.generators())

    rounds = 0
    for d in (-1, -3, -5, -14):
        cfg = ring(d)
        for _ in range(50):
            gens = [cfg.el(rng.randint(-9, 9), rng.randint(-4, 4))
                    for _ in range(2)]
            if all(g.is_zero() for g in gens):
                continue
            I = ideals.ideal_from_gens(gens)
            V = ideals.v_closure(I)
            if ideals.v_closure(V) != V or not contain(V, I):
                return False, f"v-closure misbehaves at d={d}, I={I}"
            z = cfg.el(rng.randint(1, 5), rng.randint(0, 2))
            J = ideals.mul(I, ideals.ideal_from_gens([z]))
            if not contain(ideals.colon(J), ideals.colon(I)):
                return False, f"colon not antitone at d={d}"
            rounds += 1
    cfg5 = ring(-5)
    f = KPoly([cfg5.el(2), cfg5.el(1, 1)], cfg5)
    g = KPoly([cfg5.el(2), cfg5.el(1, -1)], cfg5)
    gauss = ideals.gauss_product_check(f, g)
    prod = f * g
    content = common_nonunit_divisor(list(prod.coeffs))
    if gauss or content != cfg5.el(2):
        return False, f"gauss {gauss}, content {content}"
    B = ideals.ideal_from_gens([cfg5.el(2), cfg5.el(1, 1)])
    C = ideals.ideal_from_gens([
        KElem(1, 0, cfg5), KElem(1, -1, cfg5, 2)])
    gamma_bad = ideals.gamma_check(B, C).holds
    cfg1 = ring(-1)
    B1 = ideals.ideal_from_gens([cfg1.el(1, 1)])
    C1 = ideals.ideal_from_gens(
        [KElem(1, -1, cfg1, 2)])
    gamma_good = ideals.gamma_check(B1, C1).holds
    ok = (not gamma_bad) and gamma_good
    return ok, (f"{rounds} ideal rounds; gauss fails with content 2; "
                f"gamma instance false at d=-5, true at d=-1")


ALL_CHECKS = (
    check_factor_81,
    check_poly_factor_81x,
    check_rx_split_z3,
    check_rx_split_z5,
    check_hfd_z5,
    check_factor_oracle,
    check_elasticity_shrink,
    check_psp_witness_z5,
    check_property_p,
    check_d2_length_jump,
    check_d1_elasticity,
    check_ideal_laws,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [fn(seed) for fn in ALL_CHECKS]
