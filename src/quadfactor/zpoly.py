"""Factorization in Z[x] by the Zassenhaus method.

`zassenhaus` factors a primitive squarefree integer polynomial: it
factors the polynomial mod a small prime p by Berlekamp's method,
Hensel-lifts those factors mod a power of p that exceeds the size any
true factor can have, and recombines them into the factors over Z.
Every step is deterministic.

Polynomials are int lists, low-to-high.  The _p* helpers work mod m:
they keep coefficients in [0, m) and drop zero leading terms.
"""

from __future__ import annotations

import math
from itertools import combinations, count, zip_longest

from .errors import VerificationError


def _pmod(a: list[int], m: int, b=(), k: int = 1) -> list[int]:
    """a + k*b mod m."""
    out = [(x + k * y) % m for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _pmod(out, m)


def _pdivmod(a: list[int], b: list[int], m: int):
    """Quotient and remainder mod m; lc(b) must be a unit mod m."""
    inv, r = pow(b[-1], -1, m), list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + len(b) - 1] * inv % m
        for i, y in enumerate(b):
            r[k + i] -= c * y
    return _pmod(q, m), _pmod(r[:len(b) - 1], m)


def _pgcdex(a: list[int], b: list[int], p: int):
    """(g, s) over F_p with g = gcd(a, b) monic and s*a = g mod b."""
    s, s1 = [1], []
    while b:
        q, r = _pdivmod(a, b, p)
        a, b, s, s1 = b, r, s1, _pmod(s, p, _pmul(q, s1, p), -1)
    inv = [pow(a[-1], -1, p)]
    return _pmul(a, inv, p), _pmul(s, inv, p)


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors over F_p of monic squarefree f
    (Berlekamp 1970).

    Row i of Q is x^(i*p) mod f, so v = sum v_i x^i has v^p = v mod f
    exactly when v (Q - I) = 0.  Those v form a space with one dimension
    per irreducible factor, and f = prod_s gcd(f, v - s) for each v.
    """
    n, xp, r, a = len(f) - 1, _pdivmod([0] * p + [1], f, p)[1], [1], []
    for i in range(n):  # row i of Q - I, then row i of I
        row = r + [0] * (2 * n - len(r))
        row[i] -= 1
        row[n + i] = 1
        a.append([x % p for x in row])
        r = _pdivmod(_pmul(r, xp, p), f, p)[1]
    used = set()
    for c in range(n):  # row-reduce the Q - I half; zero rows keep their v
        k = next((k for k in range(n) if k not in used and a[k][c]), None)
        if k is None:
            continue
        used.add(k)
        inv = pow(a[k][c], -1, p)
        for i, row in enumerate(a):
            if i != k and row[c]:
                t = row[c] * inv
                a[i] = [(x - t * y) % p for x, y in zip(row, a[k])]
    basis = [_pmod(row[n:], p) for row in a if not any(row[:n])]
    factors = [f]
    # row 0 of Q - I is zero, so basis[0] is the constant 1
    for v in basis[1:]:
        if len(factors) == len(basis):
            break
        split = []
        for g in factors:
            for s in range(p if len(g) > 2 else 0):  # linear g stays whole
                h = _pgcdex(g, _pmod(v, p, [s], -1), p)[0]
                if 1 < len(h) < len(g):
                    split.append(h)
                    g = _pdivmod(g, h, p)[0]
            split.append(g)
        factors = split
    return factors


def _hensel_lift(F: list[int], factors: list[list[int]], p: int,
                 M: int) -> list[list[int]]:
    """Monic lifts mod M = p^l of F = lc(F) * prod(factors) mod p, by
    linear Hensel steps on all factors at once (Cohen, GTM 138, 3.5)."""
    lc, m, lifted, a = F[-1], p, factors, []
    for g in factors:  # sum_i a_i * lc * prod_{j != i} g_j = 1 mod p
        rest = [lc]
        for h in factors:
            rest = rest if h is g else _pmul(rest, h, p)
        a.append(_pgcdex(rest, g, p)[1])
    while True:
        prod = [lc]
        for g in lifted:
            prod = _pmul(prod, g, m * p)
        diff = _pmod(F, m * p, prod, -1)
        if any(c % m for c in diff):
            raise VerificationError("Hensel lifting lost the factorization")
        if m >= M:
            return lifted
        e = [c // m for c in diff]
        lifted = [_pmod(g, m * p, _pdivmod(_pmul(ai, e, p), g0, p)[1], m)
                  for g, g0, ai in zip(lifted, factors, a)]
        m *= p


def _int_quotient(F: list[int], G: list[int]) -> list[int] | None:
    """F / G in Z[x], or None when G does not divide F."""
    r = list(F)
    q = [0] * max(len(F) - len(G) + 1, 0)
    for k in reversed(range(len(q))):
        q[k], rem = divmod(r[k + len(G) - 1], G[-1])
        if rem:
            return None
        for i, y in enumerate(G):
            r[k + i] -= q[k] * y
    return None if any(r) else q


def zassenhaus(F: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree integer polynomial
    with positive leading coefficient (Zassenhaus 1969), each primitive
    with positive leading coefficient.

    F is factored mod the smallest prime p that keeps it squarefree of
    full degree.  Factors of F have coefficients below
    B = 2^deg(F) * ||F||_2 (Mignotte), so once the factors mod p are
    lifted mod M > 2 * lc(F) * B, every true factor g shows up as
    lc(F) * (product of a subset), read in symmetric residues, up to its
    content.  Subsets go by increasing size, so the first exact divisor
    found is irreducible.
    """
    n, lc, p = len(F) - 1, F[-1], 2
    dF = [i * c for i, c in enumerate(F)][1:]
    while lc % p == 0 or len(_pgcdex(_pmod(F, p), _pmod(dF, p), p)[0]) > 1:
        p = next(q for q in count(p + 1) if all(q % k for k in range(2, q)))
    modular = _berlekamp(_pmul(F, [pow(lc, -1, p)], p), p)
    if len(modular) == 1:
        return [F]
    M, bound = p, 2 * lc * 2 ** n * (math.isqrt(sum(c * c for c in F)) + 1)
    while M <= bound:
        M *= p
    lifted, found, size = _hensel_lift(F, modular, p, M), [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(lifted, size):
            G = [lc]
            for g in subset:
                G = _pmul(G, g, M)
            G = [c - M if 2 * c > M else c for c in G]
            content = math.gcd(*G)
            G = [c // content for c in G]
            Q = _int_quotient(F, G)
            if Q is not None:
                found.append(G)
                F, lifted = Q, [g for g in lifted if g not in subset]
                break
        else:
            size += 1
    return found + [F]
