"""The ordered-split factorization oracle, kept only as a test oracle.

suite.naive_factorization_oracle as it was before it took each
unordered split once: every split is tried from both factors, through
the divisor norms {m, n // m}, and with every associate of the divisor."""


def naive_factorization_oracle(d: int, max_norm: int) -> dict:
    """All factorizations for every class with norm in [2, max_norm],
    computed independently on raw coordinate pairs.

    Elements are (a, b) for a + b*sqrt(d); every proper two-way split is
    explored recursively, so no irreducibility reasoning is shared with
    the main implementation.  Returns {canonical pair: set of sorted
    factor-triple tuples}, factors encoded as (norm, a, b)."""
    dd = -d

    def key(a, b):
        sa = 0 if a > 0 else (1 if a == 0 else 2)
        sb = 0 if b > 0 else (1 if b == 0 else 2)
        return (sa, abs(a), sb, abs(b))

    def canon(a, b):
        orbit = [(a, b), (-a, -b)]
        if d == -1:
            orbit += [(-b, a), (b, -a)]
        return min(orbit, key=lambda p: key(*p))

    by_norm = {}
    for a in range(-max_norm, max_norm + 1):
        if a * a > max_norm:
            continue
        b = 0
        while a * a + dd * b * b <= max_norm:
            for bb in {b, -b}:
                n = a * a + dd * bb * bb
                if n >= 2:
                    by_norm.setdefault(n, set()).add((a, bb))
            b += 1
    memo = {}

    # rec(a, b) depends only on canon(a, b), so a result stored under
    # the raw pair as well as the canonical one is exact for both keys,
    # and a repeated raw pair skips canon altogether.
    def rec(a, b):
        if (a, b) in memo:
            return memo[(a, b)]
        ca, cb = canon(a, b)
        if (ca, cb) in memo:
            res = memo[(a, b)] = memo[(ca, cb)]
            return res
        n = ca * ca + dd * cb * cb
        res = set()
        split = False
        m = 2
        while m * m <= n:
            for div_norm in {m, n // m} if n % m == 0 else ():
                if div_norm < 2 or div_norm >= n:
                    continue
                for ya, yb in by_norm.get(div_norm, ()):
                    ra = ca * ya + dd * cb * yb
                    rb = cb * ya - ca * yb
                    if ra % div_norm or rb % div_norm:
                        continue
                    split = True
                    qa, qb = ra // div_norm, rb // div_norm
                    for m1 in rec(ya, yb):
                        for m2 in rec(qa, qb):
                            res.add(tuple(sorted(m1 + m2)))
            m += 1
        if not split:
            res = {((n, ca, cb),)}
        memo[(ca, cb)] = memo[(a, b)] = res
        return res

    out = {}
    for n in range(2, max_norm + 1):
        for a, b in by_norm.get(n, ()):
            if (a, b) == canon(a, b):
                out[(a, b)] = rec(a, b)
    return out
