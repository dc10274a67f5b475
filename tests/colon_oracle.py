"""The integer-kernel colon, kept only as a test oracle.

ideals.colon as it was before it read (R : I) off the Hermite form: a
unimodular column elimination finds the integer kernel of the two
congruences that z*I <= R imposes, and the kernel basis spans the
colon lattice."""

from quadfactor.errors import VerificationError
from quadfactor.ideals import FracIdeal, _make


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _int_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {v : A v = 0} for the matrix with the
    given rows, via column elimination with a unimodular transform."""
    r = len(rows)
    n = len(rows[0])
    B = [[rows[j][i] for j in range(r)] for i in range(n)]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(r):
        while True:
            nz = [i for i in range(rank, n) if B[i][col] != 0]
            if len(nz) <= 1:
                break
            i, j = nz[0], nz[1]
            bi, bj = B[i][col], B[j][col]
            g, s, t = _xgcd(bi, bj)
            Bi, Bj, Ui, Uj = B[i][:], B[j][:], U[i][:], U[j][:]
            B[i] = [s * p + t * q for p, q in zip(Bi, Bj)]
            U[i] = [s * p + t * q for p, q in zip(Ui, Uj)]
            B[j] = [(bi // g) * q - (bj // g) * p for p, q in zip(Bi, Bj)]
            U[j] = [(bi // g) * q - (bj // g) * p for p, q in zip(Ui, Uj)]
        nz = [i for i in range(rank, n) if B[i][col] != 0]
        if nz:
            i = nz[0]
            B[rank], B[i] = B[i], B[rank]
            U[rank], U[i] = U[i], U[rank]
            rank += 1
    return [U[i] for i in range(rank, n)]


def colon(I: FracIdeal) -> FracIdeal:
    """(R : I) = {z in K : z*I <= R}, by integer linear algebra.

    Write I = (1/m)L with L spanned by u1 = (a,0), u2 = (b,c).  A field
    element z = p + q*w multiplies u1 into mR iff p, q lie in (m/a)Z, so
    z = (m/a)(s + t*w) with integer s, t.  The u2 condition then reads
    s*b + t*d*c = 0 and s*c + t*b = 0 mod a, i.e. (s,t) lies in the
    projection of the integer kernel of [[b, d*c, -a, 0], [c, b, 0, -a]].
    That projection is injective onto the solution set, so the two kernel
    basis vectors span it, and (R : I) = (m/a) * span.
    """
    d = I.cfg.d
    a, b, c, m = I.a, I.b, I.c, I.denom
    rows = [[b, d * c, -a, 0],
            [c, b, 0, -a]]
    kern = _int_kernel(rows)
    if len(kern) != 2:
        raise VerificationError(f"colon kernel has rank {len(kern)}, not 2")
    vecs = [(m * v[0], m * v[1]) for v in kern]
    return _make(vecs, a, I.cfg)
