"""The lattice walk that ideals.is_principal ran before it read the
answer off a shortest vector, kept only as a test oracle; its row walk
_points_up_to also drives the superprimitive witness oracle.

gR = I forces normk(g) to equal the index norm of I, so the candidates
are the finitely many lattice points of that norm, about
sqrt(N(I)/|d|) rows of them; each is checked by exact ideal equality,
and the canonical generator least by _coords_key is returned."""

import math

from quadfactor.ideals import FracIdeal, _make
from quadfactor.qint import KElem, _canonical_coords, _coords_key


def _points_up_to(I: FracIdeal, bound: int):
    """Numerator vectors (x, y) of I with x^2 + |d|*y^2 <= bound: one
    row y = c*j per j, stepping x by a through the residue j*b mod a."""
    dd = -I.cfg.d
    jmax = math.isqrt(bound // (dd * I.c * I.c))
    for j in range(-jmax, jmax + 1):
        y = I.c * j
        xmax = math.isqrt(bound - dd * y * y)
        x0 = j * I.b - (j * I.b + xmax) // I.a * I.a
        for x in range(x0, xmax + 1, I.a):
            yield (x, y)


def is_principal(I: FracIdeal) -> KElem | None:
    target = I.a * I.c  # normk(g) * denom^2 must equal a*c
    d = I.cfg.d
    best = None
    for x, y in _points_up_to(I, target):
        if x * x - d * y * y != target:
            continue
        if _make([(x, y), (d * y, x)], I.denom, I.cfg) == I:
            g = _canonical_coords(x, y, d)
            if best is None or _coords_key(g) < _coords_key(best):
                best = g
    return None if best is None else KElem(*best, I.cfg, I.denom)
