"""The Fraction-based field element, kept only as a test oracle.

kpoly.KElem as it was before it held integers over one denominator: two
`fractions.Fraction` coordinates u, v for u + v*w, with the canonical
associate and the order key qint gave it from those coordinates."""

import math
from dataclasses import dataclass
from fractions import Fraction

from quadfactor.errors import DomainError
from quadfactor.qint import RingCfg, _canonical_coords, format_coords


@dataclass(frozen=True)
class KElem:
    """A field element u + v*w of Q(sqrt(d))."""

    u: Fraction
    v: Fraction
    cfg: RingCfg

    @staticmethod
    def of(u, v, cfg: RingCfg) -> "KElem":
        return KElem(Fraction(u), Fraction(v), cfg)

    def coords(self) -> tuple[Fraction, Fraction]:
        return self.u, self.v

    def normk(self) -> Fraction:
        return self.u * self.u - self.cfg.d * self.v * self.v

    def conj(self) -> "KElem":
        return KElem(self.u, -self.v, self.cfg)

    def is_integral(self) -> bool:
        return self.u.denominator == 1 and self.v.denominator == 1

    def __add__(self, o: "KElem") -> "KElem":
        return KElem(self.u + o.u, self.v + o.v, self.cfg)

    def __sub__(self, o: "KElem") -> "KElem":
        return KElem(self.u - o.u, self.v - o.v, self.cfg)

    def __neg__(self) -> "KElem":
        return KElem(-self.u, -self.v, self.cfg)

    def __mul__(self, o: "KElem") -> "KElem":
        d = self.cfg.d
        return KElem(self.u * o.u + d * self.v * o.v,
                     self.u * o.v + self.v * o.u, self.cfg)

    def inv(self) -> "KElem":
        n = self.normk()
        if n == 0:
            raise DomainError("division by zero in K")
        return KElem(self.u / n, -self.v / n, self.cfg)

    def __truediv__(self, o: "KElem") -> "KElem":
        return self * o.inv()

    def __str__(self) -> str:
        den = math.lcm(self.u.denominator, self.v.denominator)
        inner = format_coords(int(self.u * den), int(self.v * den))
        if den == 1:
            return inner
        if any(ch in inner[1:] for ch in "+-"):
            return f"({inner})/{den}"
        return f"{inner}/{den}"


def canonical_associate(x: KElem) -> KElem:
    return KElem(*_canonical_coords(x.u, x.v, x.cfg.d), x.cfg)


def order_key(x: KElem):
    a, b = x.coords()
    return (a * a - x.cfg.d * b * b, a, b)


def coords(z) -> tuple:
    """(u, v) with z = u + v*w for a quadfactor.qint.KElem: integers
    when den = 1, else exact rationals."""
    if z.den == 1:
        return z.a, z.b
    return Fraction(z.a, z.den), Fraction(z.b, z.den)


def normk(z) -> Fraction:
    """The field norm u^2 - d*v^2 of a quadfactor.qint.KElem."""
    u, v = (Fraction(t) for t in coords(z))
    return u * u - z.cfg.d * v * v
