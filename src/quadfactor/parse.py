"""Expression syntax for elements and polynomials.

Grammar: integer literals, the symbols w and x, parentheses, + - * /,
and ^ for exponents.  * binds tighter than + and -, ^ tighter still and
only accepts a nonnegative integer exponent; / only accepts a nonzero
constant divisor.  Everything evaluates exactly inside K[x], and the
typed entry points then narrow the result (element, K-element, R[x]
polynomial) with errors naming the offending coefficient.
"""

from __future__ import annotations

import re

from .errors import DomainError, ParseError
from .kpoly import KElem, KPoly
from .qint import QuadInt, RingCfg
from .rpoly import RPoly

MAX_EXPONENT = 64

_TOKEN = re.compile(r"(\d+)|([wx])|([-+*/^()])|(\S)")


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise ParseError(
                f"unexpected character {m.group(4)!r} at position {m.start()}")
        if m.group(1):
            out.append(("int", int(m.group(1)), m.start()))
        elif m.group(2):
            out.append(("name", m.group(2), m.start()))
        else:
            out.append(("op", m.group(3), m.start()))
    out.append(("end", None, len(text)))
    return out


_BINARY_BP = {"+": (10, 11), "-": (10, 11), "*": (20, 21), "/": (20, 21),
              "^": (31, 30)}
_UNARY_BP = 25


class _Parser:
    def __init__(self, text: str, cfg: RingCfg):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.cfg = cfg

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, msg: str, tok) -> ParseError:
        return ParseError(f"{msg} at position {tok[2]}")

    def parse(self) -> KPoly:
        result = self.expr(0)
        tok = self.peek()
        if tok[0] != "end":
            raise self.fail(f"unexpected {tok[1]!r}", tok)
        return result

    def atom(self) -> KPoly:
        kind, val, _ = tok = self.advance()
        cfg = self.cfg
        if kind == "int":
            return KPoly.const(KElem.of(val, 0, cfg))
        if kind == "name":
            if val == "w":
                return KPoly.const(KElem.of(0, 1, cfg))
            return KPoly([KElem.of(0, 0, cfg), KElem.of(1, 0, cfg)], cfg)
        if kind == "op" and val == "(":
            inner = self.expr(0)
            closing = self.advance()
            if closing[:2] != ("op", ")"):
                raise self.fail("expected ')'", closing)
            return inner
        if kind == "op" and val == "-":
            return -self.expr(_UNARY_BP)
        if kind == "op" and val == "+":
            return self.expr(_UNARY_BP)
        raise self.fail(f"expected a value, found {val!r}", tok)

    def expr(self, min_bp: int) -> KPoly:
        lhs = self.atom()
        while True:
            kind, op, _ = tok = self.peek()
            if kind != "op" or op not in _BINARY_BP:
                return lhs
            lbp, rbp = _BINARY_BP[op]
            if lbp < min_bp:
                return lhs
            self.advance()
            if op == "^":
                rhs = self.expr(rbp)
                lhs = self._power(lhs, rhs, tok)
                continue
            rhs = self.expr(rbp)
            if op == "+":
                lhs = lhs + rhs
            elif op == "-":
                lhs = lhs - rhs
            elif op == "*":
                lhs = lhs * rhs
            else:
                lhs = self._divide(lhs, rhs, tok)

    def _power(self, base: KPoly, exp: KPoly, tok) -> KPoly:
        e = exp.coeff(0)
        if exp.degree() > 0 or not e.is_rational() or \
                e.u.denominator != 1 or e.u < 0:
            raise self.fail("exponent must be a nonnegative integer", tok)
        k = int(e.u)
        if k > MAX_EXPONENT:
            raise self.fail(f"exponent exceeds {MAX_EXPONENT}", tok)
        out = KPoly.const(KElem.of(1, 0, self.cfg))
        for _ in range(k):
            out = out * base
        return out

    def _divide(self, num: KPoly, den: KPoly, tok) -> KPoly:
        if den.degree() > 0:
            raise self.fail("division only by constants", tok)
        if den.is_zero():
            raise self.fail("division by zero", tok)
        return num.scale(den.coeff(0).inv())


def parse_kpoly(text: str, cfg: RingCfg) -> KPoly:
    """Polynomial over K, exact coefficients."""
    return _Parser(text, cfg).parse()


def parse_kelem(text: str, cfg: RingCfg) -> KElem:
    p = parse_kpoly(text, cfg)
    if p.degree() > 0:
        raise ParseError(f"expected a constant, got degree {p.degree()}")
    return p.coeff(0)


def parse_element(text: str, cfg: RingCfg) -> QuadInt:
    z = parse_kelem(text, cfg)
    if not z.is_integral():
        raise DomainError(f"{z} is not in Z[w]")
    return z.to_quadint()


def parse_rpoly(text: str, cfg: RingCfg) -> RPoly:
    p = parse_kpoly(text, cfg)
    return RPoly.from_kpoly(p)


def parse_ideal_gens(text: str, cfg: RingCfg) -> list[KElem]:
    """Generator list in the form '<g1; g2; ...>' (or bare 'g1; g2')."""
    body = text.strip()
    if body.startswith("<"):
        if not body.endswith(">"):
            raise ParseError("unbalanced '<' in ideal notation")
        body = body[1:-1]
    parts = [p for p in body.split(";")]
    if not any(p.strip() for p in parts):
        raise ParseError("ideal needs at least one generator")
    return [parse_kelem(p, cfg) for p in parts if p.strip()]
