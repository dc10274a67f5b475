"""The expression parser as it was before element inputs evaluated on
scalars, kept only as an oracle for tests/test_parse.py: a tokenizer
that asks each group of the match in turn, and a Pratt loop that
evaluates every value inside K[x] as a KPoly, with the typed entry
points narrowing the result at the end.  The bounds are the ones
quadfactor.parse declares."""

from __future__ import annotations

import re

from quadfactor.errors import DomainError, ParseError
from quadfactor.kpoly import KPoly
from quadfactor.parse import _MAX_BITS, MAX_DIGITS, MAX_EXPONENT, MAX_NESTING
from quadfactor.qint import KElem, RingCfg, check_integral

_TOKEN = re.compile(r"(\d+)|([wx])|([-+*/^()])|(\S)")


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise ParseError(
                f"unexpected character {m.group(4)!r} at position {m.start()}")
        if m.group(1):
            if len(m.group(1)) > MAX_DIGITS:
                raise ParseError(f"integer literal exceeds {MAX_DIGITS} "
                                 f"digits at position {m.start()}")
            out.append(("int", int(m.group(1)), m.start()))
        elif m.group(2):
            out.append(("name", m.group(2), m.start()))
        else:
            out.append(("op", m.group(3), m.start()))
    out.append(("end", None, len(text)))
    return out


def _bits(p: KPoly) -> int:
    return max((max(abs(c.a), abs(c.b), c.den).bit_length()
                for c in p.coeffs), default=0)


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
        result = self.expr(0, 1)
        tok = self.peek()
        if tok[0] != "end":
            raise self.fail(f"unexpected {tok[1]!r}", tok)
        return result

    def atom(self, depth: int) -> KPoly:
        kind, val, _ = tok = self.advance()
        cfg = self.cfg
        if kind == "int":
            return KPoly.const(KElem(val, 0, cfg))
        if kind == "name":
            if val == "w":
                return KPoly.const(KElem(0, 1, cfg))
            return KPoly([KElem(0, 0, cfg), KElem(1, 0, cfg)], cfg)
        if kind == "op" and val == "(":
            inner = self.expr(0, depth + 1)
            closing = self.advance()
            if closing[:2] != ("op", ")"):
                raise self.fail("expected ')'", closing)
            return inner
        if kind == "op" and val == "-":
            return -self.expr(_UNARY_BP, depth + 1)
        if kind == "op" and val == "+":
            return self.expr(_UNARY_BP, depth + 1)
        found = "end of input" if kind == "end" else repr(val)
        raise self.fail(f"expected a value, found {found}", tok)

    def expr(self, min_bp: int, depth: int) -> KPoly:
        if depth > MAX_NESTING:
            raise self.fail(f"nesting exceeds {MAX_NESTING} levels",
                            self.peek())
        lhs = self.atom(depth)
        while True:
            kind, op, _ = tok = self.peek()
            if kind != "op" or op not in _BINARY_BP:
                return lhs
            lbp, rbp = _BINARY_BP[op]
            if lbp < min_bp:
                return lhs
            self.advance()
            rhs = self.expr(rbp, depth + 1)
            if op == "^":
                lhs = self._power(lhs, rhs, tok)
            elif op == "*":
                self._bound(lhs.degree() + rhs.degree(),
                            _bits(lhs) + _bits(rhs), tok)
                lhs = lhs * rhs
            else:
                if op == "+":
                    lhs = lhs + rhs
                elif op == "-":
                    lhs = lhs - rhs
                else:
                    lhs = self._divide(lhs, rhs, tok)
                self._bound(lhs.degree(), _bits(lhs), tok)

    def _power(self, base: KPoly, exp: KPoly, tok) -> KPoly:
        e = exp.coeff(0)
        if exp.degree() > 0 or e.b or e.den != 1 or e.a < 0:
            raise self.fail("exponent must be a nonnegative integer", tok)
        k = e.a
        if k > MAX_EXPONENT:
            raise self.fail(f"exponent exceeds {MAX_EXPONENT}", tok)
        self._bound(k * base.degree(), k * _bits(base), tok)
        if k == 0:
            return KPoly.const(KElem(1, 0, self.cfg))
        out = base
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out

    def _bound(self, degree: int, bits: int, tok) -> None:
        if degree > MAX_EXPONENT:
            raise self.fail(f"degree exceeds {MAX_EXPONENT}", tok)
        if bits > _MAX_BITS:
            raise self.fail(f"coefficients exceed {MAX_DIGITS} digits", tok)

    def _divide(self, num: KPoly, den: KPoly, tok) -> KPoly:
        if den.degree() > 0:
            raise self.fail("division only by constants", tok)
        if den.is_zero():
            raise self.fail("division by zero", tok)
        return num.scale(den.coeff(0).inv())


def parse_kpoly(text: str, cfg: RingCfg) -> KPoly:
    return _Parser(text, cfg).parse()


def parse_kelem(text: str, cfg: RingCfg) -> KElem:
    p = parse_kpoly(text, cfg)
    if p.degree() > 0:
        raise ParseError(f"expected a constant, got degree {p.degree()}")
    return p.coeff(0)


def parse_element(text: str, cfg: RingCfg) -> KElem:
    z = parse_kelem(text, cfg)
    if not z.is_integral():
        raise DomainError(f"{z} is not in Z[w]")
    return z


def parse_rpoly(text: str, cfg: RingCfg) -> KPoly:
    p = parse_kpoly(text, cfg)
    check_integral(p.coeffs)
    return p


def parse_ideal_gens(text: str, cfg: RingCfg) -> list[KElem]:
    body = text.strip()
    if body.startswith("<"):
        if not body.endswith(">"):
            raise ParseError("unbalanced '<' in ideal notation")
        body = body[1:-1]
    parts = [p for p in body.split(";")]
    if not any(p.strip() for p in parts):
        raise ParseError("ideal needs at least one generator")
    return [parse_kelem(p, cfg) for p in parts if p.strip()]
