"""Expression syntax for elements and polynomials.

Grammar: integer literals, the symbols w and x, parentheses, + - * /,
and ^ for exponents.  * binds tighter than + and -, ^ tighter still and
only accepts a nonnegative integer exponent; / only accepts a nonzero
constant divisor.  Each input evaluates exactly in one value type,
chosen from its tokens: a scalar `qint.KElem` of K when it has no x,
else a `kpoly.KPoly` of K[x] (only then is `kpoly` imported, so parsing
an element loads no polynomial layer).  The typed entry points then
lift or narrow the result (element, K-element, R[x] polynomial) with
errors naming the offending coefficient; an R[x] polynomial is a KPoly
whose coefficients pass `qint.check_integral`.

Work and output stay bounded: a literal has at most MAX_DIGITS digits;
parentheses, unary signs and exponents nest at most MAX_NESTING deep, so
the recursive descent stays far inside Python's recursion limit; a
product or power is refused before it is computed when its degree
would pass MAX_EXPONENT or the bit lengths of its factors' largest
integers sum past _MAX_BITS, the bit length of a MAX_DIGITS-digit
number; and a sum or quotient is refused once its own largest integer
passes _MAX_BITS.  A scalar counts as degree 0, and zero as 0 bits in
either type, so both types refuse exactly the same inputs.
"""

from __future__ import annotations

import re

from .errors import DomainError, ParseError, load
from .qint import KElem, RingCfg, check_integral

MAX_EXPONENT = 64
MAX_DIGITS = 4000
MAX_NESTING = 200
_MAX_BITS = (10 ** MAX_DIGITS - 1).bit_length()

_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<name>[wx])|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        kind, val, pos = m.lastgroup, m.group(), m.start()
        if kind == "int":
            if len(val) > MAX_DIGITS:
                raise ParseError(f"integer literal exceeds {MAX_DIGITS} "
                                 f"digits at position {pos}")
            val = int(val)
        elif kind == "bad":
            raise ParseError(f"unexpected character {val!r} at position {pos}")
        out.append((kind, val, pos))
    out.append(("end", None, len(text)))
    return out


def _bits(v) -> int:
    """Bit length of the largest integer in v's printed form: each
    coefficient's numerators and its denominator; 0 for zero."""
    if isinstance(v, KElem):
        return max(abs(v.a), abs(v.b), v.den).bit_length() if v.a or v.b else 0
    return max((max(abs(c.a), abs(c.b), c.den).bit_length()
                for c in v.coeffs), default=0)


_BINARY_BP = {"+": (10, 11), "-": (10, 11), "*": (20, 21), "/": (20, 21),
              "^": (31, 30)}
_UNARY_BP = 25


class _Parser:
    def __init__(self, text: str, cfg: RingCfg):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.cfg = cfg
        # every x of the text is an x token; without one, every value is
        # a scalar, and `self.poly and <degree>` reads its degree as 0
        self.poly = "x" in text
        if self.poly:
            self.KPoly = load(".kpoly").KPoly

    def peek(self):
        return self.tokens[self.pos]

    def fail(self, msg: str, tok) -> ParseError:
        return ParseError(f"{msg} at position {tok[2]}")

    def parse(self) -> KElem | KPoly:
        result = self.expr(0, 1)
        tok = self.peek()
        if tok[0] != "end":
            raise self.fail(f"unexpected {tok[1]!r}", tok)
        return result

    def const(self, a: int, b: int = 0) -> KElem | KPoly:
        """a + b*w as a value of this input's type."""
        z = KElem(a, b, self.cfg)
        return self.KPoly.const(z) if self.poly else z

    def atom(self, depth: int) -> KElem | KPoly:
        kind, val, _ = tok = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            return self.const(val)
        if kind == "name":
            if val == "w":
                return self.const(0, 1)
            return self.KPoly([KElem(0, 0, self.cfg), KElem(1, 0, self.cfg)],
                              self.cfg)
        if kind == "op" and val == "(":
            inner = self.expr(0, depth + 1)
            closing = self.tokens[self.pos]
            self.pos += 1
            if closing[:2] != ("op", ")"):
                raise self.fail("expected ')'", closing)
            return inner
        if kind == "op" and val == "-":
            return -self.expr(_UNARY_BP, depth + 1)
        if kind == "op" and val == "+":
            return self.expr(_UNARY_BP, depth + 1)
        found = "end of input" if kind == "end" else repr(val)
        raise self.fail(f"expected a value, found {found}", tok)

    def expr(self, min_bp: int, depth: int) -> KElem | KPoly:
        """An expression binding tighter than min_bp; depth counts the
        expressions open around it, the top level being 1."""
        if depth > MAX_NESTING:
            raise self.fail(f"nesting exceeds {MAX_NESTING} levels",
                            self.peek())
        lhs = self.atom(depth)
        while True:
            kind, op, _ = tok = self.tokens[self.pos]
            if kind != "op" or op not in _BINARY_BP:
                return lhs
            lbp, rbp = _BINARY_BP[op]
            if lbp < min_bp:
                return lhs
            self.pos += 1
            rhs = self.expr(rbp, depth + 1)
            if op == "^":
                lhs = self._power(lhs, rhs, tok)
            elif op == "*":
                self._bound(self.poly and lhs.degree() + rhs.degree(),
                            _bits(lhs) + _bits(rhs), tok)
                lhs = lhs * rhs
            else:
                if op == "+":
                    lhs = lhs + rhs
                elif op == "-":
                    lhs = lhs - rhs
                else:
                    lhs = self._divide(lhs, rhs, tok)
                # a sum or quotient can grow its common denominators
                # past the bound, so it is checked once computed
                self._bound(self.poly and lhs.degree(), _bits(lhs), tok)

    def _power(self, base, exp, tok):
        e = exp.coeff(0) if self.poly else exp
        if self.poly and exp.degree() > 0 or e.b or e.den != 1 or e.a < 0:
            raise self.fail("exponent must be a nonnegative integer", tok)
        k = e.a
        if k > MAX_EXPONENT:
            raise self.fail(f"exponent exceeds {MAX_EXPONENT}", tok)
        self._bound(self.poly and k * base.degree(), k * _bits(base), tok)
        if k == 0:
            return self.const(1)
        out = base
        for bit in bin(k)[3:]:  # square and multiply
            out = out * out
            if bit == "1":
                out = out * base
        return out

    def _bound(self, degree: int, bits: int, tok) -> None:
        if degree > MAX_EXPONENT:
            raise self.fail(f"degree exceeds {MAX_EXPONENT}", tok)
        if bits > _MAX_BITS:
            raise self.fail(f"coefficients exceed {MAX_DIGITS} digits", tok)

    def _divide(self, num, den, tok):
        if self.poly and den.degree() > 0:
            raise self.fail("division only by constants", tok)
        if den.is_zero():
            raise self.fail("division by zero", tok)
        return num.scale(den.coeff(0).inv()) if self.poly else num * den.inv()


def parse_kpoly(text: str, cfg: RingCfg) -> KPoly:
    """Polynomial over K, exact coefficients."""
    v = _Parser(text, cfg).parse()
    if isinstance(v, KElem):
        return load(".kpoly").KPoly.const(v)
    return v


def parse_kelem(text: str, cfg: RingCfg) -> KElem:
    v = _Parser(text, cfg).parse()
    if isinstance(v, KElem):
        return v
    if v.degree() > 0:
        raise ParseError(f"expected a constant, got degree {v.degree()}")
    return v.coeff(0)


def parse_element(text: str, cfg: RingCfg) -> KElem:
    z = parse_kelem(text, cfg)
    if not z.is_integral():
        raise DomainError(f"{z} is not in Z[w]")
    return z


def parse_rpoly(text: str, cfg: RingCfg) -> KPoly:
    """Polynomial over R = Z[w]: every coefficient must lie in Z[w]."""
    p = parse_kpoly(text, cfg)
    check_integral(p.coeffs)
    return p


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
