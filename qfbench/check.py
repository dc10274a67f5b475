"""Output check for quadfactor CLI results, with arithmetic of its own.

Every factor list and every `irr` certificate in a result is parsed
from the printed text and multiplied back here, in Q(sqrt(d))[x] with
exact fractions, without importing the program.  A polynomial is a
list of coefficients (lowest degree first); a coefficient is a pair
(a, b) of Fractions meaning a + b*w, w = sqrt(d).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

COMMANDS = ("factor", "elasticity", "gcd-v", "gamma-check", "psp-check",
            "poly-factor", "poly-elasticity", "irr", "kfactor", "d1",
            "d2-demo", "witness-p", "paper-suite")

_TOKEN = re.compile(r"\s*(?:(\d+)|([wx])|([-+*/^()]))")


class Field:
    """Arithmetic on polynomials over Q(sqrt(d))."""

    def __init__(self, d: int):
        self.d = d

    def kmul(self, p, q):
        return (p[0] * q[0] + self.d * p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def kinv(self, p):
        n = p[0] * p[0] - self.d * p[1] * p[1]
        if n == 0:
            raise ValueError("division by zero")
        return (p[0] / n, -p[1] / n)

    @staticmethod
    def trim(f):
        f = list(f)
        while f and f[-1] == (0, 0):
            f.pop()
        return f

    def add(self, f, g, sign=1):
        n = max(len(f), len(g))
        z = (Fraction(0), Fraction(0))
        f = f + [z] * (n - len(f))
        g = g + [z] * (n - len(g))
        return self.trim([(a[0] + sign * b[0], a[1] + sign * b[1])
                          for a, b in zip(f, g)])

    def mul(self, f, g):
        if not f or not g:
            return []
        out = [(Fraction(0), Fraction(0))] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                c = self.kmul(a, b)
                out[i + j] = (out[i + j][0] + c[0], out[i + j][1] + c[1])
        return self.trim(out)

    def product(self, polys):
        out = [(Fraction(1), Fraction(0))]
        for f in polys:
            out = self.mul(out, f)
        return out

    def units(self):
        one = [(Fraction(1), Fraction(0))]
        minus = [(Fraction(-1), Fraction(0))]
        if self.d == -1:
            return [one, minus, [(Fraction(0), Fraction(1))],
                    [(Fraction(0), Fraction(-1))]]
        return [one, minus]

    def equal_up_to_unit(self, f, g):
        return any(self.mul(u, g) == f for u in self.units())

    @staticmethod
    def integral(f):
        return all(c[0].denominator == 1 and c[1].denominator == 1
                   for c in f)

    def parse(self, text: str):
        """Polynomial from the syntax the CLI prints (and accepts)."""
        tokens = []
        pos = 0
        text = text.strip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"bad character in {text!r} at {pos}")
            tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        tokens.append(None)
        self._toks, self._i = tokens, 0
        out = self._expr(0)
        if self._toks[self._i] is not None:
            raise ValueError(f"trailing input in {text!r}")
        return out

    _BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}

    def _expr(self, min_bp):
        tok = self._toks[self._i]
        self._i += 1
        if tok is None:
            raise ValueError("unexpected end of input")
        if tok.isdigit():
            lhs = self.trim([(Fraction(int(tok)), Fraction(0))])
        elif tok == "w":
            lhs = [(Fraction(0), Fraction(1))]
        elif tok == "x":
            lhs = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
        elif tok == "(":
            lhs = self._expr(0)
            if self._toks[self._i] != ")":
                raise ValueError("expected ')'")
            self._i += 1
        elif tok == "-":
            lhs = self.add([], self._expr(25), -1)
        elif tok == "+":
            lhs = self._expr(25)
        else:
            raise ValueError(f"unexpected {tok!r}")
        while True:
            op = self._toks[self._i]
            if op not in self._BP or self._BP[op] < min_bp:
                return lhs
            self._i += 1
            if op == "^":
                exp = self._expr(self._BP[op])  # right-associative
                if len(exp) > 1 or (exp and exp[0][1] != 0) or \
                        (exp and exp[0][0].denominator != 1):
                    raise ValueError("bad exponent")
                out = [(Fraction(1), Fraction(0))]
                for _ in range(int(exp[0][0]) if exp else 0):
                    out = self.mul(out, lhs)
                lhs = out
                continue
            rhs = self._expr(self._BP[op] + 1)
            if op == "+":
                lhs = self.add(lhs, rhs)
            elif op == "-":
                lhs = self.add(lhs, rhs, -1)
            elif op == "*":
                lhs = self.mul(lhs, rhs)
            else:
                if len(rhs) != 1:
                    raise ValueError("division by a non-constant")
                lhs = self.mul(lhs, [self.kinv(rhs[0])])


def split_argv(argv):
    """(d, command, positional args) of a generated argv."""
    d = int(argv[argv.index("--d") + 1]) if "--d" in argv else None
    i = next(i for i, a in enumerate(argv) if a in COMMANDS)
    return d, argv[i], [a for a in argv[i + 1:] if a != "--"]


def _factor_lists(F, factorizations, target):
    for m in factorizations:
        if not F.equal_up_to_unit(F.product(F.parse(z) for z in m), target):
            return f"factorization {m} does not multiply back"
    return None


def check_output(argv, code: int, stdout: str) -> str | None:
    """None when the result is consistent, else the reason it is not.

    A documented error exit (2, 3, 4) with empty stdout is consistent;
    success must print one JSON object whose factor lists and
    certificates multiply back to the input up to a unit."""
    d, cmd, args = split_argv(argv)
    if code in (2, 3, 4):
        return None if stdout == "" else "output on an error exit"
    if code not in (0, 1) or (code == 1 and cmd != "paper-suite"):
        return f"undocumented exit code {code}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object"
    F = Field(d) if d is not None else None
    try:
        if cmd == "paper-suite":
            return None if out["ok"] and code == 0 else "suite check failed"
        if cmd in ("factor", "poly-factor"):
            key = "element" if cmd == "factor" else "poly"
            target = F.parse(args[0])
            if F.parse(out[key]) != target:
                return "echoed input differs from the argument"
            if not out["factorizations"]:
                return "no factorization"
            return _factor_lists(F, out["factorizations"], target)
        if cmd in ("elasticity", "poly-elasticity"):
            el = out["elasticity"]
            return None if el["num"] >= el["den"] >= 1 else "elasticity < 1"
        if cmd == "irr":
            target = F.parse(args[0])
            cert = out["certificate"]
            if out["irreducible"] != (cert is None):
                return "certificate disagrees with the verdict"
            if cert is None:
                return None
            gh = F.mul(F.parse(cert["g"]), F.parse(cert["h"]))
            ok = F.equal_up_to_unit(gh, target)
            return None if ok else "certificate g*h is not the input"
        if cmd == "kfactor":
            target = F.parse(args[0])
            factors = [F.parse(q) for q in out["factors"]]
            if any(q[-1] != (1, 0) for q in factors):
                return "a K[x] factor is not monic"
            prod = F.mul(F.parse(out["unit"]), F.product(factors))
            return None if prod == target else "factors do not multiply back"
        if cmd == "d1":
            if out["factorizations"] is None:
                return None
            return _factor_lists(F, out["factorizations"], F.parse(args[0]))
        if cmd == "gcd-v":
            if out["gcd"] is None:
                return None
            inv = [F.kinv(F.parse(out["gcd"])[0])]
            ok = all(F.integral(F.mul(F.parse(e), inv)) for e in args)
            return None if ok else "gcd does not divide every element"
        if cmd == "psp-check":
            if out["witness"] is None:
                return None if out["superprimitive"] else "missing witness"
            s = F.parse(out["witness"])
            ok = F.integral(F.mul(s, F.parse(args[0]))) and not F.integral(s)
            return None if ok else "witness does not certify"
        if cmd == "d2-demo":
            ok = out["identity_holds"] and out["factors_irreducible"]
            return None if ok else "D2 construction failed"
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed result: {e!r}"
    return None
