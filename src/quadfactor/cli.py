"""Command line interface.

Output goes to stdout as a single JSON object (or key/value TSV), and
is byte-identical across runs for a fixed argv and seed.  Errors are
JSON objects on stderr with exit codes: 2 for syntax and usage, 3 for
domain violations, 4 for resource guards, 5 for a result that failed its
own check.  paper-suite exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import extring, factor, ideals, rpoly, suite
from .errors import (DomainError, ParseError, ResourceLimitError,
                     VerificationError)
from .kpoly import factor_k
from .parse import (parse_element, parse_ideal_gens, parse_kpoly,
                    parse_rpoly)
from .qint import ring, units
from .rpoly import is_irreducible_rx


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": message}}) + "\n")


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _tsv_cell(v) -> str:
    if isinstance(v, str):
        return v
    return json.dumps(v)


def _emit(payload, fmt: str) -> None:
    if fmt == "tsv":
        if isinstance(payload, list):
            rows = ["\t".join(_tsv_cell(v) for v in row.values())
                    for row in payload]
        else:
            rows = [f"{k}\t{_tsv_cell(v)}" for k, v in payload.items()]
        sys.stdout.write("\n".join(rows) + "\n")
    else:
        sys.stdout.write(json.dumps(payload) + "\n")


def _need_ring(args):
    if args.d is None:
        raise ParseError("--d is required for this command")
    return ring(args.d)


def _ratio(q) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _classes(fs, to_str) -> list[list[str]]:
    rendered = [[to_str(z) for z in m] for m in fs.factorizations]
    return sorted(rendered, key=lambda m: (len(m), m))


def _cmd_ring_info(args) -> int:
    cfg = _need_ring(args)
    _emit({
        "d": cfg.d,
        "is_maximal": cfg.is_maximal,
        "class_number": cfg.class_number,
        "is_ufd": cfg.is_ufd,
        "units": [str(u) for u in units(cfg)],
    }, args.format)
    return 0


def _cmd_factor(args) -> int:
    cfg = _need_ring(args)
    x = parse_element(args.element, cfg)
    fs = factor.factorizations(x)
    _emit({
        "element": str(x),
        "d": cfg.d,
        "factorizations": _classes(fs, str),
        "length_set": fs.lengths(),
        "elasticity": _ratio(fs.elasticity()),
    }, args.format)
    return 0


def _cmd_elasticity(args) -> int:
    cfg = _need_ring(args)
    x = parse_element(args.element, cfg)
    _emit({
        "element": str(x),
        "d": cfg.d,
        "elasticity": _ratio(factor.factorizations(x).elasticity()),
    }, args.format)
    return 0


def _cmd_poly_factor(args) -> int:
    cfg = _need_ring(args)
    f = parse_rpoly(args.poly, cfg)
    fs = rpoly.factorizations_rx(f)
    _emit({
        "poly": str(f),
        "d": cfg.d,
        "factorizations": _classes(fs, str),
        "length_set": fs.lengths(),
        "elasticity": _ratio(fs.elasticity()),
    }, args.format)
    return 0


def _cmd_poly_elasticity(args) -> int:
    cfg = _need_ring(args)
    f = parse_rpoly(args.poly, cfg)
    _emit({
        "poly": str(f),
        "d": cfg.d,
        "elasticity": _ratio(rpoly.factorizations_rx(f).elasticity()),
    }, args.format)
    return 0


def _cmd_irr(args) -> int:
    cfg = _need_ring(args)
    f = parse_rpoly(args.poly, cfg)
    flag, cert = is_irreducible_rx(f)
    payload = {
        "poly": str(f),
        "d": cfg.d,
        "irreducible": flag,
        "certificate": None,
    }
    if cert is not None:
        payload["certificate"] = {
            "subset": list(cert.subset),
            "lambda": str(cert.lam),
            "g": str(cert.g),
            "h": str(cert.h),
        }
    _emit(payload, args.format)
    return 0


def _cmd_kfactor(args) -> int:
    cfg = _need_ring(args)
    f = parse_kpoly(args.poly, cfg)
    unit, factors = factor_k(f)
    _emit({
        "poly": str(f),
        "d": cfg.d,
        "unit": str(unit),
        "factors": [str(q) for q in factors],
    }, args.format)
    return 0


def _cmd_psp_check(args) -> int:
    cfg = _need_ring(args)
    f = parse_rpoly(args.poly, cfg)
    prim = ideals.is_primitive(f)
    sup, wit = ideals.is_superprimitive(f)
    _emit({
        "poly": str(f),
        "d": cfg.d,
        "primitive": prim,
        "superprimitive": sup,
        "witness": None if wit is None else str(wit),
    }, args.format)
    return 0


def _cmd_gcd_v(args) -> int:
    cfg = _need_ring(args)
    elems = [parse_element(e, cfg) for e in args.elements]
    g = ideals.gcd_v(elems)
    _emit({
        "elements": [str(e) for e in elems],
        "d": cfg.d,
        "exists": g is not None,
        "gcd": None if g is None else str(g),
    }, args.format)
    return 0


def _cmd_gamma_check(args) -> int:
    cfg = _need_ring(args)
    B = ideals.ideal_from_gens(parse_ideal_gens(args.b, cfg))
    C = ideals.ideal_from_gens(parse_ideal_gens(args.c, cfg))
    rep = ideals.gamma_check(B, C)
    gen = rep.b_v_generator
    _emit({
        "b": str(B),
        "c": str(C),
        "d": cfg.d,
        "product_v_trivial": rep.product_v_trivial,
        "b_v_principal": None if gen is None else str(gen),
        "holds": rep.holds,
    }, args.format)
    return 0


def _cmd_witness_p(args) -> int:
    cfg = _need_ring(args)
    wit = rpoly.property_p_witness(cfg, args.norm_bound, args.deg_bound)
    _emit({
        "d": cfg.d,
        "norm_bound": args.norm_bound,
        "deg_bound": args.deg_bound,
        "witness": None if wit is None else str(wit),
    }, args.format)
    return 0


def _cmd_d1(args) -> int:
    cfg = _need_ring(args)
    p = parse_kpoly(args.poly, cfg)
    g = extring.ExtElem(p, "D1")
    label = extring.d1_classify(g)
    payload = {
        "poly": str(p),
        "d": cfg.d,
        "classification": label,
        "factorizations": None,
        "length_set": None,
        "elasticity": None,
        "note": None,
    }
    if label != "unit":
        try:
            fs = extring.d1_factorizations(g)
            payload["factorizations"] = _classes(fs, str)
            payload["length_set"] = fs.lengths()
            payload["elasticity"] = _ratio(fs.elasticity())
        except DomainError as e:
            payload["note"] = str(e)
    _emit(payload, args.format)
    return 0


def _cmd_d2_demo(args) -> int:
    cfg = _need_ring(args)
    pi = parse_element(args.pi, cfg)
    rep = extring.d2_witness_verify(pi, args.n)
    _emit({
        "d": cfg.d,
        "pi": str(pi),
        "n": args.n,
        "identity_holds": rep.identity_holds,
        "factors_irreducible": rep.factors_irreducible,
        "lengths": list(rep.lengths),
        "elasticity_lower_bound": _ratio(rep.elasticity_lower_bound),
        "observed_lengths": list(rep.observed_lengths),
    }, args.format)
    return 0


def _cmd_paper_suite(args) -> int:
    results = suite.run_all(args.seed)
    payload = [{
        "name": r.name,
        "ok": r.ok,
        "claim": r.claim,
        "detail": r.detail,
    } for r in results]
    if args.format == "tsv":
        _emit([{"status": "PASS" if r.ok else "FAIL",
                "name": r.name, "detail": r.detail}
               for r in results], "tsv")
    else:
        _emit({
            "results": payload,
            "passed": sum(r.ok for r in results),
            "total": len(results),
            "ok": all(r.ok for r in results),
        }, "json")
    return 0 if all(r.ok for r in results) else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main() call shares it."""
    p = _CliParser(prog="quadfactor", description=__doc__)
    p.add_argument("--d", type=int, default=None,
                   help="squarefree d < 0 defining Z[sqrt(d)]")
    p.add_argument("--norm-bound", type=int, default=20)
    p.add_argument("--deg-bound", type=int, default=2)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **arguments):
        sp = sub.add_parser(name)
        for arg, kw in arguments.items():
            sp.add_argument(arg, **kw)
        sp.set_defaults(func=fn)
        return sp

    cmd("ring-info", _cmd_ring_info)
    cmd("factor", _cmd_factor, element={})
    cmd("elasticity", _cmd_elasticity, element={})
    cmd("poly-factor", _cmd_poly_factor, poly={})
    cmd("poly-elasticity", _cmd_poly_elasticity, poly={})
    cmd("irr", _cmd_irr, poly={})
    cmd("kfactor", _cmd_kfactor, poly={})
    cmd("psp-check", _cmd_psp_check, poly={})
    cmd("gcd-v", _cmd_gcd_v, elements={"nargs": "+"})
    cmd("gamma-check", _cmd_gamma_check, b={}, c={})
    cmd("witness-p", _cmd_witness_p)
    cmd("d1", _cmd_d1, poly={})
    sp = sub.add_parser("d2-demo")
    sp.add_argument("pi")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=_cmd_d2_demo)
    cmd("paper-suite", _cmd_paper_suite)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        return args.func(args)
    except ParseError as e:
        _emit_error("parse", str(e))
        return 2
    except DomainError as e:
        _emit_error("domain", str(e))
        return 3
    except ResourceLimitError as e:
        _emit_error("resource", str(e))
        return 4
    except VerificationError as e:
        _emit_error("verification", str(e))
        return 5


def run() -> None:
    sys.exit(main(sys.argv[1:]))
