"""Command line interface: the command table, the argv reader, and the
process entry point `run` that `python -m quadfactor` calls, which ends
the process right after flushing the command's output.

Output goes to stdout as a single JSON object (or key/value TSV), and
is byte-identical across runs for a fixed argv and seed.  Errors are
JSON objects on stderr with exit codes: 2 for syntax and usage, 3 for
domain violations, 4 for resource guards, 5 for a result that failed its
own check or any other internal error.  paper-suite exits 1 when any
check fails.

Global options come before the command, as `--opt v` or `--opt=v`,
under any unambiguous prefix (`--d` is exact); the last repeat wins.
A string that looks like a negative number is a value, and after `--`
every string is one.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from types import SimpleNamespace

from .errors import (DomainError, ParseError, ResourceLimitError,
                     VerificationError, load)
from .qint import ring, units


class _Usage(Exception):
    """argv that the command table does not accept (exit 2)."""


class _Help(Exception):
    """-h or --help was read (usage on stdout, exit 0)."""


# global option -> default; the option string is "--" + dest with "-"
_DEFAULTS = {"d": None, "norm_bound": 20, "deg_bound": 2, "format": "json",
             "seed": 0}
_HELP = ("-h", "--help")
_GLOBAL = _HELP + tuple("--" + k.replace("_", "-") for k in _DEFAULTS)
_INTS = ("d", "norm_bound", "deg_bound", "seed", "n")
# error -> (type reported on stderr, exit code)
_FAILURES = {_Usage: ("usage", 2), ParseError: ("parse", 2),
             DomainError: ("domain", 3), ResourceLimitError: ("resource", 4),
             VerificationError: ("verification", 5)}
# argparse reads these as values, not as options
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _ratio(num: int, den: int) -> dict:
    """num/den in lowest terms; an elasticity is max/min of the length
    set, so printing one builds no Fraction."""
    g = math.gcd(num, den)
    return {"num": num // g, "den": den // g}


def _lengths(fs) -> dict:
    """Factorizations (shortest first), length set and elasticity."""
    rendered = [[str(z) for z in m] for m in fs]
    lens = fs.lengths()
    return {"factorizations": sorted(rendered, key=lambda m: (len(m), m)),
            "length_set": lens, "elasticity": _ratio(lens[-1], lens[0])}


def _ring_info(a, cfg) -> dict:
    return {"d": cfg.d, "is_maximal": cfg.is_maximal,
            "class_number": cfg.class_number, "is_ufd": cfg.is_ufd,
            "units": [str(u) for u in units(cfg)]}


def _factor(a, cfg) -> dict:
    x = load(".parse").parse_element(a.element, cfg)
    return {"element": str(x), "d": cfg.d,
            **_lengths(load(".factor").factorizations(x))}


def _elasticity(a, cfg) -> dict:
    x = load(".parse").parse_element(a.element, cfg)
    lens = load(".factor").factorizations(x).lengths()
    return {"element": str(x), "d": cfg.d,
            "elasticity": _ratio(lens[-1], lens[0])}


def _poly_factor(a, cfg) -> dict:
    f = load(".parse").parse_rpoly(a.poly, cfg)
    return {"poly": str(f), "d": cfg.d,
            **_lengths(load(".rpoly").factorizations_rx(f))}


def _poly_elasticity(a, cfg) -> dict:
    f = load(".parse").parse_rpoly(a.poly, cfg)
    lens = load(".rpoly").factorizations_rx(f).lengths()
    return {"poly": str(f), "d": cfg.d,
            "elasticity": _ratio(lens[-1], lens[0])}


def _irr(a, cfg) -> dict:
    f = load(".parse").parse_rpoly(a.poly, cfg)
    flag, cert = load(".rpoly").is_irreducible_rx(f)
    return {"poly": str(f), "d": cfg.d, "irreducible": flag,
            "certificate": None if cert is None else {
                "subset": list(cert.subset), "lambda": str(cert.lam),
                "g": str(cert.g), "h": str(cert.h)}}


def _kfactor(a, cfg) -> dict:
    f = load(".parse").parse_kpoly(a.poly, cfg)
    unit, factors = load(".kpoly").factor_k(f)
    return {"poly": str(f), "d": cfg.d, "unit": str(unit),
            "factors": [str(q) for q in factors]}


def _psp_check(a, cfg) -> dict:
    f = load(".parse").parse_rpoly(a.poly, cfg)
    prim = load(".ideals").is_primitive(f)
    sup, wit = load(".ideals").is_superprimitive(f)
    return {"poly": str(f), "d": cfg.d, "primitive": prim,
            "superprimitive": sup,
            "witness": None if wit is None else str(wit)}


def _gcd_v(a, cfg) -> dict:
    elems = [load(".parse").parse_element(e, cfg) for e in a.elements]
    g = load(".ideals").gcd_v(elems)
    return {"elements": [str(e) for e in elems], "d": cfg.d,
            "exists": g is not None, "gcd": None if g is None else str(g)}


def _gamma_check(a, cfg) -> dict:
    ideals, parse = load(".ideals"), load(".parse")
    B = ideals.ideal_from_gens(parse.parse_ideal_gens(a.b, cfg))
    C = ideals.ideal_from_gens(parse.parse_ideal_gens(a.c, cfg))
    rep = ideals.gamma_check(B, C)
    gen = rep.b_v_generator
    return {"b": str(B), "c": str(C), "d": cfg.d,
            "product_v_trivial": rep.product_v_trivial,
            "b_v_principal": None if gen is None else str(gen),
            "holds": rep.holds}


def _witness_p(a, cfg) -> dict:
    wit = load(".witness").property_p_witness(cfg, a.norm_bound, a.deg_bound)
    return {"d": cfg.d, "norm_bound": a.norm_bound,
            "deg_bound": a.deg_bound,
            "witness": None if wit is None else str(wit)}


def _d1(a, cfg) -> dict:
    p = load(".parse").parse_kpoly(a.poly, cfg)
    g = load(".extring").ExtElem(p, "D1")
    label = load(".extring").d1_classify(g)
    payload = {"poly": str(p), "d": cfg.d, "classification": label,
               "factorizations": None, "length_set": None,
               "elasticity": None, "note": None}
    if label != "unit":
        try:
            payload.update(_lengths(load(".extring").d1_factorizations(g)))
        except DomainError as e:
            payload["note"] = str(e)
    return payload


def _d2_demo(a, cfg) -> dict:
    pi = load(".parse").parse_element(a.pi, cfg)
    rep = load(".extring").d2_witness_verify(pi, a.n)
    bound = rep.elasticity_lower_bound
    return {"d": cfg.d, "pi": str(pi), "n": a.n,
            "identity_holds": rep.identity_holds,
            "factors_irreducible": rep.factors_irreducible,
            "lengths": list(rep.lengths),
            "elasticity_lower_bound": _ratio(bound.numerator,
                                             bound.denominator),
            "observed_lengths": list(rep.observed_lengths)}


def _paper_suite(a, cfg) -> dict:
    results = load(".suite").run_all(a.seed)
    return {"results": [{"name": r.name, "ok": r.ok, "claim": r.claim,
                         "detail": r.detail} for r in results],
            "passed": sum(r.ok for r in results),
            "total": len(results),
            "ok": all(r.ok for r in results)}


# One table drives reading argv, dispatch and exit codes.  command ->
# (positionals, needs --d, handler returning the payload); a positional
# "name..." takes one or more values, and one named in _INTS an int
_COMMANDS = {
    "ring-info": ((), True, _ring_info),
    "factor": (("element",), True, _factor),
    "elasticity": (("element",), True, _elasticity),
    "poly-factor": (("poly",), True, _poly_factor),
    "poly-elasticity": (("poly",), True, _poly_elasticity),
    "irr": (("poly",), True, _irr),
    "kfactor": (("poly",), True, _kfactor),
    "psp-check": (("poly",), True, _psp_check),
    "gcd-v": (("elements...",), True, _gcd_v),
    "gamma-check": (("b", "c"), True, _gamma_check),
    "witness-p": ((), True, _witness_p),
    "d1": (("poly",), True, _d1),
    "d2-demo": (("pi", "n"), True, _d2_demo),
    "paper-suite": ((), False, _paper_suite),
}


def _usage() -> str:
    lines = ["usage: quadfactor [--d D] [--norm-bound N] [--deg-bound N]"
             " [--format {json,tsv}] [--seed N] COMMAND [ARG ...]", "",
             "commands (all but paper-suite need --d):"]
    lines += ["  " + " ".join([name] + [x.upper() for x in args])
              for name, (args, _, _) in _COMMANDS.items()]
    return "\n".join(lines) + "\n\n" + (__doc__ or "").partition("\n\n")[2]


def _value(dest: str, text: str):
    if dest == "format" and text not in ("json", "tsv"):
        raise _Usage(f"argument --format: invalid choice: {text!r} "
                     "(choose from 'json', 'tsv')")
    try:
        return int(text) if dest in _INTS else text
    except ValueError:
        raise _Usage(f"argument {dest}: invalid int value: {text!r}") from None


def _option(arg: str, names):
    """How argparse reads one string before any `--` against the option
    strings `names`: None for a value, else (option string, or None for
    an unknown option; the text after `=` or after `-h`, or None)."""
    if arg in names:
        return arg, None
    if len(arg) < 2 or arg[0] != "-":
        return None
    head, eq, tail = arg.partition("=")
    if eq and head in names:
        return head, tail
    if arg[1] == "-":
        hits = [n for n in names if n.startswith(head)]
        if len(hits) > 1:
            raise _Usage(f"ambiguous option: {arg} could match "
                         + ", ".join(hits))
        if hits:
            return hits[0], tail if eq else None
    elif arg[1] == "h":
        return "-h", arg[2:]
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def _help(opt: str, text) -> None:
    # "-hh" reads as -h -h; any other text after a help option is an error
    if text is None or opt == "-h" and text and not text.strip("h"):
        raise _Help
    raise _Usage(f"argument {opt}: ignored explicit argument {text!r}")


def _bind(a, names, vals) -> list:
    """Sets the command's positionals from vals, converting each as it is
    bound; returns the values left over."""
    for k, name in enumerate(names):
        if name.endswith("..."):
            setattr(a, name[:-3], vals[k:])
            return []
        if k < len(vals):
            setattr(a, name, _value(name, vals[k]))
    return vals[len(names):]


def _read_argv(argv) -> SimpleNamespace:
    """The global options, the command and its positionals, read in
    argparse's order so that an error before a help option wins and an
    unknown option fails only at the end.  Raises _Help or _Usage."""
    argv = list(argv)
    a = SimpleNamespace(**_DEFAULTS)
    stop = argv.index("--") if "--" in argv else len(argv)
    # every string up to `--` is read as a global option before any is
    # used, so an ambiguous prefix anywhere there fails first
    kinds = [_option(s, _GLOBAL) for s in argv[:stop]]
    unread, i = [], 0
    while i < stop and kinds[i] is not None:
        opt, text = kinds[i]
        i += 1
        if opt is None:
            unread.append(argv[i - 1])
        elif opt in _HELP:
            _help(opt, text)
        else:
            if text is None:
                if i == stop or kinds[i] is not None:
                    raise _Usage(f"argument {opt}: expected one argument")
                text, i = argv[i], i + 1
            dest = opt[2:].replace("-", "_")
            setattr(a, dest, _value(dest, text))
    if i == stop:
        raise _Usage("a command is required before any '--'")
    a.command = argv[i]
    if a.command not in _COMMANDS:
        raise _Usage(f"invalid command {a.command!r} (choose from "
                     + ", ".join(_COMMANDS) + ")")
    names = _COMMANDS[a.command][0]
    vals = []
    rest = argv[i + 1:]
    for j, s in enumerate(rest):
        if s == "--":
            vals += rest[j + 1:]
            if not names:
                unread.append(s)
            break
        kind = _option(s, _HELP)
        if kind is None:
            vals.append(s)
        elif kind[0] is None:
            unread.append(s)
        else:
            _bind(a, names, vals)  # a bad value before the help fails
            _help(*kind)
    unread += _bind(a, names, vals)
    if len(vals) < len(names):
        raise _Usage("the following arguments are required: "
                     + ", ".join(names[len(vals):]))
    if unread:
        raise _Usage("unrecognized arguments: " + " ".join(unread))
    return a


def main(argv=None) -> int:
    try:
        a = _read_argv(sys.argv[1:] if argv is None else argv)
        _, needs_d, handler = _COMMANDS[a.command]
        if needs_d and a.d is None:
            raise ParseError("--d is required for this command")
        payload = handler(a, ring(a.d) if needs_d else None)
    except _Help:
        sys.stdout.write(_usage())
        return 0
    except tuple(_FAILURES) as e:
        kind, code = next(v for k, v in _FAILURES.items() if isinstance(e, k))
        sys.stderr.write(json.dumps(
            {"error": {"type": kind, "message": str(e)}}) + "\n")
        return code
    except Exception as e:
        # an unexpected fault is reported like a failed check, never as a
        # traceback; BaseException (timeouts, SystemExit) passes through
        sys.stderr.write(json.dumps({"error": {
            "type": "internal",
            "message": f"{type(e).__name__}: {e}"}}) + "\n")
        return 5
    suite_run = a.command == "paper-suite"
    if a.format == "json":
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        # paper-suite prints one status/name/detail row per check
        rows = ([("PASS" if r["ok"] else "FAIL", r["name"], r["detail"])
                 for r in payload["results"]] if suite_run
                else payload.items())
        sys.stdout.write(
            "\n".join("\t".join(v if isinstance(v, str) else json.dumps(v)
                                for v in row) for row in rows) + "\n")
    return 1 if suite_run and not payload["ok"] else 0


def run() -> None:
    """The `quadfactor` command: main() on sys.argv, then the process ends
    as soon as its output is flushed, with no interpreter teardown.  Only
    a tracer or profiler, which writes its report at exit, gets a normal
    exit.  A reader that closed stdout gets exit 1 and no traceback."""
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # the flush at a normal exit then writes to devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    mon = getattr(sys, "monitoring", None)  # profilers use it from 3.12
    if sys.gettrace() is None and sys.getprofile() is None and not (
            mon and any(map(mon.get_tool, range(6)))):
        os._exit(code)
    sys.exit(code)
