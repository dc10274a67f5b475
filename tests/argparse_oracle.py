"""The CLI's former argparse parser, kept only as an oracle for the argv
reader of quadfactor.cli.

`read(argv)` gives ("help",) when the parser prints its help,
("usage",) when it rejects argv, and ("ok", fields) otherwise, where
fields are the global options, the command and its positionals."""

import argparse
import contextlib
import functools
import io


class _OracleExit(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise _OracleExit("usage")

    def exit(self, status=0, message=None):
        raise _OracleExit("help")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    p = _CliParser(prog="quadfactor")
    p.add_argument("--d", type=int, default=None,
                   help="squarefree d < 0 defining Z[sqrt(d)]")
    p.add_argument("--norm-bound", type=int, default=20)
    p.add_argument("--deg-bound", type=int, default=2)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, **arguments):
        sp = sub.add_parser(name)
        for arg, kw in arguments.items():
            sp.add_argument(arg, **kw)
        return sp

    cmd("ring-info")
    cmd("factor", element={})
    cmd("elasticity", element={})
    cmd("poly-factor", poly={})
    cmd("poly-elasticity", poly={})
    cmd("irr", poly={})
    cmd("kfactor", poly={})
    cmd("psp-check", poly={})
    cmd("gcd-v", elements={"nargs": "+"})
    cmd("gamma-check", b={}, c={})
    cmd("witness-p")
    cmd("d1", poly={})
    sp = sub.add_parser("d2-demo")
    sp.add_argument("pi")
    sp.add_argument("n", type=int)
    cmd("paper-suite")
    return p


def read(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ns = build_parser().parse_args(list(argv))
    except _OracleExit as e:
        return (str(e),)
    return ("ok", vars(ns))
