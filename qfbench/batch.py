"""Batch pass: one interpreter runs every operation through
`quadfactor.cli.main(argv)`, so the program's caches are shared.

Run as `python3 qfbench/batch.py` from the root of a checkout.  It
reads {"ops": [argv, ...], "cap": seconds, "budget_s": seconds,
"trace": bool} as JSON on stdin and writes one JSON object with a record per operation on stdout.
A per-operation interval timer interrupts an operation at the cap;
operations not started within the budget are recorded as skipped.
A speed sampler runs throughout; each record carries the scale of the
probes taken while it ran (see probe.py).

With "trace" set, the public layer functions listed in TRACED are
wrapped, from this file, in every quadfactor module that binds them,
and their spans are aggregated by (function, parent span).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

from probe import SpeedSampler
# layer -> functions of quadfactor.<layer> that are wrapped in the trace
TRACED = {
    "qint": ("elements_of_norm", "common_nonunit_divisor",
             "irreducible_common_divisors", "is_irreducible"),
    "factor": ("factorizations",),
    "kpoly": ("factor_k", "factor_q", "poly_gcd"),
    "rpoly": ("lambda_candidates", "is_irreducible_rx", "factorizations_rx",
              "property_p_witness"),
    "ideals": ("colon", "v_closure", "is_principal", "is_superprimitive",
               "gcd_v"),
    "extring": ("d1_classify", "d1_factorizations", "d2_witness_verify"),
    "parse": ("parse_kpoly", "parse_kelem", "parse_element", "parse_rpoly",
              "parse_ideal_gens"),
    "cli": ("main",),
    "suite": ("run_all",),
}


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    inside the program can swallow it."""


class Tracer:
    """Spans aggregated by (function, parent): calls, self seconds, and
    calls that returned a non-empty list."""

    def __init__(self):
        self.stack = []
        self.spans = {}

    def wrap(self, name, fn):
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = self.spans.setdefault((name, parent), [0, 0.0, 0])
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[2] += isinstance(result, list) and bool(result)

        return traced

    def install(self):
        """Wrap each TRACED function in every quadfactor module binding it."""
        import quadfactor.cli  # noqa: F401  (imports every layer)
        modules = [m for n, m in sys.modules.items()
                   if n == "quadfactor" or n.startswith("quadfactor.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"quadfactor.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def take(self):
        spans, self.spans = self.spans, {}
        self.stack.clear()
        return spans


def cache_tables():
    """cache_info() of every lru table, keyed `<layer>.<function>`."""
    out = {}
    for layer in ("qint", "factor", "kpoly", "rpoly"):
        mod = sys.modules[f"quadfactor.{layer}"]
        for attr, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", "") == mod.__name__:
                i = info()
                out[f"{layer}.{attr}"] = [i.hits, i.misses, i.currsize]
    return out


def run_one(cli, argv, cap, armed) -> dict:
    """One call of cli.main with stdout and stderr captured, interrupted
    at the cap."""
    out, err = io.StringIO(), io.StringIO()
    code, status = None, "exit"
    start = time.monotonic()
    try:
        armed[0] = True
        signal.setitimer(signal.ITIMER_REAL, cap)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except OpTimeout:
        status = "timeout"
    except Exception:
        status = "traceback"
        err.write(traceback.format_exc())
    finally:
        armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.monotonic()
    return {"seconds": end - start, "status": status, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "window": (start, end)}


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import quadfactor.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"quadfactor imported from {cli.__file__}\n")
        return 2
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    armed = [False]

    def on_alarm(signum, frame):
        if armed[0]:
            armed[0] = False
            raise OpTimeout

    signal.signal(signal.SIGALRM, on_alarm)
    records = []
    caches = None
    stop = time.monotonic() + job["budget_s"]
    with SpeedSampler() as sampler:
        for argv in job["ops"]:
            if time.monotonic() > stop:
                records.append({"seconds": job["cap"], "status": "skipped",
                                "scale": 1.0})
                continue
            records.append(run_one(cli, argv, job["cap"], armed))
            if tracer:
                records[-1]["spans"] = [[n, p, *v] for (n, p), v
                                        in tracer.take().items()]
                if records[-1]["status"] != "timeout":
                    caches = cache_tables()
    for rec in records:
        if "window" in rec:
            rec["scale"] = sampler.scale(*rec.pop("window"))
    json.dump({"records": records, "caches": caches}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
