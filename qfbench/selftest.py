"""Smoke test of the benchmark itself on a tiny corpus; no timing asserts.

    python3 qfbench/run.py --self-test

Checks that the printed metric names are those of BENCHMARK.json, that
a corrupted output and a forced timeout count as failures, and that
the per-layer call counts repeat exactly between two traced runs.
"""

from __future__ import annotations

import json
import os
import time

import run

TINY = [
    ["--d", "-5", "factor", "6"],
    ["--d", "-1", "gcd-v", "1+w", "2"],
    ["--d", "-5", "psp-check", "2+(1+w)*x"],
    ["--d", "-5", "irr", "x^2+5"],
    ["--d", "-5", "kfactor", "x^2+5"],
    ["--d", "-14", "poly-factor", "81*x"],
    ["--d", "-5", "d1", "3*x+6"],
    ["--d", "-3", "--norm-bound", "6", "witness-p"],
]
HANG = ["--d", "-5", "poly-factor", "998*x+999"]


def main(root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    cold = run.run(root, "polys", 0, 1, 0, ops=TINY, cap=20.0)
    out = run.summary(cold)
    expect(out["correct"] and out["failed"] == 0,
           "tiny corpus passes the output check in both passes")
    expect(list(out["metrics"]) == [m["name"] for m in spec["end_to_end"]],
           "end-to-end metric names match BENCHMARK.json")

    rec = run.batch_pass(root, TINY[:1], 20.0, False,
                         time.monotonic() + 60)["records"][0]
    factor_out = json.loads(rec["stdout"])
    factor_out["factorizations"][0] = factor_out["factorizations"][0][1:]
    rec["stdout"] = json.dumps(factor_out) + "\n"
    row = run.evaluate(TINY[:1], {"batch": [rec]}, {}, 20.0)[0]
    expect(row["status"] == {"batch": "error"},
           "a factorization with one factor dropped counts as a failure "
           f"({row['reason'].get('batch')})")

    forced = run.run(root, "polys", 0, 1, 0, ops=[HANG], cap=0.5)
    expect(forced["rows"][0]["status"] == {"cold": "timeout",
                                           "batch": "timeout"}
           and forced["metrics"]["ok_frac"] < 1,
           "a forced timeout counts as a failure in both passes")

    traced = [run.run(root, "polys", 0, 1, 1, ops=TINY, cap=20.0)
              for _ in range(2)]
    names = [m["name"] for m in spec["per_layer"]]
    expect(list(run.summary(traced[0])["metrics"]) == names,
           "per-layer metric names match BENCHMARK.json")
    calls = [{k: v for k, v in t["metrics"].items() if k.endswith(".calls")}
             for t in traced]
    expect(calls[0] == calls[1] and any(calls[0].values()),
           "per-layer call counts repeat exactly")
    print("self-test", "failed: " + "; ".join(problems) if problems else "ok")
    return 1 if problems else 0
