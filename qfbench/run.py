"""End-to-end and per-layer benchmark of the quadfactor CLI.

    python3 qfbench/run.py --workload elements|polys|scan --seed N \
        --seconds S --trace 0|1
    python3 qfbench/run.py --self-test
    python3 qfbench/run.py --record-reference

Run from the root of a checkout; the program is imported from ./src.
One driver process runs a workload's seeded list of CLI argv lists with
one client in a closed loop, starting at most one child at a time.

--trace 0: set-up samples, then a cold pass (one `python3 -m quadfactor`
child per operation) and a batch pass (one child calling
`quadfactor.cli.main` for every operation); prints the end-to-end
metrics.  --trace 1: an untraced and a traced batch pass; prints the
per-layer metrics.  Times are scaled to a reference machine speed
(probe.py).  The last line of stdout is one JSON object; a results file
with every operation goes to qfbench/results/.
See qfbench/README.md for the metrics and the reasons behind them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from batch import TRACED  # noqa: E402
from check import check_output  # noqa: E402
from probe import SpeedSampler  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
RUN_BUDGET_S = 150   # a run stops starting operations after this long
TAIL_BEYOND = 10     # cmd_tail_s has this many samples beyond it

END_TO_END = {
    "setup_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s", "cold_wall_s": "s",
    "batch_ops_per_s": "1/s", "batch_peak_rss_mb": "MB", "ok_frac": "ratio",
}
# layers reported per function; parse, cli and suite as one self time each
LAYER_FUNCS = {layer: names for layer, names in TRACED.items()
               if layer not in ("parse", "cli", "suite")}


def per_layer_units() -> dict:
    units = {}
    for layer, names in LAYER_FUNCS.items():
        for fn in names:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update({
        "qint.elements_of_norm.cache_hit_ratio": "ratio",
        "qint.cache_entries": "count",
        "factor.memo_hit_ratio": "ratio",
        "factor.memo_entries": "count",
        "kpoly.factor_k.calls_per_op": "count/op",
        "rpoly.lambda_candidates.useful_ratio": "ratio",
        "rpoly.memo_entries": "count",
        "parse.self_s": "s", "cli.self_s": "s", "suite.self_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


# ------------------------------------------------------------ children

def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_sample(root: str, d: int) -> dict:
    """Seconds from spawning an interpreter until `import quadfactor;
    quadfactor.ring(d)` returns, read from the shared monotonic clock."""
    code = ("import time, quadfactor; quadfactor.ring(%d); "
            "print(time.monotonic(), quadfactor.__file__)" % d)
    start = time.monotonic()
    p = subprocess.run([sys.executable, "-c", code], cwd=root,
                       env=child_env(root), capture_output=True, text=True,
                       timeout=60)
    stamp, path = p.stdout.split()
    if not path.startswith(os.path.join(root, "src") + os.sep):
        raise RuntimeError(f"quadfactor imported from {path}")
    return {"seconds": float(stamp) - start,
            "window": (start, time.monotonic())}


def cold_pass(root: str, ops, cap: float, deadline: float) -> list[dict]:
    """One `python3 -m quadfactor` child per operation, killed at the cap."""
    env = child_env(root)
    records = []
    for argv in ops:
        if time.monotonic() > deadline:
            records.append({"seconds": cap, "status": "skipped", "scale": 1})
            continue
        start = time.monotonic()
        try:
            p = subprocess.run([sys.executable, "-m", "quadfactor", *argv],
                               cwd=root, env=env, capture_output=True,
                               text=True, timeout=cap)
            tb = "Traceback (most recent call last)" in p.stderr
            rec = {"status": "traceback" if tb else "exit",
                   "code": p.returncode, "stdout": p.stdout,
                   "stderr": p.stderr[-2000:]}
        except subprocess.TimeoutExpired:
            rec = {"status": "timeout"}
        end = time.monotonic()
        rec.update(seconds=end - start, window=(start, end))
        records.append(rec)
    return records


def batch_pass(root: str, ops, cap: float, trace: bool,
               deadline: float) -> dict:
    """All operations in one fresh interpreter."""
    budget = max(0.0, deadline - time.monotonic())
    job = json.dumps({"ops": ops, "cap": cap, "budget_s": budget,
                      "trace": trace})
    p = subprocess.run([sys.executable, os.path.join(HERE, "batch.py")],
                       cwd=root, env=child_env(root), input=job,
                       capture_output=True, text=True,
                       timeout=budget + cap + 30)
    if p.returncode != 0:
        raise RuntimeError(f"batch child failed: {p.stderr[-2000:]}")
    return json.loads(p.stdout)


def finished(rec: dict) -> bool:
    """The call returned or raised, rather than hitting the cap or the
    run budget."""
    return rec["status"] in ("exit", "traceback")


def timed(rec: dict, cap: float) -> float:
    """Reference-speed seconds of one record (see probe.py); a call that
    did not finish counts at the cap."""
    return rec["seconds"] * rec["scale"] if finished(rec) else cap


# ---------------------------------------------------------- evaluation

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def judge(argv, rec, reference: dict) -> str | None:
    """None when the record is a correct answer, "timeout" when it hit
    the cap, else the reason it is wrong."""
    if rec["status"] in ("timeout", "skipped"):
        return "timeout"
    if rec["status"] == "traceback":
        return "traceback"
    why = check_output(argv, rec["code"], rec["stdout"])
    if why:
        return why
    ref = reference.get(json.dumps(argv))
    if ref is not None and ref != digest(rec["stdout"]):
        return "stdout differs from the reference digest"
    return None


def evaluate(ops, passes: dict, reference: dict, cap: float) -> list[dict]:
    """Per operation and pass: "ok", "timeout" or "error" (with reason).
    `passes` maps a pass name to its records; a pass may cover only a
    prefix of `ops`.  Passes that both answered must print byte-identical
    stdout."""
    rows = []
    for i, argv in enumerate(ops):
        recs = {k: p[i] for k, p in passes.items() if i < len(p)}
        verdicts = {k: judge(argv, r, reference) for k, r in recs.items()}
        if len({recs[k]["stdout"] for k, v in verdicts.items()
                if v is None}) > 1:
            verdicts = {k: v or "stdout differs between passes"
                        for k, v in verdicts.items()}
        rows.append({
            "argv": argv,
            "status": {k: "ok" if v is None else
                       "timeout" if v == "timeout" else "error"
                       for k, v in verdicts.items()},
            "reason": {k: v for k, v in verdicts.items()
                       if v and v != "timeout"},
            "seconds": {k: timed(r, cap) for k, r in recs.items()},
            "raw_seconds": {k: r["seconds"] for k, r in recs.items()},
            "digest": {k: digest(r["stdout"]) for k, r in recs.items()
                       if "stdout" in r},
        })
    return rows


def end_to_end(rows, setup, batch, cap) -> dict:
    cold = [r for r in rows if "cold" in r["status"]]
    lat = sorted(r["seconds"]["cold"] if r["status"]["cold"] == "ok" else cap
                 for r in cold)
    n = len(lat)
    statuses = [s for r in rows for s in r["status"].values()]
    batch_ok = sum(r["status"]["batch"] == "ok" for r in rows)
    return {
        "setup_s": statistics.median(x["seconds"] * x["scale"]
                                     for x in setup),
        "cmd_p50_s": statistics.median(lat),
        "cmd_tail_s": lat[max(0, n - TAIL_BEYOND - 1)],
        "cold_wall_s": sum(r["seconds"]["cold"] for r in cold),
        "batch_ops_per_s": batch_ok / sum(r["seconds"]["batch"] for r in rows),
        "batch_peak_rss_mb": max((r["maxrss_kb"] for r in batch["records"]
                                  if finished(r)), default=0) / 1024,
        "ok_frac": statuses.count("ok") / len(statuses),
    }


def aggregate_spans(records) -> dict:
    """(function, parent) -> [calls, self_s, nonempty].  Calls count only
    operations that finished, so that they repeat exactly; self time
    counts every operation, timed out or not."""
    agg = {}
    for rec in records:
        done = finished(rec)
        for name, parent, calls, self_s, nonempty in rec.get("spans", ()):
            a = agg.setdefault((name, parent), [0, 0.0, 0])
            a[1] += self_s
            if done:
                a[0] += calls
                a[2] += nonempty
    return agg


def per_layer(rows, traced) -> dict:
    agg = aggregate_spans(traced["records"])
    by_fn = {}
    for (name, _), (calls, self_s, nonempty) in agg.items():
        f = by_fn.setdefault(name, [0, 0.0, 0])
        f[0] += calls
        f[1] += self_s
        f[2] += nonempty
    m = {}
    for layer, names in LAYER_FUNCS.items():
        for fn in names:
            calls, self_s, _ = by_fn.get(f"{layer}.{fn}", (0, 0.0, 0))
            m[f"{layer}.{fn}.calls"] = calls
            m[f"{layer}.{fn}.self_s"] = self_s
    caches = traced["caches"] or {}

    def hit_ratio(key):
        hits, misses, _ = caches.get(key, (0, 0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    done = sum(map(finished, traced["records"]))
    lam_calls, _, lam_useful = by_fn.get("rpoly.lambda_candidates", (0, 0, 0))
    m.update({
        "qint.elements_of_norm.cache_hit_ratio":
            hit_ratio("qint._elements_of_norm"),
        "qint.cache_entries": sum(v[2] for k, v in caches.items()
                                  if k.startswith("qint.")),
        "factor.memo_hit_ratio": hit_ratio("factor._factor_multisets"),
        "factor.memo_entries":
            caches.get("factor._factor_multisets", (0, 0, 0))[2],
        "kpoly.factor_k.calls_per_op":
            by_fn.get("kpoly.factor_k", (0,))[0] / max(1, done),
        "rpoly.lambda_candidates.useful_ratio":
            lam_useful / lam_calls if lam_calls else 0.0,
        "rpoly.memo_entries":
            caches.get("rpoly._poly_multisets", (0, 0, 0))[2],
        "trace.overhead_frac": sum(r["seconds"]["traced"] for r in rows)
        / sum(r["seconds"]["batch"] for r in rows) - 1,
    })
    for layer in ("parse", "cli", "suite"):
        m[f"{layer}.self_s"] = sum(v[1] for k, v in by_fn.items()
                                   if k.startswith(layer + "."))
    return m


# ---------------------------------------------------------------- runs

def source_info(root: str) -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "quadfactor")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    rev = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            rev = fh.read().strip()
        if rev.startswith("ref: "):
            ref = os.path.join(root, ".git", rev[5:])
            if os.path.isfile(ref):
                with open(ref) as fh:
                    rev = fh.read().strip()
    return {"git_rev": rev, "source_sha256": h.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def run(root, workload, seed, seconds, trace, ops=None, cap=None) -> dict:
    if ops is None:
        ops, n_cold = workloads.build(workload, seed, seconds)
    else:
        n_cold = len(ops)
    cap = cap if cap is not None else workloads.CAPS[workload]
    reference = load_reference()
    start = time.monotonic()
    half = start + RUN_BUDGET_S / 2
    end = start + RUN_BUDGET_S
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "cap_s": cap, **source_info(root)}
    if not trace:
        # set-up samples are spread over the cold pass, so that they see
        # the same machine speed as the commands
        rng = random.Random(f"setup:{seed}")
        setup, cold = [], []
        cuts = [k * n_cold // SETUP_SAMPLES for k in range(SETUP_SAMPLES + 1)]
        with SpeedSampler() as sampler:
            for a, b in zip(cuts, cuts[1:]):
                setup.append(setup_sample(
                    root, rng.choice(workloads.SQUAREFREE_D)))
                cold += cold_pass(root, ops[a:b], cap, half)
        for rec in setup + cold:
            if "window" in rec:
                rec["scale"] = sampler.scale(*rec.pop("window"))
        batch = batch_pass(root, ops, cap, False, end)
        rows = evaluate(ops, {"cold": cold, "batch": batch["records"]},
                        reference, cap)
        metrics = end_to_end(rows, setup, batch, cap)
        result["setup_samples"] = setup
    else:
        plain = batch_pass(root, ops, cap, False, half)
        traced = batch_pass(root, ops, cap, True, end)
        rows = evaluate(ops, {"batch": plain["records"],
                              "traced": traced["records"]}, reference, cap)
        metrics = per_layer(rows, traced)
        result["spans"] = [[n, p, *v] for (n, p), v in
                           sorted(aggregate_spans(traced["records"]).items(),
                                  key=lambda kv: -kv[1][1])]
        result["caches"] = traced["caches"]
    result.update(rows=rows, metrics=metrics)
    return result


def summary(result) -> dict:
    rows = result["rows"]
    failed = sum(s == "error" for r in rows for s in r["status"].values())
    units = END_TO_END if not result["trace"] else per_layer_units()
    return {"correct": failed == 0,
            "attempted": sum(len(r["status"]) for r in rows),
            "failed": failed,
            "metrics": {k: {"value": result["metrics"][k], "unit": u}
                        for k, u in units.items()}}


def write_results(root, result) -> str:
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (
        result["workload"], result["seed"], result["trace"]))
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return os.path.relpath(path, root)


def record_reference(root: str) -> None:
    """Store the stdout digest of every operation of the default seed
    that answered correctly in both passes."""
    ref = {}
    for workload in workloads.CAPS:
        result = run(root, workload, 0, workloads.BASE_SECONDS, 0)
        print("results:", write_results(root, result))
        for row in result["rows"]:
            if set(row["status"].values()) == {"ok"}:
                ref[json.dumps(row["argv"])] = row["digest"]["batch"]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(dict(sorted(ref.items())), fh, indent=0)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("elements", "polys", "scan"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=workloads.BASE_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="smoke run on a tiny corpus, no timing asserts")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the default seed")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if hasattr(os, "sched_setaffinity"):
        # one core for the driver and every child, so that the speed
        # probe (probe.py) runs on the core that does the work
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(root, "src", "quadfactor",
                                       "__init__.py")):
        sys.stderr.write("no src/quadfactor here: run from the root of a "
                         "quadfactor checkout\n")
        return 2
    if args.self_test:
        import selftest
        return selftest.main(root)
    if args.record_reference:
        record_reference(root)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    result = run(root, args.workload, args.seed, args.seconds, args.trace)
    out = summary(result)
    for row in result["rows"]:
        if row["reason"]:
            print("error:", " ".join(row["argv"]), row["reason"])
    print("results:", write_results(root, result))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
