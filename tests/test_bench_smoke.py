"""The benchmark under qfbench/ run end to end on its self-test corpus,
with no timing asserts: every output passes the benchmark's own check,
the printed metric names are those of BENCHMARK.json, and two traced
runs count the same calls per layer.  The forced-timeout case of
`run.py --self-test` is left out: its input no longer runs past the
cap."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
QFBENCH = ROOT / "qfbench"
MODULES = ("run", "selftest", "batch", "check", "probe", "workloads")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(QFBENCH))
    import run
    from selftest import TINY
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    yield run, TINY, spec
    for name in MODULES:
        sys.modules.pop(name, None)


def test_tiny_corpus_end_to_end(bench):
    run, tiny, spec = bench
    out = run.summary(run.run(str(ROOT), "polys", 0, 1, 0, ops=tiny,
                              cap=20.0))
    assert out["correct"] and out["failed"] == 0, out
    assert list(out["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def test_tiny_corpus_traced_twice(bench):
    run, tiny, spec = bench
    traced = [run.run(str(ROOT), "polys", 0, 1, 1, ops=tiny, cap=20.0)
              for _ in range(2)]
    names = [m["name"] for m in spec["per_layer"]]
    calls = []
    for result in traced:
        out = run.summary(result)
        assert out["correct"] and out["failed"] == 0, out
        assert list(out["metrics"]) == names
        calls.append({k: v for k, v in result["metrics"].items()
                      if k.endswith(".calls")})
    assert calls[0] == calls[1] and any(calls[0].values())
