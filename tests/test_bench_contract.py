"""The names the benchmark under qfbench/ looks up in the program.

`--trace 1` wraps every function listed in qfbench/batch.py's TRACED
table and reads the lru statistics of three memo tables; a renamed
function or a dropped cache would make it fail with an AttributeError
or silently report zeros."""

import importlib
import importlib.util
import pathlib

QFBENCH = pathlib.Path(__file__).resolve().parent.parent / "qfbench"


def load_batch(monkeypatch):
    monkeypatch.syspath_prepend(str(QFBENCH))
    spec = importlib.util.spec_from_file_location(
        "qfbench_batch", QFBENCH / "batch.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    traced = load_batch(monkeypatch).TRACED
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"quadfactor.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_memo_tables_report_cache_info():
    for layer, name in (("qint", "_elements_of_norm"),
                        ("factor", "_factor_multisets"),
                        ("rpoly", "_poly_multisets")):
        module = importlib.import_module(f"quadfactor.{layer}")
        assert callable(getattr(getattr(module, name), "cache_info", None)), \
            f"{layer}.{name}"


def test_traced_divisor_scans_return_lists():
    # Tracer.wrap times the call only: a scan returned as a generator
    # would charge its work to the caller that iterates it
    from quadfactor import qint
    cfg = qint.ring(-5)
    for scan in (qint.common_divisors, qint.irreducible_common_divisors):
        assert type(scan([cfg.el(6)])) is list, scan.__name__
