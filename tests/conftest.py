import os

import pytest

from quadfactor import suite


@pytest.fixture(scope="session")
def suite_results():
    """Run the full check battery once per test session."""
    return {r.name: r for r in suite.run_all(0)}


@pytest.fixture(autouse=True)
def _no_process_exit(monkeypatch):
    """os._exit inside a test would end pytest at once, with status 0 and
    no summary line; it raises here, and a test that calls the CLI's
    `run()` replaces it with sys.exit to read the code."""
    def refuse(code):
        raise AssertionError(f"os._exit({code}) called inside pytest")
    monkeypatch.setattr(os, "_exit", refuse)
