"""Machine-speed sampling used to normalise every benchmark time.

The machine the benchmark was built on changes speed by 10-40 % from
second to second (other tenants share its cores), far more than the
regressions the benchmark must catch.  So while work is timed, a
background thread runs a fixed piece of pure-Python work (the probe)
every INTERVAL_S and records its CPU time; the driver pins itself and
its children to one core, so the probe shares the core with the work.
A time is scaled by REF_S / (mean probe time while it ran): the time the
work would have taken at the speed where the probe takes REF_S.  The
probe costs about 4 % of the core.  Raw times are kept in the results
files.
"""

from __future__ import annotations

import json
import threading
import time
from fractions import Fraction

# Probe CPU time on the quiet reference machine (see README.md).
REF_S = 0.0016
INTERVAL_S = 0.05


def probe() -> None:
    """A fixed mix of Fraction arithmetic, dicts and JSON (about 2 ms)."""
    total = Fraction(0)
    table = {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)
        table[str(i)] = [i, i * i]
    json.dumps(table)


class SpeedSampler:
    """Background thread sampling the probe's CPU time every INTERVAL_S;
    use as a context manager around the timed work."""

    def __init__(self):
        self.samples = []    # (time.monotonic(), probe CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            t0 = time.thread_time()
            probe()
            self.samples.append((time.monotonic(), time.thread_time() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Factor turning seconds measured in [start, end] (monotonic
        clock) into reference-speed seconds: the probes taken in the
        interval, widened by one INTERVAL_S, or else the nearest one."""
        near = [s for t, s in self.samples
                if start - INTERVAL_S <= t <= end + INTERVAL_S]
        if not near and self.samples:
            mid = (start + end) / 2
            near = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        return REF_S / (sum(near) / len(near)) if near else 1.0
