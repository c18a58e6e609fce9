"""Host-speed probe: a fixed pure-Python loop timed next to the work.

The machine's vCPUs are shared, and the same interpreter loop runs up to
about 1.5 times slower for tens of seconds at a time; process CPU time
swings as much as wall time.  The probe slows in step with the package's
own Python-level work, so each timed stretch is rescaled to the nominal
probe time: ``seconds * NOMINAL_S / probe()``.  A change to the program
cannot move the probe, so rescaled times compare program versions the way
raw times would on a quiet host.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 1.5e-3   # about the probe time in a worker on this machine, unloaded


def _loop():
    acc = 0.0
    for i in range(20_000):
        acc = acc * 0.999 + i
    return acc


def probe(samples=1):
    """Seconds the probe loop takes now (median of ``samples`` timings)."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)
