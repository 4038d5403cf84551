"""Machine-speed reference for the untraced run's wall-clock metrics.

On a shared host the speed of one core drifts by half or more over
minutes, as other tenants come and go, and it slows whole runs, not just
moments of them.  So every wall-clock metric is taken in *reference
seconds*: the wall time of each stretch of work is rescaled by how long
a fixed reference loop took just around it, relative to ``NOMINAL_S``.
A program that gets faster reads faster; a host that gets slower does
not, as far as the program's time follows the loop's.

The loop is random lookups in a dict of a few MB, chosen by measurement:
across runs on a loaded 2-core VM its time tracked the simulator's
per-op time with an elasticity of 0.97, where a loop of small heap and
generator operations reached only 0.58 and one over 100 MB of objects
0.73.  It runs with the garbage collector off, so no collection of the
program's heap lands in it, and it belongs to the benchmark, so a change
to the program does not change it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

#: About the loop's wall time, between stretches of simulation, on a
#: quiet 2-core x86-64 VM with Python 3.11.
NOMINAL_S = 0.005

_ENTRIES = 40_000
_LOOKUPS = 20_000

_rng = random.Random(20200217)
_TABLE = {i: [i] for i in range(_ENTRIES)}
_KEYS = [_rng.randrange(_ENTRIES) for _ in range(_LOOKUPS)]


def _loop() -> int:
    table = _TABLE
    total = 0
    for key in _KEYS:
        total += table[key][0]
    return total


def sample(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` runs of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times: List[float] = []
        for _ in range(repeats):
            started = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(ref_s: float, elasticity: float = 1.0) -> float:
    """Factor that turns wall seconds measured at reference time ``ref_s``
    into reference seconds, for work whose time grows as the reference
    time to the power ``elasticity``."""
    return (NOMINAL_S / ref_s) ** elasticity
