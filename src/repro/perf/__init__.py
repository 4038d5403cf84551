"""Wall-clock performance harness (``repro bench``).

Unlike ``repro.experiments`` — which reproduces the paper's *simulated*
numbers — this package measures how fast the simulator itself runs:
events per second, NQE switches per second, CoreEngine multiplexing at
fig. 8 scale (one switch and sharded) and capacity search.  Results are
pinned-seed and deterministic in simulated time; only the wall-clock
readings vary between machines, so they are a trend, not a gate: cost
is gated by the exact per-op counts of ``tests/test_cost_ratchet.py``.
"""

from repro.perf.bench import (  # noqa: F401
    BENCHMARKS,
    run_benchmarks,
    write_results,
)
from repro.perf.capacity import jain_fairness, run_capacity  # noqa: F401
