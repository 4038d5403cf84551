"""Analytic steady-state models.

The discrete-event simulation reproduces dynamics (fairness, isolation,
latency tails, trace replay); these models evaluate the same calibrated
cost model (:mod:`repro.cpu.cost_model`) in closed form for the paper's
steady-state throughput/RPS numbers, where event-level simulation of a
100G datapath would be pointless work.
"""

from repro.model import throughput
from repro.model import overhead
from repro.model import multiplexing

__all__ = ["throughput", "overhead", "multiplexing"]
