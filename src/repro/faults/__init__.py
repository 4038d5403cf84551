"""repro.faults: seeded, deterministic fault injection (§8).

A :class:`FaultPlan` declares *what* goes wrong and *when* (NSM crash,
NSM stall, doorbell loss, ring-slot drops, hugepage exhaustion, delayed
completions); a :class:`FaultInjector` arms the plan against a live
:class:`~repro.core.host.NetKernelHost`, scheduling one-shot faults on
the sim clock and installing itself as ``coreengine.faults`` so the
probabilistic hooks fire on the datapath.  All randomness comes from one
``random.Random(plan.seed)`` consumed in simulation order, so the same
seed and plan produce a bit-identical timeline — the property the
``repro chaos --verify`` CLI and the scenario-smoke CI job assert.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan, PLAN_NAMES, named_plan

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "PLAN_NAMES",
    "named_plan",
]
