"""Failover experiment: recovery time and goodput dip vs detection timeout.

Not a paper figure — §8 of the paper discusses NSM failure as an open
concern ("the NSM presents a single point of failure for all its VMs")
and argues the architecture makes handling it *possible*: CoreEngine
sees every NQE, so it can detect a dead NSM and re-bind its VMs to a
standby.  This experiment quantifies that recovery path in the repro:
an echo client rides through an NSM crash for a sweep of
failure-detection timeouts, measuring time-to-recovery (first
successful request after the crash) and the goodput lost to the outage.

Every affected connection must either fail fast with ECONNRESET (the
quarantine path) or re-establish on the standby — a run with a hung
GuestLib op or a resource leak fails the experiment.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.report import ExperimentResult
from repro.faults.chaos import run_chaos
from repro.faults.plan import FaultPlan
from repro.scenario import SCENARIOS

#: Detection timeouts swept (seconds).  The heartbeat period stays at
#: 2 ms, so the first entry is the tightest sensible setting.
DETECTION_TIMEOUTS = (4e-3, 10e-3, 25e-3, 50e-3)


def run(duration: float = 0.6, seed: int = 0,
        detection_timeouts: Sequence[float] = DETECTION_TIMEOUTS,
        ) -> ExperimentResult:
    """Sweep the NSM failure-detection timeout through an nsm-crash plan."""
    # Fault-free baseline (an empty plan) anchors the goodput-dip column.
    baseline = run_chaos(seed=seed, duration=duration,
                         plan=FaultPlan(seed=seed, name="none"))
    rows, problems = [], []
    for detect in detection_timeouts:
        label = f"detect={detect * 1e3:g}ms"
        result, broken = SCENARIOS["chaos"].run_checked(
            label, seed=seed, plan_name="nsm-crash", duration=duration,
            detection_timeout=detect)
        counters = result["counters"]
        recovery = result["recovery_sec"]
        if recovery is None:
            problems.append(f"{label} never recovered")
        unresolved = (counters["connects"] - 1
                      - counters["resets"] - counters["timeouts"])
        if counters["resets"] + counters["timeouts"] == 0:
            problems.append(f"{label}: crash surfaced no "
                            "ECONNRESET/timeout to the client")
        problems.extend(broken)
        rows.append([
            round(detect * 1e3, 1),
            round(recovery * 1e3, 2) if recovery is not None else None,
            counters["requests_ok"],
            baseline["counters"]["requests_ok"] - counters["requests_ok"],
            counters["resets"], counters["timeouts"],
            result["ce"]["heartbeats_sent"], unresolved])
    notes = ("recovery tracks the detection timeout (plus one reconnect "
             "round-trip); goodput lost during the outage grows with it; "
             "every failed connection surfaced as ECONNRESET or a bounded "
             "timeout" if not problems else "; ".join(problems))
    return ExperimentResult(
        "fig-failover",
        "Recovery time and goodput dip vs NSM failure-detection timeout",
        ["detect_ms", "recovery_ms", "requests_ok", "requests_lost",
         "resets", "timeouts", "heartbeats", "unresolved_failures"],
        rows, notes=notes)
