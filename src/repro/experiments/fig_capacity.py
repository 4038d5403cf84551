"""Capacity-envelope experiment: NDR/PDR per scenario, with overload on.

Not a paper figure — §7's claim that one NSM core multiplexes many VMs
raises the operational question this experiment answers: *where does
that multiplexing saturate, and what happens past the knee?*  For each
scenario the NDR/PDR binary search (``repro.perf.capacity``) finds the
no-drop rate (loss <= 1%) and partial-drop rate (loss <= 10%), then
re-offers 2x NDR to check that the overload governor degrades
gracefully: goodput holds >= 80% of the NDR plateau, per-VM goodput
stays weight-fair (Jain >= 0.9), and no guest op hangs — overload
surfaces as fail-fast EAGAIN, never as a stuck socket.

The failover scenario legitimately has no NDR: an NSM crash costs a
fixed outage window, so loss never reaches zero at any offered rate.
The row reports that honestly rather than inventing a rate.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.report import ExperimentResult
from repro.scenario import SCENARIOS

#: Scenarios swept, in presentation order.
CAPACITY_SCENARIOS = ("mux", "rps", "failover")


def run(seed: int = 0, scenarios: Sequence[str] = CAPACITY_SCENARIOS,
        n_vms: int = 4, iterations: int = 5) -> ExperimentResult:
    """Search each scenario's capacity envelope and tabulate the knees."""
    rows, problems = [], []
    for scenario in scenarios:
        result, broken = SCENARIOS["capacity"].run_checked(
            scenario, scenario=scenario, seed=seed, n_vms=n_vms,
            iterations=iterations)
        ndr, pdr, graceful = (result["ndr"], result["pdr"],
                              result["graceful"])
        if pdr is None:
            problems.append(f"{scenario}: no PDR within "
                            f"[{result['rate_lo']:g}, "
                            f"{result['rate_hi']:g}] ops/s")
        problems.extend(broken)
        rows.append(
            [scenario]
            + ([None, None] if ndr is None
               else [round(ndr["rate"]), ndr["p99_us"]])
            + ([None, None] if pdr is None
               else [round(pdr["rate"]), pdr["p99_us"]])
            + [None if graceful is None else graceful[key] for key in (
                "goodput_ratio", "jain_fairness", "hung_ops", "pass")])
    notes = ("NDR = highest loss<=1% rate, PDR = highest loss<=10% rate "
             "(seeded bisection); graceful columns re-offer 2x NDR with "
             "the overload governor shedding — failover has no NDR by "
             "construction (crash outage is a fixed-time loss)"
             if not problems else "; ".join(problems))
    return ExperimentResult(
        "fig-capacity",
        "NDR/PDR capacity envelope with overload control",
        ["scenario", "ndr_ops", "ndr_p99_us", "pdr_ops", "pdr_p99_us",
         "goodput_ratio_2xndr", "jain_2xndr", "hung_ops", "graceful"],
        rows, notes=notes)
