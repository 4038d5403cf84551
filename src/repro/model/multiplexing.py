"""The multiplexing use case, analytically (§6.1, Fig. 8, Table 2).

Baseline: every AG is an independent VM provisioned for its own peak —
cores sit idle because utilization is low and bursts are rare.
NetKernel: the TCP work of all AGs runs in one shared NSM sized for the
*aggregate* (whose bursts don't align), and each AG keeps one core for
application logic.

Trace values are RPS normalized to the AG's *provisioned capacity*
(100 = the AG's reserved cores running flat out).  Fig. 8's AGs are the
three most utilized, provisioned at 4 cores each; Table 2's fleet AGs
reserve 2 cores each, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.trace.ag_trace import AgTrace, aggregate


def ag_request_cycles(cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Total per-request cycles of a baseline AG (app + proxy stack)."""
    return cost.ag_app_request_cycles + cost.ag_stack_request_cycles


def ag_rps_per_core(cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Requests/second one baseline AG core sustains."""
    return cost.core_hz / ag_request_cycles(cost)


def unit_rps(provisioned_cores: int,
             cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """RPS behind one normalized trace unit for an AG reserving
    ``provisioned_cores`` (100 units == the reservation's capacity)."""
    return provisioned_cores * ag_rps_per_core(cost) / 100.0


def nsm_capacity_rps(nsm_cores: int,
                     cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Request rate a kernel-stack NSM of ``nsm_cores`` sustains for AG
    (proxy) traffic."""
    speedup = CostModel.amdahl_speedup(nsm_cores, cost.alpha_ktcp_reuseport)
    return cost.core_hz / cost.ag_stack_request_cycles * speedup


def nsm_cores_for(traces: Sequence[AgTrace], provisioned_cores: int = 4,
                  cost: CostModel = DEFAULT_COST_MODEL,
                  headroom: float = 1.1) -> int:
    """Smallest NSM serving the aggregate stack load of these AGs."""
    agg_peak_units = max(aggregate(traces)) if traces else 0.0
    required = agg_peak_units * unit_rps(provisioned_cores, cost) * headroom
    cores = 1
    while nsm_capacity_rps(cores, cost) < required and cores < 64:
        cores += 1
    return cores


def app_capacity_units(provisioned_cores: int,
                       cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Peak units (at ``provisioned_cores`` normalization) a 1-core
    NetKernel AG VM — app logic only — sustains."""
    per_core = cost.core_hz / cost.ag_app_request_cycles
    return per_core / unit_rps(provisioned_cores, cost)


def fig8_comparison(traces: Sequence[AgTrace], provisioned_cores: int = 4,
                    cost: CostModel = DEFAULT_COST_MODEL) -> Dict:
    """Fig. 8: per-core RPS of baseline vs NetKernel for the same AGs.

    Baseline provisions each AG at its reservation; NetKernel runs one
    1-core VM per AG plus a right-sized shared NSM plus CoreEngine.
    """
    baseline_cores = provisioned_cores * len(traces)
    nsm_cores = nsm_cores_for(traces, provisioned_cores, cost)
    nk_cores = len(traces) + nsm_cores + 1
    agg_units = aggregate(traces)
    rps_series = [u * unit_rps(provisioned_cores, cost) for u in agg_units]
    cap_units = app_capacity_units(provisioned_cores, cost)
    infeasible = [t.name for t in traces if t.peak > cap_units]
    return {
        "baseline_cores": baseline_cores,
        "netkernel_cores": nk_cores,
        "nsm_cores": nsm_cores,
        "per_core_rps_baseline": [r / baseline_cores for r in rps_series],
        "per_core_rps_netkernel": [r / nk_cores for r in rps_series],
        "per_core_improvement": baseline_cores / nk_cores,
        "app_core_infeasible": infeasible,
    }


def table2_packing(fleet: Sequence[AgTrace], machine_cores: int = 32,
                   reserved_per_ag: int = 2, nsm_cores: int = 2,
                   nsm_util_limit: float = 0.6,
                   cost: CostModel = DEFAULT_COST_MODEL) -> Dict:
    """Table 2: AGs per 32-core machine under each scheme.

    Baseline fits ``machine_cores / reserved_per_ag`` AGs.  NetKernel
    dedicates one core to CoreEngine, ``nsm_cores`` to a shared NSM, and
    packs 1-core AG VMs into the rest as long as the NSM's *typical*
    (mean-aggregate) utilization stays under ``nsm_util_limit`` — burst
    minutes above the limit queue briefly and are reported, mirroring the
    paper's "well under 60% in the worst case for ~97% of the AGs".
    """
    baseline_ags = machine_cores // reserved_per_ag
    available_ag_cores = machine_cores - nsm_cores - 1
    capacity = nsm_capacity_rps(nsm_cores, cost)
    per_unit = unit_rps(reserved_per_ag, cost)

    packed: List[AgTrace] = []
    for trace in fleet:
        if len(packed) >= available_ag_cores:
            break
        candidate = packed + [trace]
        agg = aggregate(candidate)
        mean_util = (sum(agg) / len(agg)) * per_unit / capacity
        if mean_util > nsm_util_limit:
            break
        packed.append(trace)

    netkernel_ags = len(packed)
    agg = aggregate(packed) if packed else [0.0]
    utils = [u * per_unit / capacity for u in agg]
    under_limit = sum(1 for u in utils if u <= nsm_util_limit) / len(utils)
    return {
        "baseline_ags": baseline_ags,
        "netkernel_ags": netkernel_ags,
        "nsm_cores": nsm_cores,
        "coreengine_cores": 1,
        "extra_ags_fraction": (netkernel_ags - baseline_ags)
        / max(1, baseline_ags),
        # Cores per AG shrink from machine/baseline_ags to machine/nk_ags:
        # with 16 -> 29 AGs this is the paper's "save over 40% cores".
        "cores_saved_fraction": 1.0 - baseline_ags / max(1, netkernel_ags),
        "nsm_mean_utilization": sum(utils) / len(utils),
        "nsm_peak_utilization": max(utils),
        "fraction_minutes_under_limit": under_limit,
    }
