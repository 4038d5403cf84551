"""repro.obs: the per-hop NQE tracer and the report that reads the host.

An :class:`Observability` instance owns a :class:`MetricsRegistry` of
latency histograms and the :class:`NqeTracer` that fills them.
Components hold an ``obs`` attribute that is ``None`` by default; the
five per-NQE hop sites (GuestLib enqueue and deliver, the switch,
ServiceLib consume and emit) are the only hooks, each guarded by
``if obs is not None``, so a run without observability pays nothing
beyond that attribute check.  Every other number in :meth:`report` is
read, at report time, from the component that already keeps it: the
switch's counters and migration records, the GuestLibs' op counters,
the autoscaler, the overload governor, the rings, the hugepage regions
and each core's busy-cycle ledger.

Enable it on a host before (or after — late components are wired too)
building VMs and NSMs::

    host = NetKernelHost(sim, network)
    obs = host.enable_observability()
    ...
    sim.run(until=1.0)
    report = obs.report()     # stages, ops, rings, buckets, cycles

The tracer never yields, never charges cycles, and never creates
simulation events, so the simulated timeline of the workload is
identical with observability on or off — asserted by tests/test_obs.py.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.obs.metrics import Histogram, MetricsRegistry, geometric_bounds
from repro.obs.trace import HOP_STAGES, NqeTracer

__all__ = [
    "Histogram", "MetricsRegistry", "NqeTracer", "Observability",
    "geometric_bounds", "HOP_STAGES",
]

#: Which cycle ledger (group, component) backs each latency stage in the
#: combined report.  ce.switch serves both directions of the switch.
STAGE_CYCLE_SOURCES = {
    "guest_to_ce": ("vms", "guestlib.prep"),
    "ce_to_nsm": ("ce", "ce.switch"),
    "nsm_service": ("nsms", "servicelib.dispatch"),
    "nsm_to_ce": ("ce", "ce.switch"),
    "ce_to_guest": ("vms", "guestlib.dispatch"),
}

#: failover report key -> the GuestLib counter summed into it.
GUEST_OP_COUNTERS = (
    ("guestlib.op_retries", "op_retries"),
    ("guestlib.op_sheds", "ops_shed"),
    ("guestlib.op_timeouts", "op_timeouts"),
)


def _by_component(cores: Iterable) -> Dict[str, float]:
    """Busy cycles per labelled component, merged over ``cores``."""
    merged: Dict[str, float] = {}
    for core in cores:
        for component, cycles in core.busy_by_component.items():
            merged[component] = merged.get(component, 0.0) + cycles
    return merged


class Observability:
    """The NQE tracer wired into a NetKernelHost, plus its report."""

    def __init__(self, host):
        """Install the tracer on ``host``'s switch and on all current
        (and future — see NetKernelHost.add_vm/add_nsm) VMs and NSMs."""
        self.registry = MetricsRegistry()
        self.tracer = NqeTracer(host.sim, self.registry)
        self._host = host
        host.obs = self
        host.coreengine.obs = self
        for vm in host.vms.values():
            self.attach_vm(vm)
        for nsm in host.nsms.values():
            self.attach_nsm(nsm)

    def attach_vm(self, vm) -> None:
        vm.guestlib.obs = self

    def attach_nsm(self, nsm) -> None:
        nsm.servicelib.obs = self

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The combined per-stage latency + cycles report (JSON-ready)."""
        host = self._host
        engine = host.coreengine
        stats = engine.stats()
        component_cycles = self._cycles()
        stages = []
        for snap in self.tracer.hop_snapshot():
            group, component = STAGE_CYCLE_SOURCES[snap["stage"]]
            stages.append({
                "stage": snap["stage"],
                "count": snap["count"],
                "p50_us": snap["p50"] * 1e6,
                "p95_us": snap["p95"] * 1e6,
                "p99_us": snap["p99"] * 1e6,
                "max_us": snap["max"] * 1e6,
                "mean_us": snap["mean"] * 1e6,
                "cycles": component_cycles.get(group, {}).get(component, 0.0),
            })
        ops = []
        for prefix in ("nqe.e2e.", "nqe.oneway.", "nqe.event."):
            for hist in self.registry.histograms_named(prefix):
                snap = hist.snapshot()
                ops.append({
                    "op": hist.name.split(".", 2)[2],
                    "kind": hist.name.split(".", 2)[1],
                    "vm": hist.labels.get("vm"),
                    "count": snap["count"],
                    "p50_us": snap["p50"] * 1e6,
                    "p95_us": snap["p95"] * 1e6,
                    "p99_us": snap["p99"] * 1e6,
                    "max_us": snap["max"] * 1e6,
                })
        rings = {}
        devices = [(name, vm.guestlib.device)
                   for name, vm in host.vms.items()]
        devices += [(name, nsm.servicelib.device)
                    for name, nsm in host.nsms.items()]
        for owner, device in devices:
            for ring, depths in device.ring_depths().items():
                rings[f"{owner}.{ring}"] = {"depth": depths["depth"],
                                            "peak_depth": depths["peak"]}
        hugepages = {}
        for vm in host.vms.values():
            region = vm.guestlib.device.hugepages
            marks = region.watermarks()
            hugepages[region.name] = {key: marks[key] for key in (
                "allocated", "free", "live_buffers", "peak_allocated")}
        report = {
            "stages": stages,
            "ops": ops,
            "rings": dict(sorted(rings.items())),
            "hugepages": dict(sorted(hugepages.items())),
            "token_buckets": {str(vm): state for vm, state
                              in engine.isolation_state().items()},
            "cycles": component_cycles,
            "counters": {"nqe.traced": self.tracer.traced,
                         "nqe.trace_overflow": self.tracer.dropped_records},
        }
        failover = {}
        for key, counter in GUEST_OP_COUNTERS:
            total = sum(getattr(vm.guestlib, counter)
                        for vm in host.vms.values())
            if total:
                failover[key] = total
        if failover:
            report["failover"] = failover
        if engine.migrations:
            blackout = Histogram("migration.blackout_sec", {})
            for record in engine.migrations:
                blackout.record(record["blackout_sec"])
            snap = blackout.snapshot()
            report["migration"] = {
                "migration.blackout_sec": {
                    key: snap[key]
                    for key in ("count", "p50", "p99", "max", "mean")},
            }
        scaler = host.autoscaler
        if scaler is not None:
            counts = {
                "autoscale.migrate": scaler.counters["migrations"],
                "autoscale.reap": sum(event["action"] == "reap"
                                      for event in scaler.events),
                "autoscale.retire": scaler.counters["retired"],
                "autoscale.spawn": scaler.counters["spawned"],
            }
            autoscale = {key: n for key, n in counts.items() if n}
            if autoscale:
                report["autoscale"] = autoscale
        report["coreengine"] = stats
        drops = engine.per_vm_drops()
        if drops:
            report["per_vm_drops"] = {str(vm): d for vm, d in drops.items()}
        governor = engine.overload
        if governor is not None:
            report["overload"] = governor.stats()
        return report

    def _cycles(self) -> Dict[str, Dict[str, float]]:
        """Busy cycles per component for each role group that has cores
        on the host now (the switch always does)."""
        host = self._host
        groups = {
            "ce": host.ce_cores,
            "nsms": [core for nsm in host.nsms.values()
                     for core in nsm.cores],
            "vms": [core for vm in host.vms.values() for core in vm.cores],
        }
        return {group: _by_component(cores)
                for group, cores in groups.items() if cores}
