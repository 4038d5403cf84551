"""repro.obs: the datapath observability layer.

One :class:`Observability` instance owns a :class:`MetricsRegistry`, an
:class:`NqeTracer`, a :class:`CpuAccountant`, and (optionally) a periodic
:class:`PeriodicSampler`.  Components hold an ``obs`` attribute that is
``None`` by default; every hook site is guarded by ``if obs is not None``
so a run without observability pays nothing beyond that attribute check.
The five per-NQE hop sites (GuestLib enqueue and deliver, the switch,
ServiceLib consume and emit) call ``obs.tracer`` directly; the failure,
migration and overload hooks are the ``on_*`` methods below.

Enable it on a host before (or after — late components are wired too)
building VMs and NSMs::

    host = NetKernelHost(sim, network)
    obs = host.enable_observability(sample_interval=1e-3)
    ...
    sim.run(until=1.0)
    report = obs.report()     # stages, ops, rings, buckets, cycles

Hooks never yield, never charge cycles, and never create simulation
events (the sampler is a separate process reading state), so the
simulated timeline of the workload is identical with observability on or
off — asserted by tests/test_obs.py.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.accounting import CpuAccountant
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               geometric_bounds)
from repro.obs.samplers import PeriodicSampler, sample_host
from repro.obs.trace import HOP_STAGES, NqeTracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NqeTracer",
    "Observability", "PeriodicSampler", "geometric_bounds", "HOP_STAGES",
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


class Observability:
    """Facade wiring tracer + metrics + samplers into a NetKernelHost."""

    def __init__(self, sim):
        self.sim = sim
        self.registry = MetricsRegistry()
        self.tracer = NqeTracer(sim, self.registry)
        self.accountant = CpuAccountant()
        self.sampler: Optional[PeriodicSampler] = None
        self._host = None

    # -- failure/recovery hooks (§8) --------------------------------------

    def on_nsm_quarantined(self, nsm_id: int, reason: str,
                           vms_moved: int) -> None:
        self.registry.counter("failover.quarantines").inc()
        self.registry.counter("failover.vms_moved").inc(vms_moved)

    def on_migration(self, vm_id: int, source_nsm: int, target_nsm: int,
                     blackout_sec: float, sockets_moved: int,
                     parked_ops: int) -> None:
        """A live migration completed: record its blackout and volume."""
        self.registry.counter("migration.completed").inc()
        self.registry.counter("migration.sockets_moved").inc(sockets_moved)
        self.registry.counter("migration.parked_ops").inc(parked_ops)
        self.registry.histogram("migration.blackout_sec").record(blackout_sec)

    def on_autoscale(self, action: str, detail: str = "") -> None:
        """An autoscaler job completed (spawn / retire / migrate)."""
        self.registry.counter(f"autoscale.{action}").inc()

    def on_op_timeout(self, op) -> None:
        self.registry.counter("guestlib.op_timeouts",
                              op=getattr(op, "name", str(op))).inc()

    def on_op_retry(self, op) -> None:
        self.registry.counter("guestlib.op_retries",
                              op=getattr(op, "name", str(op))).inc()

    # -- overload hooks ----------------------------------------------------

    def on_overload_level(self, engine, old_level: int, new_level: int,
                          occupancy: float, latency_ewma: float) -> None:
        """A governor changed pressure level (reads only; no events)."""
        self.registry.counter("overload.level_transitions").inc()
        self.registry.gauge("overload.level").set(new_level)
        self.registry.gauge("overload.occupancy").set(occupancy)
        self.registry.gauge("overload.latency_ewma").set(latency_ewma)

    def on_op_shed(self, op) -> None:
        """A guest op failed fast with EAGAIN (admission control)."""
        self.registry.counter("guestlib.op_sheds",
                              op=getattr(op, "name", str(op))).inc()

    # -- wiring ------------------------------------------------------------

    def attach_host(self, host,
                    sample_interval: Optional[float] = None) -> "Observability":
        """Install hooks on a host's CoreEngine and all current (and
        future — see NetKernelHost.add_vm/add_nsm) VMs and NSMs."""
        self._host = host
        host.obs = self
        host.coreengine.obs = self
        self.accountant.register("ce", host.ce_cores)
        for vm in host.vms.values():
            self.attach_vm(vm)
        for nsm in host.nsms.values():
            self.attach_nsm(nsm)
        if sample_interval is not None:
            self.sampler = PeriodicSampler(self.sim, sample_interval,
                                           self.sample_now)
        return self

    def attach_vm(self, vm) -> None:
        vm.guestlib.obs = self
        self.accountant.register("vms", vm.cores)

    def attach_nsm(self, nsm) -> None:
        nsm.servicelib.obs = self
        self.accountant.register("nsms", nsm.cores)

    def sample_now(self) -> None:
        """Snapshot rings/hugepages/token-buckets into gauges right now."""
        if self._host is not None:
            sample_host(self.registry, self._host)

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The combined per-stage latency + cycles report (JSON-ready)."""
        self.sample_now()
        component_cycles = {
            group: self.accountant.by_component(group)
            for group in self.accountant.groups()
        }
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
        for gauge in self.registry.gauges_named("ring."):
            owner = gauge.labels["owner"]
            ring = gauge.labels["ring"]
            field = gauge.name.split(".", 1)[1]
            rings.setdefault(f"{owner}.{ring}", {})[field] = gauge.value
        hugepages = {}
        for gauge in self.registry.gauges_named("hugepages."):
            region = gauge.labels["region"]
            field = gauge.name.split(".", 1)[1]
            hugepages.setdefault(region, {})[field] = gauge.value
        token_buckets = (self._host.coreengine.isolation_state()
                         if self._host is not None else {})
        report = {
            "stages": stages,
            "ops": ops,
            "rings": rings,
            "hugepages": hugepages,
            "token_buckets": {str(vm): state
                              for vm, state in token_buckets.items()},
            "cycles": component_cycles,
            "counters": {m.name: m.value
                         for m in (self.tracer.traced,
                                   self.tracer.dropped_records)},
        }
        failover = {}
        for prefix in ("failover.", "guestlib.op_"):
            for counter in self.registry.counters_named(prefix):
                key = counter.name
                op = counter.labels.get("op")
                if op:
                    key = f"{key}.{op}"
                failover[key] = failover.get(key, 0) + counter.value
        if failover:
            report["failover"] = failover
        migration = {}
        for counter in self.registry.counters_named("migration."):
            migration[counter.name] = counter.value
        for hist in self.registry.histograms_named("migration."):
            snap = hist.snapshot()
            migration[hist.name] = {
                "count": snap["count"],
                "p50": snap["p50"],
                "p99": snap["p99"],
                "max": snap["max"],
                "mean": snap["mean"],
            }
        if migration:
            report["migration"] = migration
        autoscale = {}
        for counter in self.registry.counters_named("autoscale."):
            autoscale[counter.name] = counter.value
        if autoscale:
            report["autoscale"] = autoscale
        if self._host is not None:
            engine = self._host.coreengine
            report["coreengine"] = engine.stats()
            drops = engine.per_vm_drops()
            if drops:
                report["per_vm_drops"] = {str(vm): d
                                          for vm, d in drops.items()}
            governor = engine.overload
            if governor is not None:
                report["overload"] = governor.stats()
        return report
