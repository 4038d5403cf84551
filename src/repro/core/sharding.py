"""The host's NQE switch: a cluster of one or more CoreEngine shards.

ROADMAP names the single CoreEngine as the scaling boundary: one
switching loop serves every queue set on the host, so past a few
thousand devices the switch itself is the bottleneck, not the NSMs.
Every host therefore runs its switch as a cluster of ``ce_shards >= 1``
shards.  Each shard is a full :class:`CoreEngine` (its own core, ready
set, dirty heap, doorbell, health monitor, overload governor) over the
devices homed on it; a one-shard cluster is exactly the paper's single
CoreEngine.

One control plane
-----------------

The shards share one control plane by reference
(``repro.core.coreengine._CLUSTER_STATE``): one id space, one
id → registration lookup per role, one ConnectionTable, one VM→NSM map,
one set of isolation limits and hugepage regions, one health verdict
per NSM.  A registration's ``engine`` is the one record of where its
device lives.  Any shard therefore answers a cluster-wide request —
assign, deregister, migrate, quarantine — and hands the part that must
run at a device's home (its ring drains, its core's charges) to that
shard.  Loops that visit devices (``kick(None)``, the health monitor,
the overload governor) visit only their own shard's.

Cross-shard handoff
-------------------

Rings are strict SPSC (repro.mem.ring): each end is claimed by exactly
one party, and for every device's consume rings that party is the
device's *home shard*.  A shard switching an NQE whose destination
device is homed elsewhere therefore cannot push it directly — it hands
the (ring, NQE, device) triple to the destination shard's inbox and
rings that shard's doorbell.  The destination drains its inbox at the
top of its next switching pass, using the stock delivery path (fault
hooks, backpressure budget and liveness checks all apply exactly once,
on the destination side).  Only shards with peers have an inbox, so a
one-shard cluster pays nothing per NQE for any of this.

Determinism
-----------

When the partition is traffic-closed — every VM homed with its serving
NSM, as the fig08_sharded bench and auto-placement arrange — a shard's
simulated timeline is independent of every other shard's, and its
counters are bit-identical to a standalone one-shard run of the same
population.  The perf harness asserts exactly that.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.coreengine import CoreEngine
from repro.core.nk_device import NKDevice
from repro.core.queues import DEFAULT_RING_SLOTS
from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError
from repro.mem.hugepages import HugepageRegion

#: Counters the switch sums over its shards on attribute access.
_SUMMED_COUNTERS = frozenset({
    "nqes_switched", "batches", "vms_migrated", "conns_migrated",
    "migration_parked_ops", "rate_limited_stalls", "nqes_dropped",
    "nqes_dropped_backpressure", "nqes_failed_fast", "nqes_shed",
    "heartbeats_sent",
    "heartbeat_acks", "nsms_quarantined", "vms_failed_over",
    "conns_reset_on_failover", "stale_wakeups", "handoffs_in",
    "handoffs_out",
})


class ShardedCoreEngine:
    """N >= 1 CoreEngine shards behind the single-switch API.

    Devices are placed round-robin per role (or pinned with ``shard=``).
    Per-shard machinery — switching loops, health monitors, overload
    governors, observability and fault hooks — is driven on every shard
    here, and counters are summed.  Everything else a CoreEngine offers
    works cluster-wide on any shard, so shard 0 answers it: the shared
    table, VM→NSM map and directory, assign/deregister/migrate/
    quarantine, isolation limits, device lookups.
    """

    def __init__(self, sim, cores: List[Core],
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 batch_size: int = 4, ring_slots: int = DEFAULT_RING_SLOTS):
        if not cores:
            raise ConfigurationError("need at least one shard core")
        self.shards: List[CoreEngine] = [
            CoreEngine(sim, core, cost_model=cost_model,
                       batch_size=batch_size, ring_slots=ring_slots)
            for core in cores
        ]
        if len(self.shards) > 1:
            for index, shard in enumerate(self.shards):
                shard._join_cluster(index, self.shards[0])
        self._rr_vm = itertools.count()
        self._rr_nsm = itertools.count()

    # -- placement ------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def _pick_shard(self, role_counter, shard: Optional[int]) -> CoreEngine:
        if shard is None:
            return self.shards[next(role_counter) % len(self.shards)]
        if not 0 <= shard < len(self.shards):
            raise ConfigurationError(
                f"shard {shard} out of range (0..{len(self.shards) - 1})")
        return self.shards[shard]

    def register_vm(self, owner_id: str, queue_sets: int,
                    hugepages: Optional[HugepageRegion] = None,
                    poll_window_sec: Optional[float] = None,
                    shard: Optional[int] = None) -> Tuple[int, NKDevice]:
        return self._pick_shard(self._rr_vm, shard).register_vm(
            owner_id, queue_sets, hugepages=hugepages,
            poll_window_sec=poll_window_sec)

    def register_nsm(self, owner_id: str, queue_sets: int,
                     hugepages: Optional[HugepageRegion] = None,
                     poll_window_sec: Optional[float] = None,
                     shard: Optional[int] = None) -> Tuple[int, NKDevice]:
        return self._pick_shard(self._rr_nsm, shard).register_nsm(
            owner_id, queue_sets, hugepages=hugepages,
            poll_window_sec=poll_window_sec)

    def assign_vm(self, vm_id: int, nsm_id: int) -> None:
        self.shards[0].assign_vm(vm_id, nsm_id)

    def assign_vm_auto(self, vm_id: int) -> int:
        return self.shards[0].assign_vm_auto(vm_id)

    def shard_of_vm(self, vm_id: int) -> int:
        reg = self.shards[0]._vm_registration(vm_id)
        if reg is None:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        return reg.engine.shard_index

    def shard_of_nsm(self, nsm_id: int) -> int:
        reg = self.shards[0]._nsm_registration(nsm_id)
        if reg is None:
            raise ConfigurationError(f"unknown NSM id {nsm_id}")
        return reg.engine.shard_index

    def shard_loads(self) -> Dict[int, dict]:
        """Per-shard placement/load view — the autoscaler's shard-scaling
        signal and the fleet snapshot's shard report: active NSM count,
        homed (live) VM count, and live connections served from each
        shard.  O(devices), using the table's incremental per-NSM
        counts, never the connection population."""
        first = self.shards[0]
        loads = first.table.nsm_loads()
        out: Dict[int, dict] = {
            index: {"nsms": 0, "vms": 0, "connections": 0}
            for index in range(len(self.shards))}
        for nid in first._active_nsm_ids():
            row = out[first._nsms[nid].engine.shard_index]
            row["nsms"] += 1
            row["connections"] += loads.get(nid, 0)
        for reg in first._vms.values():
            out[reg.engine.shard_index]["vms"] += 1
        return out

    def emptiest_shard(self) -> int:
        """Where the next NSM belongs: the shard with the fewest active
        NSMs, breaking ties by fewest live connections, then by index —
        so an NSM fleet spread by the autoscaler converges toward one
        serving NSM per switching core before doubling up anywhere."""
        loads = self.shard_loads()
        return min(loads, key=lambda index: (loads[index]["nsms"],
                                             loads[index]["connections"],
                                             index))

    # -- per-shard machinery ----------------------------------------------------

    def enable_health_monitor(self, heartbeat_interval: float = 1e-3,
                              detection_timeout: float = 5e-3) -> None:
        for shard in self.shards:
            shard.enable_health_monitor(
                heartbeat_interval=heartbeat_interval,
                detection_timeout=detection_timeout)

    def disable_health_monitor(self) -> None:
        for shard in self.shards:
            shard.disable_health_monitor()

    def enable_overload_control(self, **params):
        """Arm one overload governor per shard (each shard detects and
        governs over its own device population) and return shard 0's."""
        for shard in self.shards:
            shard.enable_overload_control(**params)
        return self.shards[0].overload

    def disable_overload_control(self) -> None:
        for shard in self.shards:
            shard.disable_overload_control()

    @property
    def overload(self):
        """Shard 0's governor (the representative for level checks);
        use :meth:`overload_governors` for the full per-shard list."""
        return self.shards[0].overload

    def overload_governors(self) -> list:
        return [shard.overload for shard in self.shards
                if shard.overload is not None]

    def per_vm_drops(self) -> Dict[int, dict]:
        """Per-VM loss attribution merged across shards."""
        merged: Dict[int, dict] = {}
        for shard in self.shards:
            for vm_id, row in shard.per_vm_drops().items():
                into = merged.setdefault(
                    vm_id, {"dropped": 0, "dropped_backpressure": 0,
                            "shed": 0})
                for key, value in row.items():
                    into[key] += value
        return merged

    def kick(self, device: Optional[NKDevice] = None) -> None:
        if device is not None:
            device.ce_registration.engine.kick(device)
            return
        for shard in self.shards:
            shard.kick(None)

    def stop(self) -> None:
        for shard in self.shards:
            shard.stop()

    @property
    def obs(self):
        return self.shards[0].obs

    @obs.setter
    def obs(self, value) -> None:
        for shard in self.shards:
            shard.obs = value

    @property
    def faults(self):
        return self.shards[0].faults

    @faults.setter
    def faults(self, value) -> None:
        for shard in self.shards:
            shard.faults = value

    @property
    def deliver_stall_budget(self) -> float:
        return self.shards[0].deliver_stall_budget

    @deliver_stall_budget.setter
    def deliver_stall_budget(self, value: float) -> None:
        for shard in self.shards:
            shard.deliver_stall_budget = value

    @property
    def ring_slots(self) -> int:
        return self.shards[0].ring_slots

    @ring_slots.setter
    def ring_slots(self, value: int) -> None:
        for shard in self.shards:
            shard.ring_slots = value

    def __getattr__(self, name: str):
        shards = self.__dict__.get("shards")
        if not shards:
            raise AttributeError(
                f"{type(self).__name__!s} has no attribute {name!r}")
        if name in _SUMMED_COUNTERS:
            return sum(getattr(shard, name) for shard in shards)
        return getattr(shards[0], name)

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        """A one-shard switch reports exactly its CoreEngine's counters.
        A multi-shard one sums them, adds the shard count and the
        handoff counters, and nests each shard's own as ``shard.i``."""
        if len(self.shards) == 1:
            return self.shards[0].stats()
        per_shard = [dict(shard.stats(), handoffs_in=shard.handoffs_in,
                          handoffs_out=shard.handoffs_out)
                     for shard in self.shards]
        out: Dict[str, object] = {
            "shards": len(self.shards),
            "connections": len(self.shards[0].table),
        }
        numeric = [k for k in per_shard[0]
                   if isinstance(per_shard[0][k], (int, float))
                   and k not in ("avg_batch", "connections")]
        for key in numeric:
            out[key] = sum(stats[key] for stats in per_shard)
        out["avg_batch"] = (out["nqes_switched"] / out["batches"]
                            if out.get("batches") else 0.0)
        for index, stats in enumerate(per_shard):
            out[f"shard.{index}"] = stats
        return out
