"""Sharded CoreEngine: the NQE switch partitioned over N simulated cores.

ROADMAP names the single CoreEngine as the scaling boundary: one
switching loop serves every queue set on the host, so past a few
thousand devices the switch itself is the bottleneck, not the NSMs.
This module partitions the device population over per-shard switching
loops — each shard is a full :class:`CoreEngine` (its own core, ready
set, dirty heap, doorbell, health monitor) — while the *control plane*
stays host-global: one ConnectionTable, one VM→NSM assignment map, one
hugepage-region registry, one id space, shared by every shard.

Cross-shard handoff
-------------------

Rings are strict SPSC (repro.mem.ring): each end is claimed by exactly
one party, and for every device's consume rings that party is the
device's *home shard*.  A shard switching an NQE whose destination
device is homed elsewhere therefore cannot push it directly — it hands
the (ring, NQE, device) triple to the destination shard's inbound queue
and rings that shard's doorbell.  The destination drains its inbound
queue in :meth:`CoreEngine._pre_pass`, at the top of its next switching
pass, using the stock delivery path (fault hooks, backpressure budget
and liveness checks all apply exactly once, on the destination side).

Determinism
-----------

Each shard is itself a CoreEngine with the same pass order (its
``_pre_pass`` drain runs at the top of every pass).  When the partition
is traffic-closed — every VM homed
with its serving NSM, as the fig08_sharded bench arranges — a shard's
simulated timeline is independent of every other shard's, and its
counters are bit-identical to a standalone one-shard run of the same
population.  The perf harness asserts exactly that.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.coreengine import CoreEngine, _Registration
from repro.core.nk_device import NKDevice
from repro.core.queues import DEFAULT_RING_SLOTS
from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError
from repro.mem.hugepages import HugepageRegion
from repro.mem.ring import SpscRing

#: Handoff triples drained per scratch refill in _pre_pass (a multiple
#: of 3: the inbox ring stores flattened ring/nqe/device slots).
_HANDOFF_DRAIN = 96


class _HandoffInbox:
    """Cross-shard handoff inbox: a slab-backed ring of flattened
    (ring, nqe, device) triples, with an unbounded spill deque behind it.

    The simulator is single-threaded, so the producing end is logically
    "any peer shard mid-pass" and the consuming end is the home shard's
    ``_pre_pass`` — the SPSC claim discipline is deliberately bypassed
    (owner=None) and documented here instead.  FIFO across the ring/spill
    boundary holds because once a push spills, *every* later push spills
    too until the consumer has fully drained the spill; only then does
    the (by now empty) ring start filling again.
    """

    __slots__ = ("ring", "spill")

    def __init__(self, name: str, slots: int):
        self.ring = SpscRing(max(slots, 64) * 3, name=name)
        self.spill = deque()

    def push(self, ring, nqe, device) -> None:
        r = self.ring
        if self.spill or r.capacity - r._count < 3:
            self.spill.append((ring, nqe, device))
            return
        r.try_push(ring)
        r.try_push(nqe)
        r.try_push(device)


class _ShardEngine(CoreEngine):
    """One shard: a CoreEngine that shares its control plane with its
    cluster and hands off NQEs bound for devices homed elsewhere."""

    _HAS_PRE_PASS = True  # the handoff-inbox drain must run every pass

    def __init__(self, sim, core: Core, shard_index: int,
                 cluster: "ShardedCoreEngine", **kwargs):
        self.shard_index = shard_index
        self.cluster = cluster
        #: Cross-shard handoff inbox: (ring, nqe, target_device) triples
        #: pushed by peer shards, drained at the top of the next pass.
        self._inbound = _HandoffInbox(
            f"shard{shard_index}.handoff",
            kwargs.get("ring_slots", DEFAULT_RING_SLOTS))
        #: Reusable drain scratch for the inbox (never reallocated).
        self._handoff_scratch: list = []
        self.handoffs_in = 0
        self.handoffs_out = 0
        super().__init__(sim, core, **kwargs)

    # -- cluster-wide lookups -------------------------------------------------

    def _vm_registration(self, vm_id: int) -> Optional[_Registration]:
        reg = self._vms.get(vm_id)
        return reg if reg is not None else self.cluster._find_vm(vm_id)

    def _nsm_registration(self, nsm_id: int) -> Optional[_Registration]:
        reg = self._nsms.get(nsm_id)
        return reg if reg is not None else self.cluster._find_nsm(nsm_id)

    def _active_nsm_ids(self, exclude: Optional[int] = None) -> List[int]:
        return self.cluster._active_nsm_ids(exclude)

    def deregister(self, numeric_id: int) -> None:
        # A guest can reach this directly through its shard's control
        # ring (DEREGISTER op); the facade's home directory must not be
        # left pointing at the corpse.
        CoreEngine.deregister(self, numeric_id)
        self.cluster._drop_home(numeric_id)

    # -- cross-shard handoff --------------------------------------------------

    def _home_of(self, device: NKDevice) -> "CoreEngine":
        reg = device.ce_registration
        if reg is not None and reg.engine is not None:
            return reg.engine
        return self

    def _deliver(self, ring, nqe, target_device: NKDevice):
        home = self._home_of(target_device)
        if home is not self:
            self.handoffs_out += 1
            home._inbound.push(ring, nqe, target_device)
            home._kick_inbound()
            return
        yield from CoreEngine._deliver(self, ring, nqe, target_device)

    def _deliver_fast(self, ring, nqe, target_device: NKDevice) -> bool:
        """A cross-shard handoff is synchronous by construction (push +
        doorbell, no yields), so it is always fast."""
        home = self._home_of(target_device)
        if home is not self:
            self.handoffs_out += 1
            home._inbound.push(ring, nqe, target_device)
            home._kick_inbound()
            return True
        return CoreEngine._deliver_fast(self, ring, nqe, target_device)

    def _pre_pass(self):
        inbox = self._inbound
        ring = inbox.ring
        spill = inbox.spill
        scratch = self._handoff_scratch
        while ring._count or spill:
            n = ring.drain_into(scratch, _HANDOFF_DRAIN)
            if n:
                for i in range(0, n, 3):
                    dring = scratch[i]
                    nqe = scratch[i + 1]
                    device = scratch[i + 2]
                    scratch[i] = scratch[i + 1] = scratch[i + 2] = None
                    self.handoffs_in += 1
                    if not self._deliver_fast(dring, nqe, device):
                        yield from CoreEngine._deliver(self, dring, nqe,
                                                       device)
                continue
            dring, nqe, device = spill.popleft()
            self.handoffs_in += 1
            if not self._deliver_fast(dring, nqe, device):
                yield from CoreEngine._deliver(self, dring, nqe, device)

    def _kick_inbound(self) -> None:
        """Wake this shard's switching loop without marking any device
        ready — the work sits in the inbound queue, not in a ring."""
        self._wake_switch()

    def _push_to_vm(self, nqe, event: bool) -> None:
        # Failover/fail-fast deliveries are synchronous; route them to
        # the VM's home shard so its ring producer identity is used.
        reg = self._vm_registration(nqe.vm_id)
        home = reg.engine if reg is not None and reg.engine is not None \
            else self
        if home is not self:
            home._push_to_vm(nqe, event)
        else:
            CoreEngine._push_to_vm(self, nqe, event)

    def stats(self) -> dict:
        out = CoreEngine.stats(self)
        out["handoffs_in"] = self.handoffs_in
        out["handoffs_out"] = self.handoffs_out
        return out


#: Counters the facade sums over its shards on attribute access.
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
    """N CoreEngine shards behind the single-switch API.

    Register/assign/migrate/deregister, health monitoring, isolation
    limits, stats — everything NetKernelHost and the experiments call on
    a CoreEngine works here unchanged.  Devices are placed round-robin
    per role (or pinned with ``shard=``); the ConnectionTable, VM→NSM
    map, id space, hugepage registry and failover listeners are shared
    host-global objects, so placement never changes semantics, only
    which core does the switching.
    """

    def __init__(self, sim, cores: List[Core],
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 batch_size: int = 4, ring_slots: int = DEFAULT_RING_SLOTS):
        if not cores:
            raise ConfigurationError("need at least one shard core")
        self.sim = sim
        self.batch_size = batch_size
        self.shards: List[_ShardEngine] = [
            _ShardEngine(sim, core, index, self, cost_model=cost_model,
                         batch_size=batch_size, ring_slots=ring_slots)
            for index, core in enumerate(cores)
        ]
        # Control plane: shard 0's objects become the host-global ones.
        first = self.shards[0]
        self.table = first.table
        self.vm_to_nsm = first.vm_to_nsm
        self.migrations = first.migrations
        self.failover_listeners = first.failover_listeners
        self._vm_regions = first._vm_regions
        self._orphaned_vms = first._orphaned_vms
        self._bw_limits = first._bw_limits
        self._op_limits = first._op_limits
        self._ids = first._ids
        for shard in self.shards[1:]:
            shard.table = self.table
            shard.vm_to_nsm = self.vm_to_nsm
            shard.migrations = self.migrations
            shard.failover_listeners = self.failover_listeners
            shard._vm_regions = self._vm_regions
            shard._orphaned_vms = self._orphaned_vms
            shard._bw_limits = self._bw_limits
            shard._op_limits = self._op_limits
            shard._ids = self._ids
        # Home-shard directory (facade-registered devices only).
        self._vm_home: Dict[int, _ShardEngine] = {}
        self._nsm_home: Dict[int, _ShardEngine] = {}
        self._rr_vm = itertools.count()
        self._rr_nsm = itertools.count()

    # -- placement ------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def _pick_shard(self, role_counter, shard: Optional[int]) -> _ShardEngine:
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
        home = self._pick_shard(self._rr_vm, shard)
        vm_id, device = home.register_vm(
            owner_id, queue_sets, hugepages=hugepages,
            poll_window_sec=poll_window_sec)
        self._vm_home[vm_id] = home
        return vm_id, device

    def register_nsm(self, owner_id: str, queue_sets: int,
                     hugepages: Optional[HugepageRegion] = None,
                     poll_window_sec: Optional[float] = None,
                     shard: Optional[int] = None) -> Tuple[int, NKDevice]:
        home = self._pick_shard(self._rr_nsm, shard)
        nsm_id, device = home.register_nsm(
            owner_id, queue_sets, hugepages=hugepages,
            poll_window_sec=poll_window_sec)
        self._nsm_home[nsm_id] = home
        return nsm_id, device

    def deregister(self, numeric_id: int) -> None:
        """Release a device wherever it lives.  Unknown ids are a silent
        no-op, exactly like :meth:`CoreEngine.deregister` — the control
        ring exposes DEREGISTER to guests, so an unknown id must never
        raise.  Devices registered directly on a shard engine (bypassing
        the facade) are found by scanning the shards."""
        home = self._vm_home.get(numeric_id) or self._nsm_home.get(numeric_id)
        if home is None:
            home = next((shard for shard in self.shards
                         if numeric_id in shard._vms
                         or numeric_id in shard._nsms), None)
        if home is not None:
            home.deregister(numeric_id)

    def _drop_home(self, numeric_id: int) -> None:
        """Forget a deregistered device's home-shard entry (called from
        the shard side too, so a guest-initiated DEREGISTER switched on
        a shard's control ring cannot leave the directory stale)."""
        self._vm_home.pop(numeric_id, None)
        self._nsm_home.pop(numeric_id, None)

    def shard_of_vm(self, vm_id: int) -> int:
        home = self._vm_home.get(vm_id)
        if home is None:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        return home.shard_index

    def shard_of_nsm(self, nsm_id: int) -> int:
        home = self._nsm_home.get(nsm_id)
        if home is None:
            raise ConfigurationError(f"unknown NSM id {nsm_id}")
        return home.shard_index

    def shard_loads(self) -> Dict[int, dict]:
        """Per-shard placement/load view — the autoscaler's shard-scaling
        signal and the fleet snapshot's shard report: active NSM count,
        homed (live) VM count, and live connections served from each
        shard.  O(devices), using the table's incremental per-NSM
        counts, never the connection population."""
        loads = self.table.nsm_loads()
        out: Dict[int, dict] = {
            shard.shard_index: {"nsms": 0, "vms": 0, "connections": 0}
            for shard in self.shards}
        for nid in self._active_nsm_ids():
            row = out[self._nsm_home[nid].shard_index]
            row["nsms"] += 1
            row["connections"] += loads.get(nid, 0)
        for vm_id, home in self._vm_home.items():
            if vm_id in home._vms:
                out[home.shard_index]["vms"] += 1
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

    # -- directory (shard engines call back into these) -----------------------

    def _find_vm(self, vm_id: int) -> Optional[_Registration]:
        home = self._vm_home.get(vm_id)
        return home._vms.get(vm_id) if home is not None else None

    def _find_nsm(self, nsm_id: int) -> Optional[_Registration]:
        home = self._nsm_home.get(nsm_id)
        return home._nsms.get(nsm_id) if home is not None else None

    def _vm_registration(self, vm_id: int) -> Optional[_Registration]:
        return self._find_vm(vm_id)

    def _nsm_registration(self, nsm_id: int) -> Optional[_Registration]:
        return self._find_nsm(nsm_id)

    def _active_nsm_ids(self, exclude: Optional[int] = None) -> List[int]:
        """In-service NSMs across every shard.  Mirrors CoreEngine's
        PR 5 placement fix: quarantined and deregistered NSMs are never
        candidates — ``active`` alone is not trusted, because a
        quarantine recorded on the home shard must disqualify the NSM
        even if its registration flag is out of step."""
        out: List[int] = []
        for nid, home in self._nsm_home.items():
            if nid == exclude:
                continue
            reg = home._nsms.get(nid)
            if reg is None or not reg.active:
                continue
            if nid in home.quarantined:
                continue
            out.append(nid)
        return out

    def _least_loaded_nsm(self, exclude: Optional[int] = None,
                          among: Optional[List[int]] = None) -> Optional[int]:
        """Least-loaded active NSM, optionally restricted to ``among``
        (ids already validated as active); ties break by id order."""
        candidates = among if among is not None \
            else self._active_nsm_ids(exclude)
        if not candidates:
            return None
        loads = self.table.nsm_loads()
        return min(sorted(candidates), key=lambda nid: loads.get(nid, 0))

    # -- assignment & migration ----------------------------------------------

    def assign_vm(self, vm_id: int, nsm_id: int) -> None:
        if self._find_vm(vm_id) is None:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        if self._find_nsm(nsm_id) is None:
            raise ConfigurationError(f"unknown NSM id {nsm_id}")
        self.vm_to_nsm[vm_id] = nsm_id
        self._orphaned_vms.discard(vm_id)

    def assign_vm_auto(self, vm_id: int) -> int:
        """Shard-aware load balancing: prefer an active NSM homed on the
        VM's own shard (requests then never cross a shard boundary — the
        traffic-closed layout the fig08 sharded benches prove is
        bit-identical to a standalone switch), falling back to the
        cluster-wide least-loaded NSM only when the home shard has no
        qualifying NSM.  Quarantined/deregistered NSMs never qualify,
        on either path."""
        if self._find_vm(vm_id) is None:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        candidates = self._active_nsm_ids()
        home = self._vm_home.get(vm_id)
        nsm_id = None
        if home is not None:
            local = [nid for nid in candidates
                     if self._nsm_home.get(nid) is home]
            nsm_id = self._least_loaded_nsm(among=local)
        if nsm_id is None:
            nsm_id = self._least_loaded_nsm(among=candidates)
        if nsm_id is None:
            raise ConfigurationError("no active NSM registered")
        self.vm_to_nsm[vm_id] = nsm_id
        self._orphaned_vms.discard(vm_id)
        return nsm_id

    def migrate_vm(self, vm_id: int, target_nsm_id: int, source_lib,
                   target_lib, **kwargs):
        home = self._vm_home.get(vm_id)
        if home is None:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        # The home shard owns the VM's ring consumer end, so the drain
        # and resume steps must run there.
        return home.migrate_vm(vm_id, target_nsm_id, source_lib,
                               target_lib, **kwargs)

    def quarantine_nsm(self, nsm_id: int,
                       reason: str = "failure-detected") -> List[int]:
        home = self._nsm_home.get(nsm_id)
        if home is None:
            return []
        return home.quarantine_nsm(nsm_id, reason=reason)

    # -- health monitoring ----------------------------------------------------

    def enable_health_monitor(self, heartbeat_interval: float = 1e-3,
                              detection_timeout: float = 5e-3) -> None:
        for shard in self.shards:
            shard.enable_health_monitor(
                heartbeat_interval=heartbeat_interval,
                detection_timeout=detection_timeout)

    def disable_health_monitor(self) -> None:
        for shard in self.shards:
            shard.disable_health_monitor()

    @property
    def quarantined(self) -> Dict[int, str]:
        merged: Dict[int, str] = {}
        for shard in self.shards:
            merged.update(shard.quarantined)
        return merged

    # -- devices & isolation ---------------------------------------------------

    def vm_device(self, vm_id: int) -> NKDevice:
        return self._vm_home[vm_id]._vms[vm_id].device

    def nsm_device(self, nsm_id: int) -> NKDevice:
        return self._nsm_home[nsm_id]._nsms[nsm_id].device

    def set_bandwidth_limit(self, vm_id: int, bits_per_sec: float,
                            burst_bits: Optional[float] = None) -> None:
        self.shards[0].set_bandwidth_limit(vm_id, bits_per_sec,
                                           burst_bits=burst_bits)

    def clear_bandwidth_limit(self, vm_id: int) -> None:
        self.shards[0].clear_bandwidth_limit(vm_id)

    def set_ops_limit(self, vm_id: int, nqes_per_sec: float) -> None:
        self.shards[0].set_ops_limit(vm_id, nqes_per_sec)

    def isolation_state(self) -> dict:
        return self.shards[0].isolation_state()

    # -- overload control ------------------------------------------------------

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

    def set_vm_weight(self, vm_id: int, weight: float) -> None:
        """Propagate a VM's admission weight to every shard governor."""
        for shard in self.shards:
            if shard.overload is not None:
                shard.overload.set_vm_weight(vm_id, weight)

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

    # -- loop control ----------------------------------------------------------

    def kick(self, device: Optional[NKDevice] = None) -> None:
        if device is not None:
            reg = device.ce_registration
            engine = reg.engine if reg is not None and reg.engine is not None \
                else self.shards[0]
            engine.kick(device)
            return
        for shard in self.shards:
            shard.kick(None)

    def stop(self) -> None:
        for shard in self.shards:
            shard.stop()

    # -- shared/propagated attributes ------------------------------------------

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
        if name in _SUMMED_COUNTERS:
            shards = self.__dict__.get("shards") or ()
            return sum(getattr(shard, name) for shard in shards)
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute {name!r}")

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        per_shard = [shard.stats() for shard in self.shards]
        out: Dict[str, object] = {
            "shards": len(self.shards),
            "connections": len(self.table),
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
