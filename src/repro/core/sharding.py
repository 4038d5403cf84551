"""The host's NQE switch: one control plane over one or more CoreEngine
shards.

ROADMAP names the single CoreEngine as the scaling boundary: one
switching loop serves every queue set on the host, so past a few
thousand devices the switch itself is the bottleneck, not the NSMs.
Every host therefore runs its switch as a cluster of ``ce_shards >= 1``
shards.  Each shard is a :class:`CoreEngine` switching loop (its own
core, ready set, dirty heap, doorbell, health monitor, overload
governor and counters) over the devices homed on it; a one-shard
switch is exactly the paper's single CoreEngine.

One control plane
-----------------

:class:`ShardedCoreEngine` is the paper's CoreEngine control plane
(§4.3–4.4) and the only way to build a switch.  It owns the directory
as plain attributes of its own: one id space, one id → registration
lookup per role, one ConnectionTable, one VM→NSM map, one set of
isolation limits and hugepage regions, one health verdict per NSM, and
the settings shared by every shard (``obs``, ``faults``,
``deliver_stall_budget``, ``ring_slots``).  Shards read all of it
through their ``switch`` back-reference.  A registration's ``engine``
is the one record of where its device lives, so every control method
here — assign, deregister, migrate, quarantine — runs the steps that
belong at a device's home (ring reclaim and drains, pushes into its
rings, core charges, counters) on that device's shard.

Cross-shard handoff
-------------------

Rings are strict SPSC (repro.mem.ring): each end is claimed by exactly
one party, and for every device's consume rings that party is the
device's *home shard*.  A shard switching an NQE whose destination
device is homed elsewhere therefore cannot push it directly — it hands
the (ring, NQE, device) triple to the destination shard's inbox, a FIFO
``deque``, and rings that shard's doorbell.  The destination drains its
inbox at the top of its next switching pass, using the stock delivery
path (fault hooks, backpressure budget and liveness checks all apply
exactly once, on the destination side).  Only shards with peers have an
inbox, so a one-shard switch pays nothing per NQE for any of this.

Determinism
-----------

When the partition is traffic-closed — every VM homed with its serving
NSM, as shard-aware auto-placement arranges — a shard's simulated
timeline is independent of every other shard's, and its counters are
bit-identical to a standalone one-shard run of the same population.
``tests/test_sharding.py::TestShardDeterminism`` asserts exactly that.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.conn_table import ConnectionTable
from repro.core.coreengine import CoreEngine, TokenBucket, _Registration
from repro.core.nk_device import NKDevice
from repro.core.nqe import NQE_POOL, NqeOp, RESULT_ERRNO
from repro.core.queues import DEFAULT_RING_SLOTS
from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError
from repro.mem.hugepages import HugepageRegion


class ShardedCoreEngine:
    """The host's switch: the control plane over N >= 1 CoreEngine shards.

    Devices are placed round-robin per role (or pinned with ``shard=``).
    Per-shard machinery — switching loops, health monitors, overload
    governors — is driven on every shard here; counters stay on the
    shards and :meth:`stats` sums them.
    """

    def __init__(self, sim, cores: List[Core],
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 batch_size: int = 4, ring_slots: int = DEFAULT_RING_SLOTS):
        if not cores:
            raise ConfigurationError("need at least one shard core")
        self.sim = sim
        self.cost = cost_model
        #: Ring slots of every NK device registered from now on.
        self.ring_slots = ring_slots
        # Delivery backpressure: how long a shard may stall on a full
        # destination ring before dropping the NQE.  Generous by default
        # (live consumers drain rings in microseconds); a budget-length
        # stall means the consumer is gone or wedged.
        self.deliver_stall_budget = 10e-3
        # Observability (repro.obs) and fault injection (repro.faults);
        # None means off, and the datapath pays only the attribute check.
        self.obs = None
        self.faults = None

        # The directory.
        self._ids = itertools.count(1)
        self._vms: Dict[int, _Registration] = {}
        self._nsms: Dict[int, _Registration] = {}
        self.table = ConnectionTable()
        self.vm_to_nsm: Dict[int, int] = {}
        # VMs whose serving NSM was deregistered with no standby to take
        # over: their ops fail fast instead of raising (a VM that never
        # had an assignment is a configuration error; this is not).
        self._orphaned_vms: set = set()
        #: (vm_id, NSM socket id) of each connection carried to a VM in
        #: an ACCEPT_EVENT and not attached yet: the only NSM sockets a
        #: guest ACCEPT_ATTACH, on a tuple new to the table, may name.
        #: Withdrawn on attach, when the listener's close reaps the
        #: child, and when the VM or the NSM serving it leaves.
        self.accept_offers: set = set()
        # Isolation limits (§4.4).
        self._bw_limits: Dict[int, TokenBucket] = {}
        self._op_limits: Dict[int, TokenBucket] = {}
        # Hugepage regions by VM id, retained after deregistration so
        # in-flight NQEs for a vanished VM can still free their payloads.
        self._vm_regions: Dict[int, HugepageRegion] = {}
        #: nsm_id -> sim time of the last HEARTBEAT_ACK (or of first probe).
        self._last_ack: Dict[int, float] = {}
        #: reason strings by quarantined NSM id.
        self.quarantined: Dict[int, str] = {}
        #: Completed live-migration records, in order.
        self.migrations: List[dict] = []
        #: Called as fn(vm_id, dead_nsm_id, standby_nsm_id) after a VM is
        #: rebound, so the host can attach hugepage regions to the standby.
        self.failover_listeners: List[Callable[[int, int, int], None]] = []

        self.shards: List[CoreEngine] = [
            CoreEngine(self, core, index, batch_size=batch_size)
            for index, core in enumerate(cores)
        ]
        if len(self.shards) > 1:
            for shard in self.shards:
                shard._inbound = deque()
        self._rr_vm = itertools.count()
        self._rr_nsm = itertools.count()

    # -- registration and placement ----------------------------------------------

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

    def _fresh_id(self) -> int:
        """The next device id.  A recycled id must not inherit the
        previous owner's health verdict: a stale _last_ack would let the
        monitor insta-quarantine a fresh NSM, and a stale quarantined
        entry would misreport it as dead."""
        numeric_id = next(self._ids)
        self._last_ack.pop(numeric_id, None)
        self.quarantined.pop(numeric_id, None)
        return numeric_id

    def register_vm(self, owner_id: str, queue_sets: int,
                    hugepages: Optional[HugepageRegion] = None,
                    poll_window_sec: Optional[float] = None,
                    shard: Optional[int] = None) -> Tuple[int, NKDevice]:
        """Allocate an NK device for a starting VM (§4.4), homed on
        ``shard`` (round-robin by default); returns (id, device)."""
        reg = self._pick_shard(self._rr_vm, shard).register_vm(
            self._fresh_id(), owner_id, queue_sets, hugepages,
            poll_window_sec)
        self._vms[reg.numeric_id] = reg
        self._vm_regions[reg.numeric_id] = reg.device.hugepages
        return reg.numeric_id, reg.device

    def register_nsm(self, owner_id: str, queue_sets: int,
                     hugepages: Optional[HugepageRegion] = None,
                     poll_window_sec: Optional[float] = None,
                     shard: Optional[int] = None) -> Tuple[int, NKDevice]:
        """Allocate an NK device for a starting NSM (§4.4), homed on
        ``shard`` (round-robin by default); returns (id, device)."""
        reg = self._pick_shard(self._rr_nsm, shard).register_nsm(
            self._fresh_id(), owner_id, queue_sets, hugepages,
            poll_window_sec)
        self._nsms[reg.numeric_id] = reg
        return reg.numeric_id, reg.device

    def deregister(self, numeric_id: int) -> None:
        """Release a VM's or NSM's NK device (shutdown path).

        In-flight NQEs still sitting in the departing device's rings are
        reclaimed at its home shard: payloads freed, elements returned to
        the pool.  For an NSM they fail fast toward the VMs they belong
        to (the VMs outlive the NSM and must learn their connections
        died); for a VM they are silently dropped (nobody is left to
        notify).  An unknown id is a no-op, charged to shard 0.
        """
        reg = self._vms.get(numeric_id) or self._nsms.get(numeric_id)
        home = self.shards[0] if reg is None else reg.engine
        home.core.charge(self.cost.ce_device_setup, "ce.device_teardown")
        if reg is None:
            return
        reg.active = False  # ready-heap entries are skipped lazily
        if numeric_id in self._vms:
            del self._vms[numeric_id]
            self._withdraw_offers(lambda vm_id: vm_id == numeric_id)
            for entry in self.table.entries_for_vm(numeric_id):
                self.table.remove_vm(entry.vm_tuple)
            self.vm_to_nsm.pop(numeric_id, None)
            self._orphaned_vms.discard(numeric_id)
            home._reclaim_device(reg, fail_fast=False)
            return
        del self._nsms[numeric_id]
        # Per-NSM health state dies with the registration; leaving it
        # would poison a later registration that recycles this id.
        self._last_ack.pop(numeric_id, None)
        self.quarantined.pop(numeric_id, None)
        home._reclaim_device(reg, fail_fast=True)
        self._reset_connections(home, numeric_id, "nsm-deregistered")
        self._withdraw_offers(
            lambda vm_id: self.vm_to_nsm.get(vm_id) == numeric_id)
        for vm_id, assigned in list(self.vm_to_nsm.items()):
            if assigned == numeric_id:
                del self.vm_to_nsm[vm_id]
                self._orphaned_vms.add(vm_id)

    def _withdraw_offers(self, of_vm: Callable[[int], bool]) -> None:
        """Drop the accept offers made to every VM ``of_vm`` selects."""
        self.accept_offers = {offer for offer in self.accept_offers
                              if not of_vm(offer[0])}

    def _reset_connections(self, home: CoreEngine, nsm_id: int,
                           reason: str) -> int:
        """Remove every table entry served by ``nsm_id`` and send its
        socket an ERROR_EVENT(ECONNRESET); returns how many."""
        entries = self.table.entries_for_nsm(nsm_id)
        for entry in entries:
            vm_id, vm_qset, vm_sock = entry.vm_tuple
            self.table.remove_vm(entry.vm_tuple)
            error = NQE_POOL.acquire(
                NqeOp.ERROR_EVENT, vm_id, vm_qset, vm_sock,
                op_data=-RESULT_ERRNO["ECONNRESET"],
                aux={"reason": reason}, created_at=self.sim.now)
            home._push_to_vm(error, event=True)
        return len(entries)

    def shard_of_vm(self, vm_id: int) -> int:
        """The index of the shard a VM's device is homed on."""
        reg = self._vms.get(vm_id)
        if reg is None:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        return reg.engine.shard_index

    def shard_of_nsm(self, nsm_id: int) -> int:
        """The index of the shard an NSM's device is homed on."""
        reg = self._nsms.get(nsm_id)
        if reg is None:
            raise ConfigurationError(f"unknown NSM id {nsm_id}")
        return reg.engine.shard_index

    def vm_device(self, vm_id: int) -> NKDevice:
        """The NK device registered for a VM id."""
        return self._vms[vm_id].device

    def nsm_device(self, nsm_id: int) -> NKDevice:
        """The NK device registered for an NSM id."""
        return self._nsms[nsm_id].device

    # -- VM -> NSM assignment ------------------------------------------------------

    def nsm_active(self, nsm_id: int) -> bool:
        """Whether ``nsm_id`` is registered, active and not quarantined."""
        reg = self._nsms.get(nsm_id)
        return (reg is not None and reg.active
                and nsm_id not in self.quarantined)

    def assign_vm(self, vm_id: int, nsm_id: int) -> None:
        """Bind a VM to the in-service NSM that will serve it (user
        choice or LB)."""
        if vm_id not in self._vms:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        if not self.nsm_active(nsm_id):
            raise ConfigurationError(
                f"NSM {nsm_id} is unknown or out of service")
        self.vm_to_nsm[vm_id] = nsm_id
        self._orphaned_vms.discard(vm_id)

    def assign_vm_auto(self, vm_id: int) -> int:
        """Assign a VM to the least-loaded *active* NSM and return its id.

        The paper leaves the VM→NSM mapping to "the users offline or some
        load balancing scheme dynamically by CoreEngine" (§4.3 fn. 1);
        this is the dynamic option, balancing by live connection count.
        Quarantined and deregistered NSMs are never candidates — a
        just-quarantined NSM has zero table entries and would otherwise
        always look least-loaded.

        An NSM homed on the VM's own shard is preferred, so the VM's
        requests never cross a shard boundary (the traffic-closed layout
        the sharded determinism tests prove bit-identical to a one-shard
        switch); the switch-wide least-loaded NSM is the fallback.
        """
        vm_reg = self._vms.get(vm_id)
        if vm_reg is None:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        candidates = self._active_nsm_ids()
        home = vm_reg.engine
        nsm_id = self._least_loaded_nsm(
            among=[nid for nid in candidates
                   if self._nsms[nid].engine is home])
        if nsm_id is None:
            nsm_id = self._least_loaded_nsm(among=candidates)
        if nsm_id is None:
            raise ConfigurationError("no active NSM registered")
        self.vm_to_nsm[vm_id] = nsm_id
        self._orphaned_vms.discard(vm_id)
        return nsm_id

    def _active_nsm_ids(self, exclude: Optional[int] = None) -> List[int]:
        """Ids of in-service NSMs on every shard — the one candidate
        list for placement and failover.  A recorded quarantine
        disqualifies an NSM even if its registration flag is out of
        step."""
        quarantined = self.quarantined
        return [nid for nid, reg in self._nsms.items()
                if reg.active and nid != exclude
                and nid not in quarantined]

    def _least_loaded_nsm(self, exclude: Optional[int] = None,
                          among: Optional[List[int]] = None) -> Optional[int]:
        """The active NSM other than ``exclude`` with the fewest live
        connections, or None — a failover standby, a drain target, or
        (restricted to ``among`` by assign_vm_auto) a same-shard
        placement.  O(active NSMs): the table keeps per-NSM counts
        incrementally, so this never walks the connection population."""
        candidates = among if among is not None \
            else self._active_nsm_ids(exclude)
        if not candidates:
            return None
        loads = self.table.nsm_loads()
        return min(sorted(candidates), key=lambda nid: loads.get(nid, 0))

    # -- NSM failover (§8) ---------------------------------------------------------

    def quarantine_nsm(self, nsm_id: int,
                       reason: str = "failure-detected") -> List[int]:
        """Take a dead NSM out of service and fail its work fast (§8).

        Reclaims every NQE in the dead NSM's rings (requests fail fast as
        ECONNRESET results toward their VMs, stale events are dropped
        with payloads freed), resets each of its connection-table entries
        with an ERROR_EVENT(ECONNRESET) to the owning socket, and rebinds
        affected VMs to the least-loaded active standby NSM.  Returns the
        rebound VM ids (empty when no standby exists — the VMs keep their
        dead assignment and subsequent ops fail fast).
        """
        reg = self._nsms.get(nsm_id)
        if reg is None or not reg.active:
            return []
        home = reg.engine
        reg.active = False
        self.quarantined[nsm_id] = reason
        self._last_ack.pop(nsm_id, None)
        home.nsms_quarantined += 1
        home.core.charge(self.cost.ce_device_setup, "ce.quarantine")
        home._reclaim_device(reg, fail_fast=True)
        home.conns_reset_on_failover += self._reset_connections(
            home, nsm_id, reason)
        self._withdraw_offers(
            lambda vm_id: self.vm_to_nsm.get(vm_id) == nsm_id)
        standby = self._least_loaded_nsm(exclude=nsm_id)
        moved: List[int] = []
        if standby is not None:
            for vm_id, assigned in sorted(self.vm_to_nsm.items()):
                if assigned == nsm_id:
                    self.vm_to_nsm[vm_id] = standby
                    moved.append(vm_id)
            home.vms_failed_over += len(moved)
        for vm_id in moved:
            for listener in self.failover_listeners:
                listener(vm_id, nsm_id, standby)
        return moved

    def enable_health_monitor(self, heartbeat_interval: float = 1e-3,
                              detection_timeout: float = 5e-3) -> None:
        """Heartbeat every NSM from its home shard (see
        CoreEngine.enable_health_monitor)."""
        for shard in self.shards:
            shard.enable_health_monitor(
                heartbeat_interval=heartbeat_interval,
                detection_timeout=detection_timeout)

    def disable_health_monitor(self) -> None:
        """Stop heartbeating on every shard."""
        for shard in self.shards:
            shard.disable_health_monitor()

    # -- live migration (zero-reset stack upgrade) ---------------------------------

    def migrate_vm(self, vm_id: int, target_nsm_id: int, source_lib,
                   target_lib, blackout_base_sec: float = 50e-6,
                   blackout_per_conn_sec: float = 1e-6):
        """Move a VM's connections to another NSM without resetting them.

        A generator: run it as a sim process (or ``yield from`` it).  The
        protocol, in switch order:

        1. *Quiesce*: park the VM's device — its GuestLib keeps producing
           and blocking normally, but the switch stops consuming, so ops
           issued during the move simply wait.
        2. *Drain*: the VM's home shard sweeps the NQEs already produced
           (they route to the source NSM), then poll until the source NSM
           has consumed and finished every job/send NQE of this VM.
        3. *Export/import*: the source ServiceLib exports every socket
           context (TCBs, buffers, listen state, accept backlog travel
           live); after the modeled blackout the hugepage region is
           attached to the target and the contexts are imported there.
        4. *Rebind*: the connection table points the VM's entries at the
           target NSM; the VM→NSM assignment follows; the source unmaps
           the region.
        5. *Resume*: unpark, doorbell the home shard (bypassing fault
           injection — resume is an operator action, not a guest MMIO
           write), and the parked ops flow to the target.

        On any failure the VM is unparked and resumed before the error
        propagates, so a botched migration degrades to the quarantine
        failover path instead of wedging the guest.
        """
        vm_reg = self._vms.get(vm_id)
        if vm_reg is None or not vm_reg.active:
            raise ConfigurationError(f"unknown or inactive VM id {vm_id}")
        if vm_reg.parked:
            raise ConfigurationError(f"VM {vm_id} is already migrating")
        source_nsm_id = self.vm_to_nsm.get(vm_id)
        if source_nsm_id is None:
            raise ConfigurationError(f"VM {vm_id} has no NSM assigned")
        if source_nsm_id == target_nsm_id:
            raise ConfigurationError(
                f"VM {vm_id} is already served by NSM {target_nsm_id}")
        target_reg = self._nsms.get(target_nsm_id)
        if target_reg is None or not target_reg.active:
            raise ConfigurationError(
                f"target NSM {target_nsm_id} is not active")
        source_reg = self._nsms.get(source_nsm_id)
        if source_reg is None or not source_reg.active:
            raise ConfigurationError(
                f"source NSM {source_nsm_id} is not active")

        home = vm_reg.engine
        started = self.sim.now
        vm_reg.parked = True
        try:
            yield from home._drain_vm_rings(vm_reg)
            yield from self._await_nsm_quiescent(source_reg, source_lib,
                                                 vm_id)
            blackout_started = self.sim.now
            exports = source_lib.export_vm_sockets(vm_id)
            blackout = (blackout_base_sec
                        + blackout_per_conn_sec * len(exports))
            yield self.sim.timeout(blackout)
            region = self._vm_regions.get(vm_id)
            if region is not None:
                target_lib.attach_vm_region(vm_id, region)
            target_lib.import_vm_sockets(vm_id, exports, source_lib.stack)
            n_qsets = target_reg.device.lane_count
            rebound = self.table.rebind_vm(
                vm_id, target_nsm_id,
                queue_set_for=lambda vt: hash(vt) % n_qsets)
            self.vm_to_nsm[vm_id] = target_nsm_id
            source_lib.detach_vm_region(vm_id)
        except BaseException:
            vm_reg.parked = False
            home._resume_device(vm_reg)
            raise
        device = vm_reg.device
        parked_ops = sum(len(ring) for qs in device.built_queue_sets
                         for ring in device.produce_rings(qs))
        vm_reg.parked = False
        home._resume_device(vm_reg)
        resumed = self.sim.now
        record = {
            "vm_id": vm_id,
            "source_nsm": source_nsm_id,
            "target_nsm": target_nsm_id,
            "sockets_moved": len(exports),
            "entries_rebound": rebound,
            "parked_ops": parked_ops,
            "started": round(started, 9),
            "blackout_started": round(blackout_started, 9),
            "resumed": round(resumed, 9),
            "blackout_sec": round(resumed - blackout_started, 9),
            "total_sec": round(resumed - started, 9),
            "tcbs": [record["tcb"] for record in exports],
        }
        home.vms_migrated += 1
        home.conns_migrated += len(exports)
        home.migration_parked_ops += parked_ops
        self.migrations.append(record)
        return record

    def _await_nsm_quiescent(self, source_reg: _Registration, source_lib,
                             vm_id: int):
        """Poll until the source NSM holds no unconsumed job/send NQE of
        the migrating VM and no handler is mid-flight.  Only the consume
        side matters: completion/receive rings oscillate under live
        inbound traffic, and export quiesces the callbacks that feed
        them."""
        device = source_reg.device
        while True:
            if source_lib.busy_handlers == 0:
                pending = any(
                    nqe is not None and nqe.vm_id == vm_id
                    for qs in device.built_queue_sets
                    for ring in device.consume_rings(qs)
                    for nqe in ring.snapshot())
                if not pending:
                    return
            yield self.sim.timeout(5e-6)

    # -- isolation (§4.4, Fig. 21) -------------------------------------------------

    def set_bandwidth_limit(self, vm_id: int, bits_per_sec: float,
                            burst_bits: Optional[float] = None) -> None:
        """Cap a VM's egress bandwidth through NetKernel (Fig. 21)."""
        self._bw_limits[vm_id] = TokenBucket(
            self.sim, bits_per_sec, burst_bits or bits_per_sec * 0.01)

    def set_ops_limit(self, vm_id: int, nqes_per_sec: float) -> None:
        """Cap a VM's NQE (operation) rate (§4.4)."""
        self._op_limits[vm_id] = TokenBucket(
            self.sim, nqes_per_sec, nqes_per_sec * 0.01)

    def isolation_state(self) -> dict:
        """Per-VM token-bucket fill levels (bw in bits, ops in NQEs)."""
        state: Dict[int, dict] = {}
        for kind, limits in (("bw", self._bw_limits),
                             ("ops", self._op_limits)):
            for vm_id, bucket in limits.items():
                bucket._refill()
                state.setdefault(vm_id, {})[kind] = {
                    "rate": bucket.rate,
                    "burst": bucket.burst,
                    "tokens": bucket.tokens,
                }
        return state

    # -- load view -----------------------------------------------------------------

    def shard_loads(self) -> Dict[int, dict]:
        """Per-shard placement/load view — the autoscaler's shard-scaling
        signal and the fleet snapshot's shard report: active NSM count,
        homed (live) VM count, and live connections served from each
        shard.  O(devices), using the table's incremental per-NSM
        counts, never the connection population."""
        loads = self.table.nsm_loads()
        out: Dict[int, dict] = {
            index: {"nsms": 0, "vms": 0, "connections": 0}
            for index in range(len(self.shards))}
        for nid in self._active_nsm_ids():
            row = out[self._nsms[nid].engine.shard_index]
            row["nsms"] += 1
            row["connections"] += loads.get(nid, 0)
        for reg in self._vms.values():
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

    # -- per-shard machinery -------------------------------------------------------

    def enable_overload_control(self):
        """Arm one overload governor per shard (each shard detects and
        governs over its own device population) and return shard 0's."""
        for shard in self.shards:
            shard.enable_overload_control()
        return self.shards[0].overload

    @property
    def overload(self):
        """Shard 0's governor (the representative for level checks);
        use :meth:`overload_governors` for the full per-shard list."""
        return self.shards[0].overload

    def overload_governors(self) -> list:
        """Every armed governor, one per shard, in shard order."""
        return [shard.overload for shard in self.shards
                if shard.overload is not None]

    def kick(self, device: Optional[NKDevice] = None) -> None:
        """Doorbell ``device``'s home shard, or every shard for None."""
        if device is not None:
            device.ce_registration.engine.kick(device)
            return
        for shard in self.shards:
            shard.kick(None)

    def ring_pending(self, device: Optional[NKDevice] = None) -> None:
        """Doorbell every registered device (or only ``device``) whose
        produce rings hold NQEs, on its home shard.  Like a migration's
        resume, never subject to injected doorbell loss: the fault
        injector calls it when a loss window closes, so NQEs whose only
        doorbell was dropped are serviced."""
        if device is not None:
            regs = [device.ce_registration]
        else:
            regs = [*self._vms.values(), *self._nsms.values()]
        for reg in regs:
            if (reg is not None and reg.active
                    and reg.device.produce_pending()):
                reg.engine._resume_device(reg)

    def stop(self) -> None:
        """Shut every shard's switching loop down."""
        for shard in self.shards:
            shard.stop()

    # -- introspection -------------------------------------------------------------

    @property
    def nqes_switched(self) -> int:
        """NQEs switched, summed over the shards."""
        return sum(shard.nqes_switched for shard in self.shards)

    @property
    def batches(self) -> int:
        """Switching batches, summed over the shards."""
        return sum(shard.batches for shard in self.shards)

    @property
    def handoffs_in(self) -> int:
        """NQEs handed between shards, summed over the receiving shards."""
        return sum(shard.handoffs_in for shard in self.shards)

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
