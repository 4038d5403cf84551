"""CoreEngine: the software switch and control plane (§4.3, §4.4).

CoreEngine consumes produced NQEs in batches, charges the calibrated
switching cost to its dedicated core, and copies each NQE into the proper
ring of the destination device:

* VM → NSM: job-queue ops to the NSM's job ring, send ops to its send
  ring.  The connection table maps ⟨VM id, queue set, socket id⟩ to the
  serving NSM and (by hash) one of its queue sets.
* NSM → VM: results to the VM's completion ring, events to its receive
  ring, addressed by the VM tuple the NSM copied into the response.

Isolation (§4.4, Fig. 21): round-robin polling gives basic fairness;
per-VM token buckets rate-limit bandwidth (bytes through send NQEs)
and/or operations (NQEs per second).  Egress only, as in the paper.

Scheduling (§4.3's interrupt-driven polling, applied to the switch
itself): doorbells carry the kicking device and the switch services only
a dirty set of ready devices, in a fixed pass order (see _run), so one
wake-up costs O(ready devices), not O(registered devices).

Failure handling (§8): an NSM is a new single point of failure, so the
switch doubles as the failure detector.  ``enable_health_monitor`` sends
HEARTBEAT NQEs through each NSM's job ring and expects HEARTBEAT_ACKs
back through the normal datapath — probing the exact path tenant NQEs
take, not a side channel.  An NSM silent past the detection timeout is
quarantined: its rings are reclaimed, in-flight NQEs fail fast as
ECONNRESET results/events toward their VMs, its connection-table entries
are removed, and affected VMs are rebound to the least-loaded standby
NSM (``failover_listeners`` lets the host re-attach hugepage regions).

Sharding (repro.core.sharding): a host's switch is a cluster of one or
more CoreEngine shards sharing one control plane (``_CLUSTER_STATE``).
Each device has one home shard, ``_Registration.engine``; a shard that
switches an NQE toward a device homed elsewhere hands it to that
shard's inbox.  A bare CoreEngine is a cluster of one.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.conn_table import ConnectionTable
from repro.core.nk_device import NKDevice, ROLE_NSM, ROLE_VM
from repro.core.nqe import NQE_POOL, Nqe, NqeOp, RESULT_ERRNO
from repro.core.queues import DEFAULT_RING_SLOTS
from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError
from repro.mem.hugepages import HugepageRegion
from repro.mem.ring import SpscRing
from repro.sim.event import Event


class TokenBucket:
    """Continuous-refill token bucket (tokens are bits or operations)."""

    def __init__(self, sim, rate_per_sec: float, burst: float):
        if rate_per_sec <= 0:
            raise ConfigurationError(f"rate must be positive: {rate_per_sec}")
        self.sim = sim
        self.rate = rate_per_sec
        self.burst = max(burst, rate_per_sec * 1e-3)
        self.tokens = self.burst
        self._last = sim.now

    def _refill(self) -> None:
        now = self.sim._now
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now

    def try_consume(self, amount: float) -> bool:
        self._refill()
        if amount > self.burst:
            # A single operation larger than the burst could never pass a
            # plain bucket.  Admit it once the bucket is full and run a
            # token deficit, so the average rate still holds — without
            # persisting a widened burst that would weaken the cap for
            # every later operation.
            if self.tokens >= self.burst:
                self.tokens -= amount
                return True
            return False
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False

    def time_until(self, amount: float) -> float:
        """Seconds until ``amount`` tokens will be available."""
        self._refill()
        # Oversized requests are admitted at a full bucket (see
        # try_consume), so they wait for ``burst`` tokens, not ``amount``.
        deficit = min(amount, self.burst) - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate

    def refund(self, amount: float) -> None:
        """Return tokens for an operation that was not admitted after all,
        never pushing the level above the configured burst."""
        self.tokens = min(self.burst, self.tokens + amount)


#: _Registration.state values.
_IDLE, _READY = 0, 1

#: NSM-egress ops that land on the VM's *receive* (event) ring; every
#: other NSM-egress op is a result on the completion ring.  A frozenset
#: membership test beats a tuple scan at per-NQE rates.
_EVENT_OPS = frozenset((NqeOp.DATA_ARRIVED, NqeOp.ACCEPT_EVENT,
                        NqeOp.CONNECTED_EVENT, NqeOp.PEER_CLOSED,
                        NqeOp.ERROR_EVENT))

#: VM→NSM control requests that carry a waiter token; failing one fast
#: synthesizes an OP_RESULT(ECONNRESET) so the blocked caller unblocks.
_TOKENED_REQUESTS = frozenset((
    NqeOp.SOCKET, NqeOp.BIND, NqeOp.LISTEN, NqeOp.CONNECT,
    NqeOp.SETSOCKOPT, NqeOp.GETSOCKOPT, NqeOp.SHUTDOWN, NqeOp.CLOSE,
))


class _Registration:
    __slots__ = ("numeric_id", "device", "key", "state", "birth_pass",
                 "active", "parked", "engine")

    def __init__(self, numeric_id: int, device: NKDevice,
                 key: Tuple[int, int], birth_pass: int,
                 engine: "CoreEngine"):
        self.numeric_id = numeric_id
        self.device = device
        #: (role rank, numeric id): the pass visiting order (VMs before
        #: NSMs, each by id), used as the ready-heap priority.
        self.key = key
        self.state = _IDLE
        #: Pass number at registration: a device registered mid-pass is
        #: deferred to the next pass.
        self.birth_pass = birth_pass
        self.active = True
        #: Live migration: a parked device's produced NQEs wait in its
        #: rings (ops park, they do not fail) until the move completes.
        self.parked = False
        #: The switch servicing this device: its home shard, the one
        #: record of where the device lives.
        self.engine = engine


#: Control-plane state every shard of a cluster shares by reference: one
#: id space, one id -> registration lookup per role, one connection
#: table and VM->NSM map, one set of isolation limits and hugepage
#: regions, one health verdict per NSM.
_CLUSTER_STATE = ("_ids", "_vms", "_nsms", "table", "vm_to_nsm",
                  "_orphaned_vms", "_bw_limits", "_op_limits",
                  "_vm_regions", "_last_ack", "quarantined", "migrations",
                  "failover_listeners")

#: Handoff triples drained per scratch refill (a multiple of 3: the
#: inbox ring stores flattened ring/nqe/device slots).
_HANDOFF_DRAIN = 96


class _HandoffInbox:
    """Cross-shard handoff inbox: a slab-backed ring of flattened
    (ring, nqe, device) triples, with an unbounded spill deque behind it.

    The simulator is single-threaded, so the producing end is logically
    "any peer shard mid-pass" and the consuming end is the home shard's
    pass top: the SPSC claim discipline is deliberately bypassed
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


class CoreEngine:
    """The NQE switch; runs as a simulation process on a dedicated core."""

    def __init__(self, sim, core: Core,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 batch_size: int = 4, ring_slots: int = DEFAULT_RING_SLOTS):
        if batch_size < 1:
            raise ConfigurationError(f"batch size must be >=1: {batch_size}")
        self.sim = sim
        self.core = core
        self.cost = cost_model
        self.batch_size = batch_size
        self.ring_slots = ring_slots
        #: Reusable drain scratch: grown once to batch_size, reread
        #: every pass, never reallocated.
        self._scratch: List[Nqe] = []

        self.table = ConnectionTable()
        self._vms: Dict[int, _Registration] = {}
        self._nsms: Dict[int, _Registration] = {}
        self._ids = itertools.count(1)
        self.vm_to_nsm: Dict[int, int] = {}
        # VMs whose serving NSM was deregistered with no standby to take
        # over: their ops fail fast instead of raising (a VM that never
        # had an assignment is a configuration error; this is not).
        self._orphaned_vms: set = set()

        # Isolation state.
        self._bw_limits: Dict[int, TokenBucket] = {}
        self._op_limits: Dict[int, TokenBucket] = {}

        # Hugepage regions by VM id, retained after deregistration so
        # in-flight NQEs for a vanished VM can still free their payloads.
        self._vm_regions: Dict[int, HugepageRegion] = {}

        # Ready-set scheduler state.  Two heaps give each pass its
        # order: _current_pass holds devices to service this pass in key
        # order, _next_pass collects devices that became ready at or
        # behind the scan position.
        self._current_pass: List[Tuple[Tuple[int, int], _Registration]] = []
        self._next_pass: List[Tuple[Tuple[int, int], _Registration]] = []
        self._pass_pos: Optional[Tuple[int, int]] = None
        self._pass_counter = 0
        self._in_pass = False

        # Delivery backpressure: how long _deliver may stall on a full
        # destination ring before dropping the NQE.  Generous by default
        # (live consumers drain rings in microseconds); a budget-length
        # stall means the consumer is gone or wedged.
        self.deliver_stall_budget = 10e-3

        # NSM health monitoring / failover state (off until
        # enable_health_monitor()).
        self.heartbeat_interval = 1e-3
        self.detection_timeout = 5e-3
        self._health_process = None
        self._health_enabled = False
        #: nsm_id -> sim time of the last HEARTBEAT_ACK (or of first probe).
        self._last_ack: Dict[int, float] = {}
        #: reason strings by quarantined NSM id.
        self.quarantined: Dict[int, str] = {}
        #: Called as fn(vm_id, dead_nsm_id, standby_nsm_id) after a VM is
        #: rebound, so the host can attach hugepage regions to the standby.
        self.failover_listeners: List[Callable[[int, int, int], None]] = []

        # Fault injection (repro.faults); None means no faults and the
        # hot path pays only the attribute check.
        self.faults = None

        # Overload control (repro.core.overload); None means overload
        # control is disabled and the datapath pays only the attribute
        # check.  Enabled via enable_overload_control().
        self.overload = None

        # Live-migration state (§8's transparent-upgrade counterpart):
        # completed migration records, in order.
        self.migrations: List[dict] = []

        # Cluster membership (repro.core.sharding): this engine's shard
        # index, and the inbox peer shards hand NQEs for devices homed
        # here to.  None until the engine joins a cluster with peers.
        self.shard_index = 0
        self._inbound: Optional[_HandoffInbox] = None
        self.handoffs_in = 0
        self.handoffs_out = 0

        # Statistics.
        self.nqes_switched = 0
        self.batches = 0
        self.vms_migrated = 0
        self.conns_migrated = 0
        self.migration_parked_ops = 0
        self.rate_limited_stalls = 0
        self.nqes_dropped = 0
        self.nqes_dropped_backpressure = 0
        self.nqes_failed_fast = 0
        #: NQEs failed fast with -EAGAIN by the overload shed backstop.
        self.nqes_shed = 0
        # Per-VM drop attribution (ISSUE 9): the host-global counters
        # above answer "how much was lost", these answer "whose".  Keyed
        # by the NQE's vm_id in either direction, so a tenant's losses
        # are attributable through obs and GET /fleet.
        self.vm_dropped: Dict[int, int] = {}
        self.vm_dropped_backpressure: Dict[int, int] = {}
        self.vm_shed: Dict[int, int] = {}
        self.heartbeats_sent = 0
        self.heartbeat_acks = 0
        self.nsms_quarantined = 0
        self.vms_failed_over = 0
        self.conns_reset_on_failover = 0
        #: Stall timeouts disarmed because the doorbell won the any_of
        #: race (each one used to linger in the event heap as a no-op).
        self.stale_wakeups = 0

        # Observability (repro.obs); None means tracing is disabled and
        # the hot path pays nothing beyond the attribute check.
        self.obs = None

        #: Doorbell state.  ``_kicked`` is the lost-doorbell guard: set by
        #: every kick, cleared at the top of each pass, checked before
        #: sleeping.  ``_doorbell_waiter`` exists only while the loop is
        #: asleep; a kick landing while the switch is awake just sets the
        #: flag and queues *no* event (the old always-an-Event doorbell
        #: processed one ghost event per mid-pass kick).
        self._kicked = False
        self._doorbell_waiter: Optional[object] = None
        self._running = True
        self._process = sim.process(self._run())

    # ------------------------------------------------------------- control --

    def register_vm(self, owner_id: str, queue_sets: int,
                    hugepages: Optional[HugepageRegion] = None,
                    poll_window_sec: Optional[float] = None) -> Tuple[int, NKDevice]:
        """Allocate an NK device for a starting VM (§4.4)."""
        return self._register(owner_id, ROLE_VM, queue_sets, hugepages,
                              poll_window_sec)

    def register_nsm(self, owner_id: str, queue_sets: int,
                     hugepages: Optional[HugepageRegion] = None,
                     poll_window_sec: Optional[float] = None) -> Tuple[int, NKDevice]:
        """Allocate an NK device for a starting NSM (§4.4)."""
        return self._register(owner_id, ROLE_NSM, queue_sets, hugepages,
                              poll_window_sec)

    def _register(self, owner_id: str, role: str, queue_sets: int,
                  hugepages: Optional[HugepageRegion],
                  poll_window_sec: Optional[float]) -> Tuple[int, NKDevice]:
        numeric_id = next(self._ids)
        # A recycled numeric id must not inherit the previous owner's
        # health verdict: a stale _last_ack would let the monitor
        # insta-quarantine a fresh NSM, and a stale quarantined entry
        # would misreport it as dead.
        self._last_ack.pop(numeric_id, None)
        self.quarantined.pop(numeric_id, None)
        hugepages = hugepages or HugepageRegion(name=f"{owner_id}.hp")
        kwargs = {}
        if poll_window_sec is not None:
            kwargs["poll_window_sec"] = poll_window_sec
        device = NKDevice(self.sim, owner_id, role, queue_sets, hugepages,
                          ring_slots=self.ring_slots, **kwargs)
        device.doorbell = self.kick
        self.core.charge(self.cost.ce_device_setup, "ce.device_setup")
        registry = self._vms if role == ROLE_VM else self._nsms
        key = (0 if role == ROLE_VM else 1, numeric_id)
        reg = _Registration(numeric_id, device, key, self._pass_counter,
                            self)
        registry[numeric_id] = reg
        device.ce_registration = reg
        if role == ROLE_VM:
            self._vm_regions[numeric_id] = hugepages
        return numeric_id, device

    def deregister(self, numeric_id: int) -> None:
        """Release a VM's or NSM's NK device (shutdown path).

        In-flight NQEs still sitting in the departing device's rings are
        reclaimed here: payloads freed, elements returned to the pool.
        For an NSM they fail fast toward the VMs they belong to (the VMs
        outlive the NSM and must learn their connections died); for a VM
        they are silently dropped (nobody is left to notify).  A device
        homed on another shard is deregistered by that shard; an unknown
        id is a no-op (guests reach this through the control ring).
        """
        reg = self._vms.get(numeric_id) or self._nsms.get(numeric_id)
        if reg is not None and reg.engine is not self:
            reg.engine.deregister(numeric_id)
            return
        self.core.charge(self.cost.ce_device_setup, "ce.device_teardown")
        if numeric_id in self._vms:
            reg = self._vms.pop(numeric_id)
            # Ready-heap entries for this device are skipped lazily.
            reg.active = False
            for entry in self.table.entries_for_vm(numeric_id):
                self.table.remove_vm(entry.vm_tuple)
            self.vm_to_nsm.pop(numeric_id, None)
            self._orphaned_vms.discard(numeric_id)
            self._reclaim_device(reg, fail_fast=False)
            return
        reg = self._nsms.pop(numeric_id, None)
        if reg is None:
            return
        reg.active = False
        # Per-NSM health state dies with the registration; leaving it
        # would poison a later registration that recycles this id.
        self._last_ack.pop(numeric_id, None)
        self.quarantined.pop(numeric_id, None)
        self._reclaim_device(reg, fail_fast=True)
        for entry in self.table.entries_for_nsm(numeric_id):
            vm_id, vm_qset, vm_sock = entry.vm_tuple
            self.table.remove_vm(entry.vm_tuple)
            error = NQE_POOL.acquire(
                NqeOp.ERROR_EVENT, vm_id, vm_qset, vm_sock,
                op_data=-RESULT_ERRNO["ECONNRESET"],
                aux={"reason": "nsm-deregistered"}, created_at=self.sim.now)
            self._push_to_vm(error, event=True)
        for vm_id, assigned in list(self.vm_to_nsm.items()):
            if assigned == numeric_id:
                del self.vm_to_nsm[vm_id]
                self._orphaned_vms.add(vm_id)

    def assign_vm(self, vm_id: int, nsm_id: int) -> None:
        """Bind a VM to the NSM that will serve it (user choice or LB)."""
        if self._vm_registration(vm_id) is None:
            raise ConfigurationError(f"unknown VM id {vm_id}")
        if self._nsm_registration(nsm_id) is None:
            raise ConfigurationError(f"unknown NSM id {nsm_id}")
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

        On a sharded switch an NSM homed on the VM's own shard is
        preferred, so the VM's requests never cross a shard boundary
        (the traffic-closed layout the fig08 sharded benches prove
        bit-identical to a standalone switch); the cluster-wide
        least-loaded NSM is the fallback.
        """
        vm_reg = self._vm_registration(vm_id)
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
        """Ids of in-service NSMs cluster-wide — the one candidate list
        both assign_vm_auto and _pick_standby draw from.  A recorded
        quarantine disqualifies an NSM even if its registration flag is
        out of step."""
        quarantined = self.quarantined
        return [nid for nid, reg in self._nsms.items()
                if reg.active and nid != exclude
                and nid not in quarantined]

    def _least_loaded_nsm(self, exclude: Optional[int] = None,
                          among: Optional[List[int]] = None) -> Optional[int]:
        """The active NSM with the fewest live connections, or None.
        ``among`` restricts the candidate pool (assign_vm_auto uses it
        for same-shard placement preference).  O(active NSMs): the
        table keeps per-NSM counts incrementally, so this never walks
        the connection population."""
        candidates = among if among is not None \
            else self._active_nsm_ids(exclude)
        if not candidates:
            return None
        loads = self.table.nsm_loads()
        return min(sorted(candidates), key=lambda nid: loads.get(nid, 0))

    # -- NSM health & failover (§8) ------------------------------------------

    def enable_health_monitor(self, heartbeat_interval: float = 1e-3,
                              detection_timeout: float = 5e-3) -> None:
        """Start probing NSM liveness with heartbeat NQEs.

        Every ``heartbeat_interval`` the monitor pushes a HEARTBEAT into
        each active NSM's job ring; ServiceLib answers through its
        completion ring.  An NSM whose last ack is older than
        ``detection_timeout`` is quarantined (see quarantine_nsm).  Off
        by default so un-monitored timelines are byte-identical to
        earlier builds.
        """
        if detection_timeout <= heartbeat_interval:
            raise ConfigurationError(
                f"detection timeout ({detection_timeout}) must exceed the "
                f"heartbeat interval ({heartbeat_interval})")
        self.heartbeat_interval = heartbeat_interval
        self.detection_timeout = detection_timeout
        self._health_enabled = True
        if self._health_process is None:
            self._health_process = self.sim.process(self._health_loop())

    def disable_health_monitor(self) -> None:
        """Stop probing (the loop exits at its next tick)."""
        self._health_enabled = False

    def _health_loop(self):
        while self._running and self._health_enabled:
            now = self.sim.now
            for nsm_id in sorted(self._nsms):
                reg = self._nsms[nsm_id]
                if not reg.active or reg.engine is not self:
                    continue
                last = self._last_ack.setdefault(nsm_id, now)
                if now - last >= self.detection_timeout:
                    self.quarantine_nsm(nsm_id, reason="heartbeat-timeout")
                    continue
                probe = NQE_POOL.acquire(NqeOp.HEARTBEAT, 0, 0, 0,
                                         created_at=now)
                control_ring, _ = reg.device.consume_rings(
                    reg.device.queue_sets[0])
                if control_ring.try_push(probe, owner=self):
                    self.heartbeats_sent += 1
                    reg.device.wake()
                else:
                    # Job ring jammed: the silence itself will trip the
                    # detection timeout; don't leak the probe.
                    NQE_POOL.release(probe)
            yield self.sim.timeout(self.heartbeat_interval)
        self._health_process = None

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
        if reg.engine is not self:
            return reg.engine.quarantine_nsm(nsm_id, reason=reason)
        reg.active = False
        self.quarantined[nsm_id] = reason
        self._last_ack.pop(nsm_id, None)
        self.nsms_quarantined += 1
        self.core.charge(self.cost.ce_device_setup, "ce.quarantine")
        self._reclaim_device(reg, fail_fast=True)
        now = self.sim.now
        for entry in self.table.entries_for_nsm(nsm_id):
            vm_id, vm_qset, vm_sock = entry.vm_tuple
            self.table.remove_vm(entry.vm_tuple)
            self.conns_reset_on_failover += 1
            error = NQE_POOL.acquire(
                NqeOp.ERROR_EVENT, vm_id, vm_qset, vm_sock,
                op_data=-RESULT_ERRNO["ECONNRESET"],
                aux={"reason": reason}, created_at=now)
            self._push_to_vm(error, event=True)
        standby = self._pick_standby(exclude=nsm_id)
        moved: List[int] = []
        if standby is not None:
            for vm_id, assigned in sorted(self.vm_to_nsm.items()):
                if assigned == nsm_id:
                    self.vm_to_nsm[vm_id] = standby
                    moved.append(vm_id)
            self.vms_failed_over += len(moved)
        if self.obs is not None:
            self.obs.on_nsm_quarantined(nsm_id, reason, len(moved))
        for vm_id in moved:
            for listener in self.failover_listeners:
                listener(vm_id, nsm_id, standby)
        return moved

    # -- live migration (zero-reset stack upgrade) ----------------------------

    def migrate_vm(self, vm_id: int, target_nsm_id: int, source_lib,
                   target_lib, blackout_base_sec: float = 50e-6,
                   blackout_per_conn_sec: float = 1e-6):
        """Move a VM's connections to another NSM without resetting them.

        A generator: run it as a sim process (or ``yield from`` it).  The
        protocol, in switch order:

        1. *Quiesce*: park the VM's device — its GuestLib keeps producing
           and blocking normally, but the switch stops consuming, so ops
           issued during the move simply wait.
        2. *Drain*: sweep the NQEs already produced (they route to the
           source NSM), then poll until the source NSM has consumed and
           finished every job/send NQE of this VM.
        3. *Export/import*: the source ServiceLib exports every socket
           context (TCBs, buffers, listen state, accept backlog travel
           live); after the modeled blackout the hugepage region is
           attached to the target and the contexts are imported there.
        4. *Rebind*: the connection table points the VM's entries at the
           target NSM; the VM→NSM assignment follows; the source unmaps
           the region.
        5. *Resume*: unpark, doorbell the switch (bypassing fault
           injection — resume is an operator action, not a guest MMIO
           write), and the parked ops flow to the target.

        On any failure the VM is unparked and resumed before the error
        propagates, so a botched migration degrades to PR 3's failover
        path instead of wedging the guest.
        """
        vm_reg = self._vm_registration(vm_id)
        if vm_reg is None or not vm_reg.active:
            raise ConfigurationError(f"unknown or inactive VM id {vm_id}")
        if vm_reg.engine is not self:
            # The home shard owns the VM's ring consumer end, so the
            # drain and resume steps must run there.
            return (yield from vm_reg.engine.migrate_vm(
                vm_id, target_nsm_id, source_lib, target_lib,
                blackout_base_sec, blackout_per_conn_sec))
        if vm_reg.parked:
            raise ConfigurationError(f"VM {vm_id} is already migrating")
        source_nsm_id = self.vm_to_nsm.get(vm_id)
        if source_nsm_id is None:
            raise ConfigurationError(f"VM {vm_id} has no NSM assigned")
        if source_nsm_id == target_nsm_id:
            raise ConfigurationError(
                f"VM {vm_id} is already served by NSM {target_nsm_id}")
        target_reg = self._nsm_registration(target_nsm_id)
        if target_reg is None or not target_reg.active:
            raise ConfigurationError(
                f"target NSM {target_nsm_id} is not active")
        source_reg = self._nsm_registration(source_nsm_id)
        if source_reg is None or not source_reg.active:
            raise ConfigurationError(
                f"source NSM {source_nsm_id} is not active")

        started = self.sim.now
        vm_reg.parked = True
        try:
            yield from self._drain_vm_rings(vm_reg)
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
            n_qsets = len(target_reg.device.queue_sets)
            rebound = self.table.rebind_vm(
                vm_id, target_nsm_id,
                queue_set_for=lambda vt: hash(vt) % n_qsets)
            self.vm_to_nsm[vm_id] = target_nsm_id
            source_lib.detach_vm_region(vm_id)
        except BaseException:
            vm_reg.parked = False
            self._resume_device(vm_reg)
            raise
        device = vm_reg.device
        parked_ops = sum(len(ring) for qs in device.queue_sets
                         for ring in device.produce_rings(qs))
        vm_reg.parked = False
        self._resume_device(vm_reg)
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
        self.vms_migrated += 1
        self.conns_migrated += len(exports)
        self.migration_parked_ops += parked_ops
        self.migrations.append(record)
        if self.obs is not None:
            self.obs.on_migration(vm_id, source_nsm_id, target_nsm_id,
                                  record["blackout_sec"], len(exports),
                                  parked_ops)
        return record

    def _drain_vm_rings(self, reg: _Registration):
        """One bounded sweep over a parked VM's produce rings: everything
        already produced is switched (toward the still-bound source NSM).
        NQEs produced after the sweep wait parked and route to the target
        after the rebind — which is where their contexts will live."""
        device = reg.device
        for qs in device.queue_sets:
            for ring in device.produce_rings(qs):
                pending = len(ring)
                if not pending:
                    continue
                ring.claim_consumer(self)
                while pending > 0:
                    batch = ring.pop_batch(min(64, pending))
                    if not batch:
                        break
                    pending -= len(batch)
                    yield self.core.execute(
                        self.cost.ce_batch_cycles(len(batch)), "ce.switch")
                    self.batches += 1
                    yield from self._switch_batch(reg, batch, len(batch))

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
                    for qs in device.queue_sets
                    for ring in device.consume_rings(qs)
                    for nqe in ring.snapshot())
                if not pending:
                    return
            yield self.sim.timeout(5e-6)

    def _resume_device(self, reg: _Registration) -> None:
        """Doorbell a freshly unparked device.  Unlike kick(), never
        subject to injected doorbell loss: resume is an operator-plane
        action, not a guest MMIO write."""
        self._mark_ready(reg)
        self._wake_switch()

    def _pick_standby(self, exclude: int) -> Optional[int]:
        """The least-loaded active NSM other than ``exclude`` (the same
        live-connection-count signal assign_vm_auto balances on)."""
        return self._least_loaded_nsm(exclude=exclude)

    def _reclaim_device(self, reg: _Registration, fail_fast: bool) -> None:
        """Drain every ring of a departed device.  SPSC claims are
        bypassed (owner=None): the owner is gone, CoreEngine is the only
        party left standing."""
        for qs in reg.device.queue_sets:
            for ring_name in ("job", "send", "completion", "receive"):
                ring = getattr(qs, ring_name)
                while True:
                    batch = ring.pop_batch(64, owner=None)
                    if not batch:
                        break
                    for nqe in batch:
                        if fail_fast:
                            self._fail_fast_nqe(nqe)
                        else:
                            self._drop_nqe(nqe)

    def _fail_fast_nqe(self, nqe: Nqe) -> None:
        """Resolve an in-flight NQE whose NSM died as ECONNRESET.

        Tokened requests become OP_RESULT(-ECONNRESET) so blocked callers
        unblock; SEND/SENDTO free their payload and become
        SEND_RESULT(-ECONNRESET) carrying the original size so GuestLib's
        send-buffer accounting drains; results produced before the crash
        are rewritten to -ECONNRESET (their success is unobservable now);
        everything else is dropped with payloads freed.
        """
        reset = -RESULT_ERRNO["ECONNRESET"]
        op = nqe.op
        if op in (NqeOp.SEND, NqeOp.SENDTO):
            self._free_payload(nqe)
            result = NQE_POOL.acquire(
                NqeOp.SEND_RESULT, nqe.vm_id, nqe.queue_set_id,
                nqe.socket_id, op_data=reset, size=nqe.size,
                created_at=self.sim._now)
            NQE_POOL.release(nqe)
            self.nqes_failed_fast += 1
            self._push_to_vm(result, event=False)
        elif op in _TOKENED_REQUESTS:
            result = NQE_POOL.acquire(
                NqeOp.OP_RESULT, nqe.vm_id, nqe.queue_set_id,
                nqe.socket_id, op_data=reset, token=nqe.token,
                aux={"req_op": op}, created_at=self.sim._now)
            NQE_POOL.release(nqe)
            self.nqes_failed_fast += 1
            self._push_to_vm(result, event=False)
        elif op in (NqeOp.OP_RESULT, NqeOp.SEND_RESULT):
            if (op is NqeOp.OP_RESULT and isinstance(nqe.aux, dict)
                    and nqe.aux.get("req_op") in (NqeOp.CLOSE,
                                                  NqeOp.SHUTDOWN)):
                # A CLOSE/SHUTDOWN that already completed is terminal for
                # the socket either way; rewriting its result would show
                # the guest a spurious ECONNRESET on an op that succeeded.
                self._push_to_vm(nqe, event=False)
                return
            nqe.op_data = reset
            self.nqes_failed_fast += 1
            self._push_to_vm(nqe, event=False)
        else:
            # Stale events / credits / heartbeats: nothing to resolve.
            self._drop_nqe(nqe)

    def _shed_nqe(self, nqe: Nqe) -> bool:
        """Fail a VM-egress NQE fast with -EAGAIN (overload shed).

        The switch-side backstop of the overload governor: instead of
        letting an over-quota element queue toward a saturated NSM (or
        vanish in a backpressure drop downstream), resolve it *now* so
        the blocked guest caller unblocks with a retriable errno.
        Returns False for ops that cannot carry an errno to a waiter
        (events, credits) — those fall through to normal routing.
        """
        again = -RESULT_ERRNO["EAGAIN"]
        op = nqe.op
        vm_id = nqe.vm_id
        if op in (NqeOp.SEND, NqeOp.SENDTO):
            self._free_payload(nqe)
            result = NQE_POOL.acquire(
                NqeOp.SEND_RESULT, nqe.vm_id, nqe.queue_set_id,
                nqe.socket_id, op_data=again, size=nqe.size,
                created_at=self.sim._now)
        elif op in _TOKENED_REQUESTS:
            result = NQE_POOL.acquire(
                NqeOp.OP_RESULT, nqe.vm_id, nqe.queue_set_id,
                nqe.socket_id, op_data=again, token=nqe.token,
                aux={"req_op": op}, created_at=self.sim._now)
        else:
            return False
        NQE_POOL.release(nqe)
        self.nqes_shed += 1
        shed = self.vm_shed
        shed[vm_id] = shed.get(vm_id, 0) + 1
        self._push_to_vm(result, event=False)
        return True

    def _push_to_vm(self, nqe: Nqe, event: bool) -> None:
        """Best-effort synchronous delivery into a VM's consume rings
        (failover paths only — the normal datapath goes through _deliver).
        A full ring here drops the element rather than blocking the
        caller; the VM's pollers are live, so this is a last resort."""
        vm_reg = self._vm_registration(nqe.vm_id)
        if vm_reg is None or not vm_reg.active:
            self._drop_nqe(nqe)
            return
        if vm_reg.engine is not self:
            # The VM's home shard is its rings' producer.
            vm_reg.engine._push_to_vm(nqe, event)
            return
        device = vm_reg.device
        qs = device.queue_sets[nqe.queue_set_id % len(device.queue_sets)]
        control_ring, data_ring = device.consume_rings(qs)
        ring = data_ring if event else control_ring
        if ring.try_push(nqe, owner=self):
            device.wake()
        else:
            self._count_backpressure_drop(nqe.vm_id)
            self._drop_nqe(nqe)

    def _free_payload(self, nqe: Nqe) -> None:
        """Free the hugepage buffer an NQE references, if any."""
        if not nqe.data_ptr:
            return
        region = self._vm_regions.get(nqe.vm_id)
        if region is None:
            return
        buffer = region.lookup(nqe.data_ptr)
        if buffer is not None and not buffer.freed:
            buffer.free()

    def set_bandwidth_limit(self, vm_id: int, bits_per_sec: float,
                            burst_bits: Optional[float] = None) -> None:
        """Cap a VM's egress bandwidth through NetKernel (Fig. 21)."""
        self._bw_limits[vm_id] = TokenBucket(
            self.sim, bits_per_sec, burst_bits or bits_per_sec * 0.01)

    def clear_bandwidth_limit(self, vm_id: int) -> None:
        """Remove a VM's bandwidth cap (it becomes work-conserving)."""
        self._bw_limits.pop(vm_id, None)

    def set_ops_limit(self, vm_id: int, nqes_per_sec: float) -> None:
        """Cap a VM's NQE (operation) rate (§4.4)."""
        self._op_limits[vm_id] = TokenBucket(
            self.sim, nqes_per_sec, nqes_per_sec * 0.01)

    # -- overload control (repro.core.overload) --------------------------------

    def enable_overload_control(self, **params):
        """Arm the overload governor for this engine (idempotent).

        ``params`` are forwarded to :class:`OverloadGovernor`.  Off by
        default so un-governed timelines are byte-identical to earlier
        builds; with it on, GuestLibs gate op issue on ``admit()``,
        ServiceLibs clamp their receive windows, and the switch arms its
        weight-aware EAGAIN shed backstop.
        """
        if self.overload is not None:
            return self.overload
        from repro.core.overload import OverloadGovernor
        self.overload = OverloadGovernor(self.sim, self, **params)
        return self.overload

    def disable_overload_control(self) -> None:
        """Disarm the governor: its sampler exits at the next tick and
        its level pins to 0.  The governor object stays referenced so
        end-of-run introspection (stats, fingerprints) still sees its
        counters."""
        if self.overload is not None:
            self.overload.stop()

    def nsm_device(self, nsm_id: int) -> NKDevice:
        """The NK device registered for an NSM id."""
        return self._nsms[nsm_id].device

    def vm_device(self, vm_id: int) -> NKDevice:
        """The NK device registered for a VM id."""
        return self._vms[vm_id].device

    # -- registration lookup --------------------------------------------------

    def _vm_registration(self, vm_id: int) -> Optional[_Registration]:
        """The registration for ``vm_id``, on whichever shard it lives."""
        return self._vms.get(vm_id)

    def _nsm_registration(self, nsm_id: int) -> Optional[_Registration]:
        """The registration for ``nsm_id``, on whichever shard it lives."""
        return self._nsms.get(nsm_id)

    # -- cluster membership (repro.core.sharding) ------------------------------

    def _join_cluster(self, index: int, first: "CoreEngine") -> None:
        """Become shard ``index`` of a multi-shard cluster whose shard 0
        is ``first``: share its control plane by reference and open the
        inbox peers hand NQEs for devices homed here to."""
        self.shard_index = index
        for name in _CLUSTER_STATE:
            setattr(self, name, getattr(first, name))
        self._inbound = _HandoffInbox(f"shard{index}.handoff",
                                      self.ring_slots)
        #: Reusable drain scratch for the inbox (never reallocated).
        self._handoff_scratch: list = []

    def _drain_handoffs(self):
        """Deliver every NQE peer shards handed to this one, in FIFO
        order, through the stock delivery path (fault hooks, backpressure
        budget and liveness checks apply here, once)."""
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
                        yield from self._deliver(dring, nqe, device)
                continue
            dring, nqe, device = spill.popleft()
            self.handoffs_in += 1
            if not self._deliver_fast(dring, nqe, device):
                yield from self._deliver(dring, nqe, device)

    # ----------------------------------------------------------------- loop --

    def kick(self, device: Optional[NKDevice] = None) -> None:
        """Doorbell: new NQEs were produced somewhere.

        ``device`` identifies the producer so the ready-set scheduler can
        mark exactly it dirty; ``None`` (manual kicks, ``stop()``)
        conservatively marks every registered device.
        """
        if (device is not None and self.faults is not None
                and self.faults.should_drop_doorbell(device)):
            return  # injected doorbell loss: the MMIO write vanished
        if device is not None:
            reg = device.ce_registration
            # _mark_ready's already-ready reject, inlined: bursts usually
            # kick a device that is still queued for service.
            if reg is not None and reg.active and reg.state != _READY:
                self._mark_ready(reg)
        else:
            for registry in (self._vms, self._nsms):
                for reg in registry.values():
                    if reg.engine is self:
                        self._mark_ready(reg)
        # _wake_switch() inlined (kick is the datapath's hottest notifier).
        self._kicked = True
        waiter = self._doorbell_waiter
        if waiter is not None:
            self._doorbell_waiter = None
            waiter.succeed()

    def _wake_switch(self) -> None:
        """Note a doorbell and wake the switching loop if it sleeps.

        The flag is the lost-doorbell guard (the loop rescans when it
        was set mid-pass); the waiter event exists only while the loop
        is asleep, so a doorbell landing while the switch is awake
        queues no event at all.
        """
        self._kicked = True
        waiter = self._doorbell_waiter
        if waiter is not None:
            self._doorbell_waiter = None
            waiter.succeed()

    def stop(self) -> None:
        """Shut the switching loop down (used by teardown tests)."""
        self._running = False
        self.kick()

    def _mark_ready(self, reg: _Registration) -> None:
        """Enqueue a device into the dirty set in pass order: ahead of
        the scan position → later this pass; at/behind it (or registered
        mid-pass) → next pass."""
        if reg.state == _READY or not reg.active:
            return
        reg.state = _READY
        if self._in_pass and (reg.birth_pass == self._pass_counter
                              or (self._pass_pos is not None
                                  and reg.key <= self._pass_pos)):
            heapq.heappush(self._next_pass, (reg.key, reg))
        else:
            heapq.heappush(self._current_pass, (reg.key, reg))

    def _run(self):
        """The switching loop: service only the dirty set of kicked
        devices, one pass at a time.

        The pass order is part of the simulated timeline, which the
        determinism suite pins as golden constants:

        * Each pass visits ready devices in (role, id) order, VMs first.
          A device kicked at/behind the scan position waits for the next
          pass, as does one registered mid-pass.  Idle devices are never
          visited and cost no simulated time.
        * A rate-stalled device is re-armed for the *next pass* rather
          than parked until its token deadline: its admission check
          re-runs every pass, and TokenBucket refills are
          float-path-dependent, so checking at other instants would move
          the timeline in the last ulp.  The sleep timeout is the
          earliest stalled device's deadline (min stall this pass).
        * A pass that made progress, or was kicked mid-pass, is followed
          by another pass instead of a sleep (the lost-doorbell guard).
        * On a shard with peers, NQEs handed over since the last pass are
          delivered first, at the top of the pass.
        """
        while self._running:
            self._kicked = False
            self._pass_counter += 1
            inbox = self._inbound
            if inbox is not None and (inbox.ring._count or inbox.spill):
                yield from self._drain_handoffs()
            self._in_pass = True
            progressed = False
            stall: Optional[float] = None
            current = self._current_pass
            while current:
                _key, reg = heapq.heappop(current)
                if reg.state != _READY or not reg.active:
                    continue
                self._pass_pos = reg.key
                reg.state = _IDLE
                if not reg.parked and not reg.device.produce_pending():
                    # A doorbell can outlive its NQEs (drained by an
                    # earlier visit this pass): _service_device would
                    # return None without yielding; skip the generator.
                    continue
                result = yield from self._service_device(reg)
                if result is True:
                    progressed = True
                    if reg.state == _IDLE and reg.device.produce_pending():
                        # Leftovers past the batch cap (or pushed while
                        # routing): revisit next pass.
                        self._mark_ready(reg)
                elif isinstance(result, float):
                    stall = result if stall is None else min(stall, result)
                    # Re-arm for the next pass's admission recheck.
                    self._mark_ready(reg)
            self._in_pass = False
            self._pass_pos = None
            self._current_pass, self._next_pass = (self._next_pass,
                                                   self._current_pass)
            if progressed:
                continue
            if self._kicked:
                continue
            yield from self._idle_sleep(stall)

    def _idle_sleep(self, stall: Optional[float]):
        """Sleep until a doorbell or (when rate-stalled) token refill.

        The waiter event is armed here, only while the loop actually
        sleeps; kick() succeeds it.  A doorbell landing while the switch
        is awake therefore costs a flag store, not a queued event.
        """
        waiter = Event(self.sim)
        self._doorbell_waiter = waiter
        if stall is None:
            # No token-refill deadline to race: wait on the waiter
            # itself instead of wrapping it in an AnyOf, which would add
            # one same-timestamp event hop per idle period.  The switch
            # still wakes at the same simulated instant; only the
            # intra-instant event count shrinks.
            yield waiter
            return
        self.rate_limited_stalls += 1
        timeout = self.sim.timeout(max(stall, 1e-6))
        yield self.sim.any_of((waiter, timeout))
        if not timeout.processed:
            # The doorbell won the race: disarm the stall timeout so it
            # does not linger in the event heap and fire as a no-op.
            timeout.cancel()
            self.stale_wakeups += 1
        if self._doorbell_waiter is waiter:
            # The timeout won: disarm the waiter so a later kick does
            # not succeed an event nobody will ever sleep on again.
            self._doorbell_waiter = None

    def _service_device(self, reg: _Registration):
        """Drain one device's produced rings; returns True, None, or a
        float (seconds until rate-limit tokens allow progress).

        Each queue set's rings drain into the engine-owned scratch list
        (zero list allocations), at most ``batch_size`` NQEs per queue
        set; one ``ce_batch_cycles`` charge covers the batch, then
        :meth:`_switch_batch` routes it.
        """
        if reg.parked:
            # Mid-migration: leave produced NQEs in the rings.  They are
            # parked, not failed — the resume doorbell re-services them.
            return None
        device = reg.device
        progressed = False
        stall: Optional[float] = None
        bw = ops = None
        if device.role == ROLE_VM:
            bw = self._bw_limits.get(reg.numeric_id)
            ops = self._op_limits.get(reg.numeric_id)
        limited = bw is not None or ops is not None
        batch_size = self.batch_size
        scratch = self._scratch
        for qs in device.queue_sets:
            filled = 0
            for ring in device.produce_rings(qs):
                room = batch_size - filled
                if room == 0:
                    break
                count = ring._count
                if count == 0:
                    continue
                # One ownership check per drain; the per-item operations
                # below run unchecked.
                if ring._consumer is not self:
                    ring.claim_consumer(self)
                if limited:
                    # Every VM-egress NQE — job-queue ops included — must
                    # pass the §4.4 admission check; draining the control
                    # ring unchecked would let a rate-capped VM blast
                    # unlimited control ops.
                    filled, wait = self._admit(ring, scratch, filled,
                                               bw, ops)
                    if wait is not None:
                        stall = wait if stall is None else min(stall, wait)
                elif count == 1:
                    # Single-element drain (the common case under
                    # fine-grained doorbells), inlined from
                    # SpscRing.drain_into.
                    head = ring._head
                    slots = ring._slots
                    item = slots[head]
                    slots[head] = None
                    head += 1
                    ring._head = 0 if head == len(slots) else head
                    ring._count = 0
                    ring.consumed += 1
                    if len(scratch) <= filled:
                        scratch.append(None)
                    scratch[filled] = item
                    filled += 1
                else:
                    filled += ring.drain_into(scratch, room, start=filled)
            if not filled:
                continue
            yield self.core.execute(self.cost.ce_batch_cycles(filled),
                                    "ce.switch")
            self.batches += 1
            yield from self._switch_batch(reg, scratch, filled)
            progressed = True
        if progressed:
            return True
        return stall

    def _admit(self, ring, scratch: List[Optional[Nqe]], filled: int,
               bw: Optional[TokenBucket], ops: Optional[TokenBucket]):
        """Move NQEs that pass a rate-capped VM's token buckets from
        ``ring`` into ``scratch[filled:]``, up to ``batch_size`` in all.
        Returns the new fill and the seconds until the ring's head NQE
        is admissible (None when the ring drained or the batch filled).
        """
        while filled < self.batch_size:
            nqe: Optional[Nqe] = ring.peek()
            if nqe is None:
                break
            wait = self._admission_delay(bw, ops, nqe)
            if wait > 0:
                return filled, wait
            ring.pop()
            if len(scratch) <= filled:
                scratch.append(None)
            scratch[filled] = nqe
            filled += 1
        return filled, None

    @staticmethod
    def _admission_delay(bw: Optional[TokenBucket],
                         ops: Optional[TokenBucket], nqe: Nqe) -> float:
        """Seconds until this (VM-egress) NQE passes its token buckets."""
        delay = 0.0
        if bw is not None:
            bits = nqe.size * 8.0
            if not bw.try_consume(bits):
                return max(bw.time_until(bits), 1e-6)
        if ops is not None:
            if not ops.try_consume(1.0):
                delay = max(ops.time_until(1.0), 1e-6)
                if bw is not None:
                    bw.refund(nqe.size * 8.0)  # undo the bandwidth charge
        return delay

    # ---------------------------------------------------------------- routing --

    def _switch_batch(self, reg: _Registration, nqes: List[Optional[Nqe]],
                      count: int):
        """Route ``nqes[:count]`` from ``reg``'s device in order, clearing
        each slot.  Every NQE's destination is resolved synchronously and
        delivered in place by :meth:`_deliver_fast`; only a delivery that
        must wait (a full ring, injected faults) enters the generator
        :meth:`_deliver`, which is also the only place this yields."""
        role = reg.device.role
        is_vm = role == ROLE_VM
        obs = self.obs
        # Overload accounting applies to VM egress only.
        ov = self.overload if is_vm else None
        resolve = self._resolve_vm_to_nsm if is_vm else self._resolve_nsm_to_vm
        deliver_fast = self._deliver_fast
        for i in range(count):
            nqe = nqes[i]
            nqes[i] = None
            if obs is not None:
                obs.on_ce_switch(nqe, role)
            if ov is not None and ov.ingest(nqe) and self._shed_nqe(nqe):
                self.nqes_switched += 1
                continue
            dest = resolve(reg, nqe)
            if dest is not None and not deliver_fast(dest[0], nqe, dest[1]):
                yield from self._deliver(dest[0], nqe, dest[1])
            self.nqes_switched += 1

    def _resolve_vm_to_nsm(self, reg: _Registration, nqe: Nqe):
        """Pick the destination (ring, device) for a VM-egress NQE, or
        consume it (fail-fast/drop) and return None.  Never yields."""
        vm_tuple = (nqe.vm_id, nqe.queue_set_id, nqe.socket_id)
        entry = self.table.lookup_vm(vm_tuple)
        if entry is None:
            nsm_id = self.vm_to_nsm.get(reg.numeric_id)
            if nsm_id is None:
                if reg.numeric_id in self._orphaned_vms:
                    # The serving NSM was deregistered and no standby
                    # exists.  Raising here would kill the switch for
                    # every tenant; fail the op fast instead.
                    self._fail_fast_nqe(nqe)
                    return None
                raise ConfigurationError(
                    f"VM {reg.numeric_id} has no NSM assigned")
            nsm_reg = self._nsm_registration(nsm_id)
            if nsm_reg is None or not nsm_reg.active:
                # Assigned NSM is dead and no standby took over: fail
                # fast rather than queueing toward a corpse.
                self._fail_fast_nqe(nqe)
                return None
            nsm_device = nsm_reg.device
            qset = hash(vm_tuple) % len(nsm_device.queue_sets)
            op = nqe.op
            if op is not NqeOp.SOCKET and op is not NqeOp.ACCEPT_ATTACH:
                # An op on a socket this VM never opened: nothing would
                # ever complete or remove an entry for it, so a guest
                # could grow the host-global table at will.  Route it
                # to the assigned NSM unrecorded; ServiceLib answers it
                # with an errno.
                qs = nsm_device.queue_sets[qset]
                return (qs.send if op is NqeOp.SEND else qs.job), nsm_device
            entry = self.table.insert(vm_tuple, nsm_id, qset)
            if op is NqeOp.ACCEPT_ATTACH:
                # The NSM socket already exists; complete the entry now.
                self.table.complete(vm_tuple, nqe.op_data)
        nsm_reg = self._nsm_registration(entry.nsm_id)
        if nsm_reg is None or not nsm_reg.active:
            # The serving NSM died between insert and this switch.
            self.table.remove_vm(vm_tuple)
            self._fail_fast_nqe(nqe)
            return None
        nsm_device = nsm_reg.device
        qs = nsm_device.queue_sets[entry.nsm_queue_set]
        # An NSM device consumes (job, send) — consume_rings() inlined.
        ring = qs.send if nqe.op is NqeOp.SEND else qs.job
        return ring, nsm_device

    def _resolve_nsm_to_vm(self, reg: _Registration, nqe: Nqe):
        """Pick the destination (ring, device) for an NSM-egress NQE, or
        consume it (intercept/drop) and return None.  Never yields."""
        op = nqe.op
        if op is NqeOp.HEARTBEAT_ACK:
            # Liveness answer for the health monitor; never reaches a VM.
            self.heartbeat_acks += 1
            self._last_ack[reg.numeric_id] = self.sim._now
            NQE_POOL.release(nqe)
            return None
        vm_reg = self._vm_registration(nqe.vm_id)
        if vm_reg is None:
            self._drop_nqe(nqe)  # VM shut down
            return None
        if op is NqeOp.OP_RESULT:
            # Connection-table bookkeeping applies only to results; the
            # event path skips the tuple build and lookup entirely.
            vm_tuple = (nqe.vm_id, nqe.queue_set_id, nqe.socket_id)
            entry = self.table.lookup_vm(vm_tuple)
            if entry is not None and not entry.complete and nqe.op_data > 0:
                # Fig. 6 step (4): response carries the NSM socket id.
                # Only a positive op_data announces one — ServiceLib's
                # ids start at 1, and a 0 is a plain success status
                # (completing on those used to alias every control-op
                # entry onto NSM socket 0; the table now rejects such
                # collisions instead of silently last-writer-winning).
                self.table.complete(vm_tuple, nqe.op_data)
            aux = nqe.aux
            if type(aux) is dict and aux.get("req_op") == NqeOp.CLOSE:
                self.table.remove_vm(vm_tuple)
        vm_device = vm_reg.device
        qs = vm_device.queue_sets[nqe.queue_set_id % len(vm_device.queue_sets)]
        # A VM device consumes (completion, receive) — consume_rings()
        # inlined; events land on the receive ring.
        ring = qs.receive if op in _EVENT_OPS else qs.completion
        return ring, vm_device

    def _deliver_fast(self, ring, nqe: Nqe, target_device: NKDevice) -> bool:
        """Synchronous delivery attempt.  Returns True
        when the NQE was fully handled — pushed and the consumer woken,
        or dropped because the target died.  Returns False when the
        generator slow path must take over (active fault injection, or a
        full ring that needs a bounded stall); it has consumed nothing in
        that case, so :meth:`_deliver` re-runs the same checks.

        A target homed on another shard is handed to that shard's inbox
        (push and doorbell, no yields), so it is always fast; the home
        shard delivers it through these same checks."""
        target_reg = target_device.ce_registration
        if target_reg is not None and target_reg.engine is not self:
            self.handoffs_out += 1
            home = target_reg.engine
            home._inbound.push(ring, nqe, target_device)
            home._wake_switch()
            return True
        if self.faults is not None:
            return False
        if target_reg is not None and not target_reg.active:
            self._drop_nqe(nqe)
            return True
        count = ring._count
        slots = ring._slots
        slab_full = count == len(slots)
        if slab_full and count == ring.capacity:
            # Leave the full-ring rejection accounting and the bounded
            # stall to the slow path, so each is counted exactly once.
            return False
        if ring._producer is not self:
            ring.claim_producer(self)
        # SpscRing.try_push inlined (fullness and ownership are already
        # settled above): this runs once per switched NQE and the call
        # overhead is measurable at switching rates.
        if slab_full:
            ring._grow()  # full slab below capacity: double it first
        tail = ring._tail
        slots[tail] = nqe
        tail += 1
        ring._tail = 0 if tail == len(slots) else tail
        count += 1
        ring._count = count
        ring.produced += 1
        if count > ring.peak_depth:
            ring.peak_depth = count
        if count > ring.hwm_depth:
            ring.hwm_depth = count
        ov = self.overload
        if ov is not None and nqe.created_at > 0.0:
            ov.note_delivery(self.sim._now - nqe.created_at)
        target_device.wake()
        return True

    def _deliver(self, ring, nqe: Nqe, target_device: NKDevice):
        """Copy the NQE into the destination ring.

        Backpressure stalls are *bounded*: a live consumer drains its
        ring within microseconds, so a stall that outlives
        ``deliver_stall_budget`` means the consumer is gone or wedged —
        the NQE is dropped (payload freed, element pooled) and counted
        in ``nqes_dropped_backpressure`` instead of wedging the switch
        forever.  Reached only after :meth:`_deliver_fast` declined,
        which it never does for a target homed on another shard.
        """
        faults = self.faults
        if faults is not None:
            if faults.should_drop_slot(nqe, target_device):
                self._drop_nqe(nqe)  # injected ring-slot write loss
                return
            delay = faults.completion_delay(target_device)
            if delay > 0:
                yield self.sim.timeout(delay)
        # The target may have died (quarantine/deregister) between switch
        # and delivery; pushing into a reclaimed ring would strand the
        # element forever, so drop it instead.
        target_reg = target_device.ce_registration
        if target_reg is not None and not target_reg.active:
            self._drop_nqe(nqe)
            return
        deadline: Optional[float] = None
        while not ring.try_push(nqe, owner=self):
            if target_reg is not None and not target_reg.active:
                self._drop_nqe(nqe)  # consumer died while we stalled
                return
            if deadline is None:
                deadline = self.sim._now + self.deliver_stall_budget
            elif self.sim._now >= deadline:
                self._count_backpressure_drop(nqe.vm_id)
                self._drop_nqe(nqe)
                return
            yield self.sim.timeout(2e-6)
        ov = self.overload
        if ov is not None and nqe.created_at > 0.0:
            ov.note_delivery(self.sim._now - nqe.created_at)
        target_device.wake()

    def _count_backpressure_drop(self, vm_id: int) -> None:
        """Account a backpressure drop host-globally and to its VM."""
        self.nqes_dropped_backpressure += 1
        per_vm = self.vm_dropped_backpressure
        per_vm[vm_id] = per_vm.get(vm_id, 0) + 1

    def _drop_nqe(self, nqe: Nqe) -> None:
        """Drop an NQE terminally: free any hugepage payload it
        references and return the element to the pool (the drop path is
        its final consumer — losing pooled elements here would bleed the
        pool dry under sustained faults)."""
        self.nqes_dropped += 1
        per_vm = self.vm_dropped
        vm_id = nqe.vm_id
        per_vm[vm_id] = per_vm.get(vm_id, 0) + 1
        self._free_payload(nqe)
        NQE_POOL.release(nqe)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Lifetime switching counters (NQEs, batches, table size)."""
        return {
            "nqes_switched": self.nqes_switched,
            "batches": self.batches,
            "avg_batch": (self.nqes_switched / self.batches
                          if self.batches else 0.0),
            "connections": len(self.table),
            "rate_limited_stalls": self.rate_limited_stalls,
            "nqes_dropped": self.nqes_dropped,
            "nqes_dropped_backpressure": self.nqes_dropped_backpressure,
            "nqes_failed_fast": self.nqes_failed_fast,
            "nqes_shed": self.nqes_shed,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeat_acks": self.heartbeat_acks,
            "nsms_quarantined": self.nsms_quarantined,
            "vms_failed_over": self.vms_failed_over,
            "conns_reset_on_failover": self.conns_reset_on_failover,
            "vms_migrated": self.vms_migrated,
            "conns_migrated": self.conns_migrated,
            "migration_parked_ops": self.migration_parked_ops,
            "sched.passes": self._pass_counter,
            "sched.stale_wakeups": self.stale_wakeups,
        }

    def per_vm_drops(self) -> Dict[int, dict]:
        """Per-VM loss attribution: terminal drops, backpressure drops,
        and overload sheds, keyed by VM id (union of all three maps)."""
        out: Dict[int, dict] = {}
        for vm_id in sorted(set(self.vm_dropped)
                            | set(self.vm_dropped_backpressure)
                            | set(self.vm_shed)):
            out[vm_id] = {
                "dropped": self.vm_dropped.get(vm_id, 0),
                "dropped_backpressure":
                    self.vm_dropped_backpressure.get(vm_id, 0),
                "shed": self.vm_shed.get(vm_id, 0),
            }
        return out

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
