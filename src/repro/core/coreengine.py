"""CoreEngine: one shard of the host's software switch (§4.3, §4.4).

A CoreEngine consumes produced NQEs in batches, charges the calibrated
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
The switch stamps every VM-egress NQE with the id of the device it was
polled from, so a guest cannot act on another tenant's sockets or
hugepages by writing a neighbour's ``vm_id``.

Scheduling (§4.3's interrupt-driven polling, applied to the switch
itself): doorbells carry the kicking device and the switch services only
a dirty set of ready devices, in a fixed pass order (see _run), so one
wake-up costs O(ready devices), not O(registered devices).

Failure handling (§8): an NSM is a new single point of failure, so the
switch doubles as the failure detector.  ``enable_health_monitor`` sends
HEARTBEAT NQEs through each NSM's job ring and expects HEARTBEAT_ACKs
back through the normal datapath — probing the exact path tenant NQEs
take, not a side channel.  An NSM silent past the detection timeout is
quarantined by the control plane.

Control plane (repro.core.sharding): a host's switch is a
``ShardedCoreEngine`` of one or more CoreEngine shards.  It owns the
directory (device registrations, connection table, VM→NSM map,
isolation limits, health verdicts) and the control methods; a shard
reaches them through its ``switch`` back-reference.  Each device has
one home shard, ``_Registration.engine``; a shard that switches an NQE
toward a device homed elsewhere hands it to that shard's inbox.
"""

from __future__ import annotations

import heapq
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.conn_table import ConnectionTableError
from repro.core.nk_device import NKDevice, ROLE_NSM, ROLE_VM
from repro.core.nqe import NQE_POOL, Nqe, NqeOp, RESULT_ERRNO
from repro.cpu.core import Core
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


class CoreEngine:
    """One shard of the NQE switch: a switching loop on a dedicated core
    over the devices homed on it.  Built only by :class:`ShardedCoreEngine`
    (``switch``), which owns the directory and the control methods."""

    def __init__(self, switch, core: Core, shard_index: int,
                 batch_size: int):
        if batch_size < 1:
            raise ConfigurationError(f"batch size must be >=1: {batch_size}")
        #: The control plane this shard belongs to: every shared object
        #: (directory, connection table, limits, health verdicts) and
        #: switch-wide setting (obs, faults, stall budget) is read there.
        self.switch = switch
        self.sim = switch.sim
        self.core = core
        self.cost = switch.cost
        self.batch_size = batch_size
        self.shard_index = shard_index
        #: Reusable drain scratch: grown once to batch_size, reread
        #: every pass, never reallocated.
        self._scratch: List[Nqe] = []

        # Ready-set scheduler state.  Two heaps give each pass its
        # order: _current_pass holds devices to service this pass in key
        # order, _next_pass collects devices that became ready at or
        # behind the scan position.
        self._current_pass: List[Tuple[Tuple[int, int], _Registration]] = []
        self._next_pass: List[Tuple[Tuple[int, int], _Registration]] = []
        self._pass_pos: Optional[Tuple[int, int]] = None
        self._pass_counter = 0
        self._in_pass = False

        # NSM health monitoring (off until enable_health_monitor()).
        self.heartbeat_interval = 1e-3
        self.detection_timeout = 5e-3
        self._health_process = None
        self._health_enabled = False

        # Overload control (repro.core.overload); None means overload
        # control is disabled and the datapath pays only the attribute
        # check.  Enabled via enable_overload_control().
        self.overload = None

        # Cross-shard handoff: the FIFO of (ring, nqe, device) triples
        # peer shards hand over for devices homed here.  The simulator is
        # single-threaded, so a peer appends mid-pass and this shard pops
        # at its pass top.  None on a shard without peers.
        self._inbound: Optional[Deque[Tuple[SpscRing, Nqe, NKDevice]]] = None
        self.handoffs_in = 0
        self.handoffs_out = 0

        # Statistics.  A control step counts on its device's home shard.
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

        #: Doorbell state.  ``_kicked`` is the lost-doorbell guard: set by
        #: every kick, cleared at the top of each pass, checked before
        #: sleeping.  ``_doorbell_waiter`` exists only while the loop is
        #: asleep; a kick landing while the switch is awake just sets the
        #: flag and queues *no* event (the old always-an-Event doorbell
        #: processed one ghost event per mid-pass kick).
        self._kicked = False
        self._doorbell_waiter: Optional[object] = None
        self._running = True
        self._process = self.sim.process(self._run())

    # ------------------------------------------------------- registration --
    # register_vm/register_nsm/assign_vm/assign_vm_auto stay callable on
    # a shard because perfbench's tracer wraps them by name.

    def register_vm(self, numeric_id: int, owner_id: str, queue_sets: int,
                    hugepages: Optional[HugepageRegion],
                    poll_window_sec: Optional[float]) -> _Registration:
        """Home half of VM registration: the NK device, wired to this
        shard's doorbell (ShardedCoreEngine.register_vm records it)."""
        return self._attach(numeric_id, owner_id, ROLE_VM, queue_sets,
                            hugepages, poll_window_sec)

    def register_nsm(self, numeric_id: int, owner_id: str, queue_sets: int,
                     hugepages: Optional[HugepageRegion],
                     poll_window_sec: Optional[float]) -> _Registration:
        """Home half of NSM registration (see register_vm)."""
        return self._attach(numeric_id, owner_id, ROLE_NSM, queue_sets,
                            hugepages, poll_window_sec)

    def assign_vm(self, vm_id: int, nsm_id: int) -> None:
        """Forwards to :meth:`ShardedCoreEngine.assign_vm`."""
        self.switch.assign_vm(vm_id, nsm_id)

    def assign_vm_auto(self, vm_id: int) -> int:
        """Forwards to :meth:`ShardedCoreEngine.assign_vm_auto`."""
        return self.switch.assign_vm_auto(vm_id)

    def _attach(self, numeric_id: int, owner_id: str, role: str,
                queue_sets: int, hugepages: Optional[HugepageRegion],
                poll_window_sec: Optional[float]) -> _Registration:
        hugepages = hugepages or HugepageRegion(name=f"{owner_id}.hp")
        kwargs = {}
        if poll_window_sec is not None:
            kwargs["poll_window_sec"] = poll_window_sec
        device = NKDevice(self.sim, owner_id, role, queue_sets, hugepages,
                          ring_slots=self.switch.ring_slots, **kwargs)
        self.core.charge(self.cost.ce_device_setup, "ce.device_setup")
        key = (0 if role == ROLE_VM else 1, numeric_id)
        reg = _Registration(numeric_id, device, key, self._pass_counter,
                            self)
        device.ce_registration = reg
        return reg

    # -- NSM health (§8) -------------------------------------------------------

    def enable_health_monitor(self, heartbeat_interval: float = 1e-3,
                              detection_timeout: float = 5e-3) -> None:
        """Start probing the liveness of the NSMs homed here.

        Every ``heartbeat_interval`` the monitor pushes a HEARTBEAT into
        each active NSM's job ring; ServiceLib answers through its
        completion ring.  An NSM whose last ack is older than
        ``detection_timeout`` is quarantined (see
        ShardedCoreEngine.quarantine_nsm).  Off by default so
        un-monitored timelines are byte-identical to earlier builds.
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
        switch = self.switch
        nsms = switch._nsms
        last_ack = switch._last_ack
        while self._running and self._health_enabled:
            now = self.sim.now
            for nsm_id in sorted(nsms):
                reg = nsms[nsm_id]
                if not reg.active or reg.engine is not self:
                    continue
                last = last_ack.setdefault(nsm_id, now)
                if now - last >= self.detection_timeout:
                    switch.quarantine_nsm(nsm_id, reason="heartbeat-timeout")
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

    # -- home-side steps of control operations ---------------------------------

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

    def _resume_device(self, reg: _Registration) -> None:
        """Doorbell a freshly unparked device.  Unlike kick(), never
        subject to injected doorbell loss: resume is an operator-plane
        action, not a guest MMIO write."""
        self._mark_ready(reg)
        self._wake_switch()

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

    def _error_result(self, nqe: Nqe, errno: int) -> Optional[Nqe]:
        """The completion that answers VM request ``nqe`` with ``errno``.

        A SEND/SENDTO frees its payload and becomes SEND_RESULT(errno)
        carrying the original size, so GuestLib's send-buffer accounting
        drains; a tokened request becomes OP_RESULT(errno) with its token
        and ``req_op``, so the blocked caller unblocks.  ``nqe`` goes back
        to the pool.  Any other op returns None and ``nqe`` is untouched.
        """
        op = nqe.op
        if op in (NqeOp.SEND, NqeOp.SENDTO):
            self._free_payload(nqe)
            result = NQE_POOL.acquire(
                NqeOp.SEND_RESULT, nqe.vm_id, nqe.queue_set_id,
                nqe.socket_id, op_data=errno, size=nqe.size,
                created_at=self.sim._now)
        elif op in _TOKENED_REQUESTS:
            result = NQE_POOL.acquire(
                NqeOp.OP_RESULT, nqe.vm_id, nqe.queue_set_id,
                nqe.socket_id, op_data=errno, token=nqe.token,
                aux={"req_op": op}, created_at=self.sim._now)
        else:
            return None
        NQE_POOL.release(nqe)
        return result

    def _fail_fast_nqe(self, nqe: Nqe) -> None:
        """Resolve an in-flight NQE whose NSM died as ECONNRESET.

        VM requests become their -ECONNRESET completion
        (:meth:`_error_result`); results produced before the crash are
        rewritten to -ECONNRESET (their success is unobservable now);
        everything else is dropped with payloads freed.
        """
        reset = -RESULT_ERRNO["ECONNRESET"]
        result = self._error_result(nqe, reset)
        if result is not None:
            self.nqes_failed_fast += 1
            self._push_to_vm(result, event=False)
            return
        op = nqe.op
        if op in (NqeOp.OP_RESULT, NqeOp.SEND_RESULT):
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
        vm_id = nqe.vm_id
        result = self._error_result(nqe, -RESULT_ERRNO["EAGAIN"])
        if result is None:
            return False
        self.nqes_shed += 1
        shed = self.vm_shed
        shed[vm_id] = shed.get(vm_id, 0) + 1
        self._push_to_vm(result, event=False)
        return True

    def _push_to_vm(self, nqe: Nqe, event: bool) -> None:
        """Best-effort synchronous delivery into a VM's consume rings
        (failover paths only — the normal datapath goes through _deliver).
        A full ring here drops the element rather than blocking the
        caller; the VM's pollers are live, so this is a last resort.
        The VM's home shard produces into its rings and counts the drop."""
        vm_reg = self.switch._vms.get(nqe.vm_id)
        if vm_reg is None or not vm_reg.active:
            self._drop_nqe(nqe)
            return
        home = vm_reg.engine
        device = vm_reg.device
        qs = device.queue_sets[nqe.queue_set_id % len(device.queue_sets)]
        control_ring, data_ring = device.consume_rings(qs)
        ring = data_ring if event else control_ring
        if ring.try_push(nqe, owner=home):
            device.wake()
        else:
            home._count_backpressure_drop(nqe.vm_id)
            home._drop_nqe(nqe)

    def _free_payload(self, nqe: Nqe) -> None:
        """Free the hugepage buffer an NQE references, if any."""
        if not nqe.data_ptr:
            return
        region = self.switch._vm_regions.get(nqe.vm_id)
        if region is None:
            return
        buffer = region.lookup(nqe.data_ptr)
        if buffer is not None and not buffer.freed:
            buffer.free()

    # -- overload control (repro.core.overload) --------------------------------

    def enable_overload_control(self):
        """Arm the overload governor for this engine (idempotent).

        Off by default so un-governed timelines are byte-identical to
        earlier builds; with it on, GuestLibs gate op issue on
        ``admit()``, ServiceLibs clamp their receive windows, and the
        switch arms its per-VM EAGAIN shed backstop.
        """
        if self.overload is not None:
            return self.overload
        from repro.core.overload import OverloadGovernor
        self.overload = OverloadGovernor(self.sim, self)
        return self.overload

    # -- cross-shard handoff ---------------------------------------------------

    def _drain_handoffs(self):
        """Deliver every NQE peer shards handed to this one, in FIFO
        order, through the stock delivery path (fault hooks, backpressure
        budget and liveness checks apply here, once)."""
        inbox = self._inbound
        while inbox:
            dring, nqe, device = inbox.popleft()
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
        faults = self.switch.faults
        if (device is not None and faults is not None
                and faults.should_drop_doorbell(device)):
            return  # injected doorbell loss: the MMIO write vanished
        if device is not None:
            reg = device.ce_registration
            # _mark_ready's already-ready reject, inlined: bursts usually
            # kick a device that is still queued for service.
            if reg is not None and reg.active and reg.state != _READY:
                self._mark_ready(reg)
        else:
            for registry in (self.switch._vms, self.switch._nsms):
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
            if self._inbound:
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
            bw = self.switch._bw_limits.get(reg.numeric_id)
            ops = self.switch._op_limits.get(reg.numeric_id)
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
        vm_id = reg.numeric_id
        obs = self.switch.obs
        # Overload accounting applies to VM egress only.
        ov = self.overload if is_vm else None
        resolve = self._resolve_vm_to_nsm if is_vm else self._resolve_nsm_to_vm
        deliver_fast = self._deliver_fast
        for i in range(count):
            nqe = nqes[i]
            nqes[i] = None
            if is_vm:
                # The guest writes vm_id; the switch knows which device
                # it polled.  Stamping it keeps a spoofed id from
                # reaching a neighbour's sockets or hugepages: the op
                # acts on the spoofer's own tuple instead.
                nqe.vm_id = vm_id
            if obs is not None:
                obs.tracer.ce_switch(nqe, role)
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
        switch = self.switch
        table = switch.table
        vm_tuple = (nqe.vm_id, nqe.queue_set_id, nqe.socket_id)
        entry = table.lookup_vm(vm_tuple)
        if entry is None:
            nsm_id = switch.vm_to_nsm.get(reg.numeric_id)
            if nsm_id is None:
                if reg.numeric_id in switch._orphaned_vms:
                    # The serving NSM was deregistered and no standby
                    # exists.  Raising here would kill the switch for
                    # every tenant; fail the op fast instead.
                    self._fail_fast_nqe(nqe)
                    return None
                raise ConfigurationError(
                    f"VM {reg.numeric_id} has no NSM assigned")
            nsm_reg = switch._nsms.get(nsm_id)
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
            entry = table.insert(vm_tuple, nsm_id, qset)
            if op is NqeOp.ACCEPT_ATTACH:
                # The NSM socket already exists; complete the entry now.
                try:
                    table.complete(vm_tuple, nqe.op_data)
                except ConnectionTableError:
                    # op_data names an NSM socket another tuple holds.
                    # An attach carries no token for an OP_RESULT, so
                    # the guest's socket gets an EINVAL ERROR_EVENT.
                    table.remove_vm(vm_tuple)
                    self._push_to_vm(nqe.response(
                        NqeOp.ERROR_EVENT,
                        op_data=-RESULT_ERRNO["EINVAL"]), event=True)
                    NQE_POOL.release(nqe)
                    return None
        nsm_reg = switch._nsms.get(entry.nsm_id)
        if nsm_reg is None or not nsm_reg.active:
            # The serving NSM died between insert and this switch.
            table.remove_vm(vm_tuple)
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
            self.switch._last_ack[reg.numeric_id] = self.sim._now
            NQE_POOL.release(nqe)
            return None
        vm_reg = self.switch._vms.get(nqe.vm_id)
        if vm_reg is None:
            self._drop_nqe(nqe)  # VM shut down
            return None
        if op is NqeOp.OP_RESULT:
            # Connection-table bookkeeping applies only to results; the
            # event path skips the tuple build and lookup entirely.
            table = self.switch.table
            vm_tuple = (nqe.vm_id, nqe.queue_set_id, nqe.socket_id)
            entry = table.lookup_vm(vm_tuple)
            if entry is not None and not entry.complete and nqe.op_data > 0:
                # Fig. 6 step (4): response carries the NSM socket id.
                # Only a positive op_data announces one — ServiceLib's
                # ids start at 1, and a 0 is a plain success status
                # (completing on those used to alias every control-op
                # entry onto NSM socket 0; the table now rejects such
                # collisions instead of silently last-writer-winning).
                table.complete(vm_tuple, nqe.op_data)
            aux = nqe.aux
            if type(aux) is dict and aux.get("req_op") == NqeOp.CLOSE:
                table.remove_vm(vm_tuple)
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
            home._inbound.append((ring, nqe, target_device))
            home._wake_switch()
            return True
        if self.switch.faults is not None:
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
        faults = self.switch.faults
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
                deadline = self.sim._now + self.switch.deliver_stall_budget
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
            "connections": len(self.switch.table),
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
