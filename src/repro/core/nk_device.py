"""The NK device: a virtual device of queue sets plus notification state.

Each VM and each NSM has one NK device (§4).  Ring direction depends on
the device's role: a **VM** device produces into its job/send rings and
consumes completion/receive; an **NSM** device is the mirror image —
ServiceLib consumes job/send and produces completion/receive.  CoreEngine
always sits on the other end of every ring, which is what keeps each ring
single-producer / single-consumer (§3).

The device implements interrupt-driven polling for its consumer (§4.6):
the consumer polls for a short window (20 µs by default) and then sleeps
until CoreEngine wakes the device.  Wakeups landing inside the window are
counted as polled (cheap); later ones as interrupts.

A consumer (GuestLib or ServiceLib) attaches at registration, but its
pollers start on the device's first wake: an idle VM or NSM runs no
poller process at all.  Attaching opens the poll window exactly where a
poller parked at boot used to open it, and the pollers' start takes the
heap slot that poller's wake event took, so the simulated timeline is
the same as with pollers started at boot.

The lanes themselves (one :class:`QueueSet` of four rings per vCPU) are
built on the first read of ``queue_sets``: the guest's first push, the
switch's first delivery to the device, or a test that pushes straight
into the rings.  An idle VM owns no ring at all.  Walkers that only read
or drain what was produced (the switch's scheduler and drains, the
overload governor's occupancy sample, reclaim, migration's parked-op
count, ``ring_depths``) read ``built_queue_sets`` instead, which is
empty until the lanes exist, so looking never builds them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.queues import DEFAULT_RING_SLOTS, QueueSet
from repro.errors import ConfigurationError
from repro.mem.hugepages import HugepageRegion
from repro.mem.ring import SpscRing
from repro.sim.event import Event

ROLE_VM = "vm"
ROLE_NSM = "nsm"

#: The four rings of a lane, in report order.
RING_NAMES = ("job", "send", "completion", "receive")


class _Lanes:
    """``NKDevice.queue_sets``: the device's lanes, built on first read.

    A non-data descriptor: the first read builds the lanes and stores
    them as an ordinary instance attribute, which shadows the
    descriptor, so every later read is a plain attribute load with no
    call (a ``property`` would cost one call per read on the datapath).
    """

    def __get__(self, device, owner=None):
        if device is None:
            return self
        lanes = device.queue_sets = device.built_queue_sets = [
            QueueSet(device.owner_id, i, slots=device.ring_slots)
            for i in range(device.lane_count)]
        return lanes


class NKDevice:
    """Queue sets + hugepage mapping + notification for one VM or NSM."""

    queue_sets: List[QueueSet] = _Lanes()

    def __init__(self, sim, owner_id: str, role: str, queue_sets: int,
                 hugepages: HugepageRegion,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 poll_window_sec: float = 20e-6):
        if queue_sets < 1:
            raise ConfigurationError("NK device needs >=1 queue set")
        if role not in (ROLE_VM, ROLE_NSM):
            raise ConfigurationError(f"unknown NK device role: {role}")
        self.sim = sim
        self.owner_id = owner_id
        self.role = role
        self.lane_count = queue_sets
        self.ring_slots = ring_slots
        #: ``queue_sets`` once something has read it; until then empty.
        self.built_queue_sets: Sequence[QueueSet] = ()
        self.hugepages = hugepages
        self.poll_window_sec = poll_window_sec
        #: Back-reference installed by CoreEngine at registration: the
        #: doorbell kicks its shard (``engine``), which resolves the
        #: device to its scheduler entry in O(1).
        self.ce_registration = None
        #: Event consumers wait on, built by the first wait after a wake.
        self._wake_event: Optional[Event] = None
        self._poll_started_at: Optional[float] = None
        #: The attached consumer whose pollers have not started yet.
        self._consumer = None
        # Statistics (§4.6 evaluation of interrupt-driven polling).
        self.wakeups_polled = 0
        self.wakeups_interrupt = 0

    # -- ring direction ---------------------------------------------------------

    def produce_rings(self, qs: QueueSet) -> Tuple[SpscRing, SpscRing]:
        """(control ring, data ring) this device's owner produces into."""
        if self.role == ROLE_VM:
            return (qs.job, qs.send)
        return (qs.completion, qs.receive)

    def consume_rings(self, qs: QueueSet) -> Tuple[SpscRing, SpscRing]:
        """(control ring, data ring) this device's owner consumes from."""
        if self.role == ROLE_VM:
            return (qs.completion, qs.receive)
        return (qs.job, qs.send)

    def queue_set_for(self, vcpu_index: int) -> QueueSet:
        """The lane a given vCPU produces into (single-producer rule)."""
        return self.queue_sets[vcpu_index % len(self.queue_sets)]

    # -- notifications -------------------------------------------------------------

    def attach_consumer(self, consumer) -> None:
        """Attach the consumer of this device's consume rings.

        ``consumer.poller(i)`` is the generator that drains queue set
        ``i``; the first :meth:`wake` starts one per queue set.  The poll
        window opens now, as if a poller had parked at boot.
        """
        self._consumer = consumer
        self._poll_started_at = self.sim._now

    def ring_doorbell(self) -> None:
        """Tell CoreEngine that freshly produced NQEs are waiting.

        The doorbell identifies the kicking device, so CoreEngine's
        ready-set scheduler services just this device instead of
        rescanning every registered one.
        """
        reg = self.ce_registration
        if reg is not None:
            reg.engine.kick(self)

    def wake(self) -> None:
        """CoreEngine delivered inbound NQEs: wake a sleeping consumer.

        Fires only when a consumer is actually parked on the wake event:
        a process registers its resume callback in the same step that it
        yields (check-rings-then-wait is atomic in the cooperative sim),
        so ``callbacks`` is empty exactly when nobody is waiting and a
        succeed would only queue a ghost event nobody observes.  Batched
        deliveries used to queue one such ghost per NQE after the first —
        pure event-loop churn.

        The first wake also starts the attached consumer's pollers: their
        start events take the heap slot a parked poller's wake event took.
        """
        if self._poll_started_at is not None:
            elapsed = self.sim._now - self._poll_started_at
            if elapsed <= self.poll_window_sec:
                self.wakeups_polled += 1
            else:
                self.wakeups_interrupt += 1
            self._poll_started_at = None
        consumer = self._consumer
        if consumer is not None:
            self._consumer = None
            for idx in range(self.lane_count):
                self.sim.process(consumer.poller(idx))
        event = self._wake_event
        if event is not None and event.callbacks:
            event.succeed()
            self._wake_event = None

    def wait_for_inbound(self):
        """Event to yield on when every consume ring is empty.

        Marks the start of the polling window for wake accounting.
        """
        if self._poll_started_at is None:
            self._poll_started_at = self.sim._now
        event = self._wake_event
        if event is None:
            event = self._wake_event = Event(self.sim)
        return event

    # -- bulk access ------------------------------------------------------------------

    def produce_pending(self) -> bool:
        # Checked once per serviced device by the ready-set scheduler, so
        # the ring directions are inlined instead of built as tuples.
        vm = self.role == ROLE_VM
        for qs in self.built_queue_sets:
            if vm:
                if qs.job._count or qs.send._count:
                    return True
            elif qs.completion._count or qs.receive._count:
                return True
        return False

    def ring_depths(self) -> dict:
        """Current and peak occupancy per ring, for the obs report.  An
        unbuilt lane reads as empty rings and stays unbuilt."""
        depths = {}
        built = self.built_queue_sets
        for index in range(self.lane_count):
            for ring_name in RING_NAMES:
                if built:
                    ring = getattr(built[index], ring_name)
                    depth = {"depth": len(ring), "peak": ring.peak_depth,
                             "capacity": ring.capacity}
                else:
                    depth = {"depth": 0, "peak": 0,
                             "capacity": self.ring_slots}
                depths[f"qs{index}.{ring_name}"] = depth
        return depths

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<NKDevice {self.owner_id} role={self.role} "
                f"x{self.lane_count}>")
