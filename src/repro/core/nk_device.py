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
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.nqe import Nqe
from repro.core.queues import DEFAULT_RING_SLOTS, QueueSet
from repro.errors import ConfigurationError
from repro.mem.hugepages import HugepageRegion
from repro.mem.ring import SpscRing
from repro.sim.event import Event, PENDING as EVENT_PENDING

ROLE_VM = "vm"
ROLE_NSM = "nsm"


class NKDevice:
    """Queue sets + hugepage mapping + notification for one VM or NSM."""

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
        #: Ring capacity of every lane, hot-added ones included.
        self.ring_slots = ring_slots
        self.queue_sets: List[QueueSet] = [
            QueueSet(owner_id, i, slots=ring_slots) for i in range(queue_sets)
        ]
        self.hugepages = hugepages
        self.poll_window_sec = poll_window_sec
        #: Doorbell toward CoreEngine (installed at registration); called
        #: with this device so the CE can mark exactly it ready (§4.3).
        self.doorbell: Optional[Callable[["NKDevice"], None]] = None
        #: Back-reference installed by CoreEngine at registration; lets a
        #: device-carrying doorbell resolve to its scheduler entry in O(1).
        self.ce_registration = None
        #: Event consumers wait on; re-armed after each wake.
        self._wake_event = sim.event()
        self._poll_started_at: Optional[float] = None
        # Statistics (§4.6 evaluation of interrupt-driven polling).
        self.wakeups_polled = 0
        self.wakeups_interrupt = 0

    def add_queue_set(self) -> QueueSet:
        """Hot-add one queue-set lane (§4.4: "queues can be dynamically
        added or removed with the number of vCPUs"), sized like the
        device's other lanes."""
        qs = QueueSet(self.owner_id, len(self.queue_sets),
                      slots=self.ring_slots)
        self.queue_sets.append(qs)
        return qs

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

    def ring_doorbell(self) -> None:
        """Tell CoreEngine that freshly produced NQEs are waiting.

        The doorbell identifies the kicking device, so CoreEngine's
        ready-set scheduler services just this device instead of
        rescanning every registered one.
        """
        if self.doorbell is not None:
            self.doorbell(self)

    def wake(self) -> None:
        """CoreEngine delivered inbound NQEs: wake a sleeping consumer.

        Fires only when a consumer is actually parked on the wake event:
        a process registers its resume callback in the same step that it
        yields (check-rings-then-wait is atomic in the cooperative sim),
        so ``callbacks`` is empty exactly when nobody is waiting and a
        succeed would only queue a ghost event nobody observes.  Batched
        deliveries used to queue one such ghost per NQE after the first —
        pure event-loop churn, skipped identically in vectorized and
        scalar switching so the A/B timelines stay bit-identical.
        """
        if self._poll_started_at is not None:
            elapsed = self.sim._now - self._poll_started_at
            if elapsed <= self.poll_window_sec:
                self.wakeups_polled += 1
            else:
                self.wakeups_interrupt += 1
            self._poll_started_at = None
        event = self._wake_event
        if event.callbacks and event._state == EVENT_PENDING:
            event.succeed()
            self._wake_event = Event(self.sim)

    def wait_for_inbound(self):
        """Event to yield on when every consume ring is empty.

        Marks the start of the polling window for wake accounting.
        """
        if self._poll_started_at is None:
            self._poll_started_at = self.sim.now
        return self._wake_event

    # -- bulk access ------------------------------------------------------------------

    def consume_pending(self) -> bool:
        vm = self.role == ROLE_VM
        for qs in self.queue_sets:
            if vm:
                if qs.completion._count or qs.receive._count:
                    return True
            elif qs.job._count or qs.send._count:
                return True
        return False

    def produce_pending(self) -> bool:
        # Checked once per serviced device by the ready-set scheduler, so
        # the ring directions are inlined instead of built as tuples.
        vm = self.role == ROLE_VM
        for qs in self.queue_sets:
            if vm:
                if qs.job._count or qs.send._count:
                    return True
            elif qs.completion._count or qs.receive._count:
                return True
        return False

    def drain_consume(self, max_items: int, consumer: object) -> List[Nqe]:
        """Pop up to ``max_items`` NQEs across this owner's consume rings."""
        batch: List[Nqe] = []
        n = self.drain_consume_into(batch, max_items, consumer)
        del batch[n:]
        return batch

    def drain_consume_into(self, buf: List[Nqe], max_items: int,
                           consumer: object) -> int:
        """Allocation-free :meth:`drain_consume`: fill ``buf[0:n]``, return n.

        ``buf`` is a caller-owned scratch list reused across passes
        (grown on demand, never shrunk); slots past ``n`` are stale.
        """
        filled = 0
        for qs in self.queue_sets:
            for ring in self.consume_rings(qs):
                if filled >= max_items:
                    return filled
                filled += ring.drain_into(buf, max_items - filled,
                                          owner=consumer, start=filled)
        return filled

    def ring_depths(self) -> dict:
        """Current and peak occupancy per ring, for obs samplers."""
        depths = {}
        for qs in self.queue_sets:
            for ring_name in ("job", "send", "completion", "receive"):
                ring = getattr(qs, ring_name)
                depths[f"qs{qs.index}.{ring_name}"] = {
                    "depth": len(ring),
                    "peak": ring.peak_depth,
                    "capacity": ring.capacity,
                }
        return depths

    def stats(self) -> dict:
        merged = {}
        for qs in self.queue_sets:
            merged.update(qs.stats())
        merged["wakeups_polled"] = self.wakeups_polled
        merged["wakeups_interrupt"] = self.wakeups_interrupt
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<NKDevice {self.owner_id} role={self.role} "
                f"x{len(self.queue_sets)}>")
