"""A unidirectional link: serialization rate, propagation delay, and a
drop-tail queue with optional ECN marking and fault injection."""

from __future__ import annotations

import random
from heapq import heappush
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

DeliverFn = Callable[[Packet], None]


class Link:
    """Models an output port: queue → serialize at ``rate_bps`` → propagate.

    The queue is drop-tail over bytes.  If ``ecn_threshold_bytes`` is set,
    packets admitted while the backlog exceeds the threshold get their ECN
    codepoint marked (the DCTCP switch behaviour).  ``loss_rate`` injects
    independent random drops for failure-injection tests.
    """

    def __init__(self, sim: "Simulator", rate_bps: float,
                 delay_sec: float = 10e-6,
                 queue_bytes: int = 512 * 1024,
                 ecn_threshold_bytes: Optional[int] = None,
                 loss_rate: float = 0.0,
                 seed: int = 1, name: str = "link"):
        if rate_bps <= 0:
            raise ConfigurationError(f"link rate must be positive: {rate_bps}")
        if delay_sec < 0:
            raise ConfigurationError(f"negative delay: {delay_sec}")
        if queue_bytes < 1:
            raise ConfigurationError(f"queue must hold >=1 byte: {queue_bytes}")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(f"loss rate out of range: {loss_rate}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_sec = delay_sec
        self.queue_bytes = queue_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.loss_rate = loss_rate
        self.name = name
        self._rng = random.Random(seed)
        self._backlog_bytes = 0
        self._busy_until = 0.0
        # Lifetime statistics.
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.dropped_packets = 0
        self.marked_packets = 0

    @property
    def backlog_bytes(self) -> int:
        return self._backlog_bytes

    def transmit(self, packet: Packet, deliver: DeliverFn) -> bool:
        """Enqueue ``packet``; call ``deliver`` when it reaches the far end.

        Returns False when the packet was dropped (queue overflow or
        injected loss).
        """
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.dropped_packets += 1
            return False
        size = packet.size
        backlog = self._backlog_bytes
        if backlog + size > self.queue_bytes:
            self.dropped_packets += 1
            return False
        if (packet.ecn_capable and self.ecn_threshold_bytes is not None
                and backlog >= self.ecn_threshold_bytes):
            packet.ecn_marked = True
            self.marked_packets += 1

        sim = self.sim
        now = sim._now
        packet.enqueued_at = now
        self._backlog_bytes = backlog + size
        serialize = size * 8.0 / self.rate_bps
        busy_until = self._busy_until
        start = busy_until if busy_until > now else now
        self._busy_until = done_at = start + serialize
        # The packet is its own heap entry: Packet._process frees the
        # backlog and calls ``deliver`` when the simulator pops it.  It
        # is keyed at now + (due - now), not at ``due``: the float sum
        # is the due time every timeline was recorded with.
        packet._link = self
        packet._deliver = deliver
        due = done_at + self.delay_sec
        heappush(sim._heap, (now + (due - now), sim._seq, packet))
        sim._seq += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.rate_bps / 1e9:.1f}Gbps>"
