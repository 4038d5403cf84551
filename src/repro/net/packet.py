"""Packets on the simulated wire.

A packet carries a transport-layer payload (for us, a TCP segment object)
plus the header fields the network layer needs: endpoints, size, and the
ECN codepoint used by DCTCP-style congestion control.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Tuple

#: Bytes of L2+L3+L4 headers added to every packet on the wire.
HEADER_BYTES = 66

_packet_ids = itertools.count(1)

Address = Tuple[str, int]  # (host id, port)


class Packet:
    """One packet in flight.

    On a link a packet is its own simulator heap entry
    (``Link.transmit`` pushes it): ``_link`` and ``_deliver`` name the
    hop it is on, and the simulator calls :meth:`_process` when the hop
    ends.  A packet is on at most one hop at a time.
    """

    __slots__ = ("packet_id", "src", "dst", "payload_bytes", "size",
                 "segment", "ecn_capable", "ecn_marked", "enqueued_at",
                 "sent_at", "_link", "_deliver")

    #: A hop is never cancelled (the simulator's lazy-deletion flag).
    _cancelled = False

    def __init__(self, src: Address, dst: Address, payload_bytes: int,
                 segment: Any = None, ecn_capable: bool = False):
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        self.packet_id = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.payload_bytes = payload_bytes
        #: Wire size in bytes, headers included.
        self.size = payload_bytes + HEADER_BYTES
        self.segment = segment
        self.ecn_capable = ecn_capable
        self.ecn_marked = False
        self.enqueued_at: Optional[float] = None
        self.sent_at: Optional[float] = None

    def _process(self) -> None:
        """End the link hop: the packet reaches the far end of ``_link``."""
        link = self._link
        size = self.size
        # Backlog is freed at delivery rather than at the end of
        # serialization — a delay_sec-worth of over-count, negligible
        # next to the queue size, and it halves the event count.
        link._backlog_bytes -= size
        self.sent_at = link.sim._now
        link.delivered_packets += 1
        link.delivered_bytes += size
        self._deliver(self)

    @property
    def src_host(self) -> str:
        return self.src[0]

    @property
    def dst_host(self) -> str:
        return self.dst[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Packet #{self.packet_id} {self.src}->{self.dst} "
                f"{self.payload_bytes}B>")
