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
    """One packet in flight."""

    __slots__ = ("packet_id", "src", "dst", "payload_bytes", "size",
                 "segment", "ecn_capable", "ecn_marked", "enqueued_at",
                 "sent_at")

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

    @property
    def src_host(self) -> str:
        return self.src[0]

    @property
    def dst_host(self) -> str:
        return self.dst[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Packet #{self.packet_id} {self.src}->{self.dst} "
                f"{self.payload_bytes}B>")
