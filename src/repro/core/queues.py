"""Queue sets: the four lockless rings of one NK-device lane (§4.2).

Each queue set has a *job* queue (control operations, VM→NSM), a
*completion* queue (execution results, NSM→VM), a *send* queue (operations
with data, VM→NSM) and a *receive* queue (new-data events, NSM→VM).  Each
ring is shared memory with CoreEngine, making every ring single-producer /
single-consumer (§3).
"""

from __future__ import annotations

from typing import List

from repro.mem.ring import SpscRing

#: Default ring capacity in NQEs (ring bytes / 32B per element).
DEFAULT_RING_SLOTS = 4096


class QueueSet:
    """One per-vCPU lane of four SPSC rings."""

    def __init__(self, owner_id: str, index: int,
                 slots: int = DEFAULT_RING_SLOTS):
        self.owner_id = owner_id
        self.index = index
        prefix = f"{owner_id}.qs{index}"
        self.job = SpscRing(slots, name=f"{prefix}.job")
        self.completion = SpscRing(slots, name=f"{prefix}.completion")
        self.send = SpscRing(slots, name=f"{prefix}.send")
        self.receive = SpscRing(slots, name=f"{prefix}.receive")

    # The guest (or ServiceLib) side produces on job/send and consumes on
    # completion/receive; CoreEngine does the inverse.  Direction helpers
    # keep call sites readable.

    @property
    def outbound(self) -> List[SpscRing]:
        """Rings this device produces into (toward CoreEngine)."""
        return [self.job, self.send]

    @property
    def inbound(self) -> List[SpscRing]:
        """Rings this device consumes from (filled by CoreEngine)."""
        return [self.completion, self.receive]

    def outbound_depth(self) -> int:
        return len(self.job) + len(self.send)

    def inbound_depth(self) -> int:
        return len(self.completion) + len(self.receive)

    def stats(self) -> dict:
        """Per-ring produced/consumed/rejection counters."""
        return {
            ring.name: {
                "produced": ring.produced,
                "consumed": ring.consumed,
                "full_rejections": ring.full_rejections,
                "depth": len(ring),
            }
            for ring in (self.job, self.completion, self.send, self.receive)
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QueueSet {self.owner_id}#{self.index}>"
