"""Queue sets: the four lockless rings of one NK-device lane (§4.2).

Each queue set has a *job* queue (control operations, VM→NSM), a
*completion* queue (execution results, NSM→VM), a *send* queue (operations
with data, VM→NSM) and a *receive* queue (new-data events, NSM→VM).  Each
ring is shared memory with CoreEngine, making every ring single-producer /
single-consumer (§3).
"""

from __future__ import annotations

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QueueSet {self.owner_id}#{self.index}>"
