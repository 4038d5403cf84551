"""The hugepage region shared between a VM and its NSM (§4.5, §5).

The paper uses QEMU IVSHMEM with 128 pages of 2 MiB.  We model the region
as a real allocator over that byte budget, and buffers carry real payload
bytes so that tests can verify end-to-end data integrity through the whole
NetKernel path (GuestLib copy-in → NQE data pointer → ServiceLib copy-out).

Data pointers in NQEs are modelled as integer buffer ids issued by the
region, mirroring the paper's "data pointer is a pointer to application
data in hugepages".
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import HugepageExhaustedError, ResourceError
from repro.units import MiB

#: The paper's configuration: 2 MiB pages, 128 of them (§5).
PAGE_SIZE = MiB(2)
DEFAULT_PAGE_COUNT = 128


class HugepageBuffer:
    """One allocated chunk inside the region, holding real bytes."""

    __slots__ = ("buffer_id", "size", "data", "_region", "freed")

    def __init__(self, buffer_id: int, size: int, region: "HugepageRegion"):
        self.buffer_id = buffer_id
        self.size = size
        self.data: bytes = b""
        self._region = region
        self.freed = False

    def write(self, data: bytes) -> None:
        """Copy application bytes into the buffer (GuestLib's copy-in).

        Accepts any bytes-like object.  ``bytes(data)`` materializes a
        memoryview in one copy — this is the single charged copy at the
        guest boundary — and *adopts* an immutable ``bytes`` object
        without copying (CPython returns it as-is), which is what makes
        the zero-copy hand-off chain through the datapath hold.
        """
        if self.freed:
            raise ResourceError(f"write to freed buffer {self.buffer_id}")
        if len(data) > self.size:
            raise ResourceError(
                f"write of {len(data)} B into {self.size} B buffer"
            )
        self.data = bytes(data)

    def read(self) -> bytes:
        """Copy the bytes out (ServiceLib's copy-out)."""
        if self.freed:
            raise ResourceError(f"read of freed buffer {self.buffer_id}")
        return self.data

    def free(self) -> None:
        self._region.free(self)


class HugepageRegion:
    """Allocator over the shared hugepage memory of one VM–NSM pair."""

    def __init__(self, page_count: int = DEFAULT_PAGE_COUNT,
                 page_size: int = PAGE_SIZE, name: str = "hugepages"):
        if page_count < 1 or page_size < 1:
            raise ResourceError("hugepage region needs >=1 page of >=1 byte")
        self.name = name
        self.capacity = page_count * page_size
        self.allocated = 0
        self._next_id = 1
        self._buffers: Dict[int, HugepageBuffer] = {}
        # Lifetime statistics.
        self.total_allocs = 0
        self.total_frees = 0
        self.peak_allocated = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.allocated

    @property
    def live_buffers(self) -> int:
        return len(self._buffers)

    def alloc(self, size: int) -> HugepageBuffer:
        """Allocate a buffer of ``size`` bytes.

        Raises :class:`HugepageExhaustedError` when the region cannot hold
        the buffer — the signal GuestLib uses for send-buffer backpressure.
        """
        if size < 0:
            raise ResourceError(f"negative allocation: {size}")
        if size > self.free_bytes:
            raise HugepageExhaustedError(
                f"{self.name}: need {size} B, only {self.free_bytes} B free"
            )
        buffer = HugepageBuffer(self._next_id, size, self)
        self._next_id += 1
        self._buffers[buffer.buffer_id] = buffer
        self.allocated += size
        self.total_allocs += 1
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        return buffer

    def try_alloc(self, size: int) -> Optional[HugepageBuffer]:
        """Allocate, or return None when the region is exhausted."""
        try:
            return self.alloc(size)
        except HugepageExhaustedError:
            return None

    def get(self, buffer_id: int) -> HugepageBuffer:
        """Resolve a data pointer (buffer id) carried in an NQE."""
        buffer = self._buffers.get(buffer_id)
        if buffer is None:
            raise ResourceError(
                f"{self.name}: dangling data pointer {buffer_id}"
            )
        return buffer

    def lookup(self, buffer_id: int) -> Optional[HugepageBuffer]:
        """Resolve a data pointer, or None if it no longer lives here
        (used on drop paths where a dangling pointer is not a bug)."""
        return self._buffers.get(buffer_id)

    def watermarks(self) -> Dict[str, int]:
        """Occupancy snapshot for the obs report (bytes and buffer counts)."""
        return {
            "capacity": self.capacity,
            "allocated": self.allocated,
            "free": self.free_bytes,
            "peak_allocated": self.peak_allocated,
            "live_buffers": self.live_buffers,
            "total_allocs": self.total_allocs,
            "total_frees": self.total_frees,
        }

    def free(self, buffer: HugepageBuffer) -> None:
        """Release a buffer back to the region."""
        if buffer.freed:
            raise ResourceError(
                f"{self.name}: double free of buffer {buffer.buffer_id}"
            )
        if buffer.buffer_id not in self._buffers:
            raise ResourceError(
                f"{self.name}: foreign buffer {buffer.buffer_id}"
            )
        del self._buffers[buffer.buffer_id]
        self.allocated -= buffer.size
        self.total_frees += 1
        buffer.freed = True
        buffer.data = b""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<HugepageRegion {self.name} "
                f"{self.allocated}/{self.capacity} B in use>")
