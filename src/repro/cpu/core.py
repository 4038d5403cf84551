"""A simulated CPU core.

A :class:`Core` serializes work: processes submit an amount of work in
cycles and wait for it to finish.  The core keeps a per-component busy-cycle
ledger so experiments can report CPU usage the way the paper does (total
cycles spent by the VM, the NSM, and CoreEngine — §7.8).
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.errors import ResourceError
from repro.units import PAPER_CORE_HZ

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Core:
    """One physical core with a clock rate, executing work FIFO."""

    def __init__(self, sim: "Simulator", name: str = "core",
                 hz: float = PAPER_CORE_HZ):
        if hz <= 0:
            raise ResourceError(f"core clock must be positive, got {hz}")
        self.sim = sim
        self.name = name
        self.hz = hz
        self.busy_cycles: float = 0.0
        #: A plain dict: while it maps str to float the collector does
        #: not track it (a defaultdict is always tracked).
        self.busy_by_component: Dict[str, float] = {}
        # Time at which the core finishes everything currently queued.
        self._free_at: float = 0.0

    def execute(self, cycles: float, component: str = "unattributed") -> float:
        """Submit ``cycles`` of work; returns the seconds from now until
        it completes, for a process to yield (``yield core.execute(...)``
        resumes it at completion, with no event allocated).

        Work is serialized: if the core is busy, the new work starts when
        the queue drains.  ``component`` labels the cycles in the ledger.
        """
        if cycles < 0:
            raise ResourceError(f"negative work: {cycles}")
        self.busy_cycles += cycles
        try:
            self.busy_by_component[component] += cycles
        except KeyError:
            self.busy_by_component[component] = float(cycles)
        now = self.sim._now
        start = self._free_at if self._free_at > now else now
        self._free_at = start + cycles / self.hz
        return self._free_at - now

    def charge(self, cycles: float, component: str = "unattributed") -> None:
        """Account cycles without modelling their latency.

        Used for background work (polling loops) whose cost matters for
        the CPU-usage ledger but whose latency is modelled elsewhere.
        """
        if cycles < 0:
            raise ResourceError(f"negative work: {cycles}")
        self.busy_cycles += cycles
        try:
            self.busy_by_component[component] += cycles
        except KeyError:
            self.busy_by_component[component] = float(cycles)

    def execute_nowait(self, cycles: float,
                       component: str = "unattributed") -> None:
        """Occupy core time without returning a completion delay.

        Same timeline effect as :meth:`execute` (later work queues behind
        it) — the fast path for per-packet stack work nobody waits on
        directly.
        """
        if cycles < 0:
            raise ResourceError(f"negative work: {cycles}")
        self.busy_cycles += cycles
        try:
            self.busy_by_component[component] += cycles
        except KeyError:
            self.busy_by_component[component] = float(cycles)
        now = self.sim._now
        start = self._free_at if self._free_at > now else now
        self._free_at = start + cycles / self.hz

    @property
    def busy_until(self) -> float:
        """Simulated time at which currently queued work completes."""
        return self._free_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.name} {self.hz / 1e9:.2f}GHz>"
