"""The simulator: clock, event heap, and run loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.event import AllOf, AnyOf, Call, Event, Timeout


class Simulator:
    """Owns simulated time and processes events in timestamp order.

    Ties are broken by insertion order so the simulation is deterministic.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        # Lifetime counters (the perf harness reads these).
        self.events_processed = 0
        self.events_cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event creation ----------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events) -> AnyOf:
        """Composite event: fires when any of ``events`` fires."""
        return AnyOf(self, list(events))

    def all_of(self, events) -> AllOf:
        """Composite event: fires when all of ``events`` have fired."""
        return AllOf(self, list(events))

    def process(self, generator: Generator) -> "Process":
        """Start a new process running ``generator`` now."""
        from repro.sim.process import Process

        return Process(self, generator)

    def call_at(self, when: float, fn: Callable[[], None]) -> Call:
        """Run ``fn`` at absolute simulated time ``when``."""
        now = self._now
        if when < now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={now})"
            )
        # Scheduled at now + (when - now), not at ``when``: the float sum
        # is the due time every timeline was recorded with.
        return Call(self, now + (when - now), fn)

    def call_due(self, when: float, fn: Callable[[], None]) -> Call:
        """Run ``fn`` at exactly ``when``: the heap key is ``when`` itself,
        not :meth:`call_at`'s float sum.  A timer that keeps its own
        absolute deadline re-pushes with this, so it fires at the very
        instant it was armed for."""
        if when < self._now:
            raise SimulationError(
                f"call_due({when}) is in the past (now={self._now})"
            )
        return Call(self, when, fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> Call:
        """Run ``fn`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        return Call(self, self._now + delay, fn)

    def every(self, interval: float, fn: Callable[[], None],
              start_delay: float = 0.0) -> "Process":
        """Run ``fn`` periodically, every ``interval`` seconds, starting
        ``start_delay`` from now.  ``fn`` returning ``False`` stops the
        series (any other return value continues it).  Returns the
        driving process, whose generator ends when the series stops."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval}")

        def ticker():
            if start_delay > 0:
                yield self.timeout(start_delay)
            while True:
                if fn() is False:
                    return
                yield self.timeout(interval)

        return self.process(ticker())

    # -- scheduling internals -----------------------------------------------

    def _queue_event(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    # -- run loop ------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event.

        Cancelled timeouts (lazy heap deletion, see Timeout.cancel) are
        popped and discarded without running callbacks; the clock still
        advances to their due time, exactly as if they had fired as
        no-ops, so cancellation never perturbs the simulated timeline.
        """
        if not self._heap:
            raise SimulationError("step() with no scheduled events")
        when, _seq, event = heapq.heappop(self._heap)
        self._now = when
        if event._cancelled:
            self.events_cancelled += 1
            return
        self.events_processed += 1
        event._process()

    def peek(self) -> Optional[float]:
        """Timestamp of the next event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so periodic measurement code
        sees a full window.
        """
        if until is None:
            horizon = float("inf")
        elif until < self._now:
            raise SimulationError(f"run(until={until}) is in the past")
        else:
            horizon = until
        # step() inlined: one pop per event, in step()'s order and with
        # its accounting, so the timeline is bit-identical to a step() loop.
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= horizon:
            when, _seq, event = pop(heap)
            self._now = when
            if event._cancelled:
                self.events_cancelled += 1
                continue
            self.events_processed += 1
            event._process()
        if until is not None and self._now < until:
            self._now = until

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` has been processed; return its value.

        ``limit`` bounds the simulated time to protect against deadlock in
        tests; exceeding it raises :class:`SimulationError`.
        """
        while not event.processed:
            if not self._heap:
                raise SimulationError("deadlock: event can never trigger")
            if self._now > limit:
                raise SimulationError(f"run_until_event exceeded limit {limit}")
            self.step()
        return event.value
