"""Events: the unit of synchronization in the simulator.

An :class:`Event` starts *pending*, is *triggered* with a value (or failed
with an exception), and then runs its callbacks exactly once.  Processes
wait on events by yielding them.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """A one-shot occurrence in simulated time.

    Callbacks are callables taking the event itself; they run when the
    simulator processes the event after it has been triggered.

    Events are the simulator's highest-volume allocation, so the whole
    hierarchy uses ``__slots__``; attach per-use payloads via the event
    value, not ad-hoc attributes.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_exception")

    #: Class-level default; only :class:`Timeout` instances ever set the
    #: per-instance slot (lazy heap deletion, see Simulator.step()).
    _cancelled = False

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._state = PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    # -- inspection --------------------------------------------------------

    @property
    def pending(self) -> bool:
        return self._state == PENDING

    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def completed(self) -> bool:
        """True once the event's occurrence is in the past.

        For ordinary events this is :attr:`triggered`; :class:`Timeout`
        overrides it, because a timeout is *armed* (triggered) at
        creation but only occurs when the clock reaches its due time.
        Composite conditions must use this, not ``triggered``.
        """
        return self.triggered

    @property
    def ok(self) -> bool:
        """True once triggered successfully (no exception)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:  # `triggered` property, inlined (hot)
            raise SimulationError("event triggered twice")
        self._state = TRIGGERED
        self._value = value
        # Simulator._queue_event(self), inlined (hot): same (when, seq) key.
        sim = self.sim
        heappush(sim._heap, (sim._now, sim._seq, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will re-raise it."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._state = TRIGGERED
        self._exception = exception
        self.sim._queue_event(self)
        return self

    def _process(self) -> None:
        """Run callbacks; called by the simulator loop.

        A *failed* event nobody is waiting on re-raises its exception out
        of the simulation loop — silent process death would otherwise
        hide real bugs (the SimPy convention).
        """
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        elif self._exception is not None:
            raise self._exception

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` seconds from now."""

    __slots__ = ("delay", "_cancelled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined: timeouts are the highest-volume event
        # type and are born triggered, so the PENDING store is skipped.
        self.sim = sim
        self.callbacks = []
        self._state = TRIGGERED
        self._value = value
        self._exception = None
        self.delay = delay
        self._cancelled = False
        # Simulator._queue_event(self, delay), inlined (hot).
        heappush(sim._heap, (sim._now + delay, sim._seq, self))
        sim._seq += 1

    @property
    def completed(self) -> bool:
        return self.processed

    def cancel(self) -> None:
        """Disarm a pending timeout (lazy heap deletion).

        The heap entry stays queued — removing from the middle of a heap
        is O(n) — but the simulator skips it without running callbacks.
        Callbacks are dropped immediately so composite conditions and
        their waiters can be collected before the due time.  Cancelling
        an already-processed timeout is an error: it has fired.
        """
        if self.processed:
            raise SimulationError("cannot cancel a processed timeout")
        self._cancelled = True
        self.callbacks = []


class Call(Timeout):
    """A timeout that runs ``fn()`` when it fires, before any callback
    appended to it (what :meth:`Simulator.call_at`,
    :meth:`Simulator.call_later` and :meth:`Simulator.call_due` return).

    One object and one heap entry per scheduled call, with no wrapping
    callback.  Cancelling drops ``fn``, so whatever it closes over is
    freed before the due time.
    """

    __slots__ = ("_fn",)

    def __init__(self, sim: "Simulator", when: float, fn: Callable[[], None]):
        # Timeout.__init__ inlined (one call per scheduled call).  ``when``
        # is the absolute due time and the heap key; the Simulator
        # methods that build calls check it is not in the past.
        self.sim = sim
        self.callbacks = []
        self._state = TRIGGERED
        self._value = None
        self._exception = None
        self.delay = when - sim._now
        self._cancelled = False
        self._fn = fn
        heappush(sim._heap, (when, sim._seq, self))
        sim._seq += 1

    def cancel(self) -> None:
        super().cancel()
        self._fn = None

    def _process(self) -> None:
        self._state = PROCESSED
        fn = self._fn
        self._fn = None
        fn()
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.completed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _satisfied(self, done: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._done += 1
        if self._satisfied(self._done, len(self.events)):
            self.succeed(self._results())

    def _results(self) -> dict:
        return {
            event: event._value
            for event in self.events
            if event.completed and event._exception is None
        }


class AnyOf(_Condition):
    """Triggers when any constituent event triggers."""

    __slots__ = ()

    def _satisfied(self, done: int, total: int) -> bool:
        return done >= 1


class AllOf(_Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _satisfied(self, done: int, total: int) -> bool:
        return done >= total
