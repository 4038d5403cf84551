"""Generator-based processes.

A process is a generator that yields :class:`Event` objects; the process
resumes when the yielded event triggers, receiving the event's value (or
having its exception raised inside the generator).  A :class:`Process` is
itself an event that triggers with the generator's return value, so
processes can wait for each other by yielding them.

Two waits allocate nothing.  A yielded non-negative ``float`` is a delay:
the process pushes its own reusable :class:`Waker` at ``now + delay``,
the heap key a :class:`~repro.sim.event.Timeout` created at that point
would get, and resumes with ``None`` when it pops.  A process that
yields its own :attr:`Process.waker` parks until someone calls the
waker's ``succeed()``.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.event import Event, PROCESSED

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class _Elapsed:
    """What a process resumed by its waker receives: a value-less event
    (``_resume``'s default argument)."""

    __slots__ = ()

    _value = None
    _exception = None


_ELAPSED = _Elapsed()


class Waker:
    """One process's reusable heap entry.

    The simulator pops it like an event (``_cancelled``, ``_process``);
    ``_process`` is the process's bound ``_resume``, which then resumes
    the generator with None.  A process is parked on at most one wait,
    so its waker is in the heap at most once.
    """

    __slots__ = ("sim", "_process")

    _cancelled = False

    def __init__(self, process: "Process"):
        self.sim = process.sim
        self._process = process._resume_cb

    def succeed(self) -> None:
        """Resume the parked process on the next loop turn at the current
        instant: the ``(now, seq)`` key an ``Event.succeed()`` takes."""
        sim = self.sim
        heappush(sim._heap, (sim._now, sim._seq, self))
        sim._seq += 1


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    __slots__ = ("_generator", "_resume_cb", "_waker")

    def __init__(self, sim: "Simulator", generator: Generator):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("process target must be a generator")
        self._generator = generator
        #: ``_resume`` bound once: every wait appends this same object.
        self._resume_cb = resume = self._resume
        #: Built on the first wait that needs it (see :attr:`waker`).
        self._waker = None
        # Kick off on the next simulator step at the current time.
        start = sim.event()
        start.callbacks.append(resume)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def waker(self) -> Waker:
        """This process's reusable heap entry.  Yielding it parks the
        process until its ``succeed()`` is called."""
        waker = self._waker
        if waker is None:
            waker = self._waker = Waker(self)
        return waker

    # -- internals -----------------------------------------------------------

    def _resume(self, event: Event = _ELAPSED) -> None:
        if event._exception is not None:
            self._throw(event._exception)
            return
        try:
            yielded = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if yielded.__class__ is float and yielded >= 0.0:
            # _wait(yielded)'s delay case, inlined (hot): every
            # Core.execute wait.
            waker = self._waker
            if waker is None:
                waker = self._waker = Waker(self)
            sim = self.sim
            heappush(sim._heap, (sim._now + yielded, sim._seq, waker))
            sim._seq += 1
        elif isinstance(yielded, Event) and yielded._state != PROCESSED:
            # _wait(yielded)'s event case, inlined (hot).
            yielded.callbacks.append(self._resume_cb)
        else:
            self._wait(yielded)

    def _throw(self, exception: BaseException) -> None:
        """Raise ``exception`` inside the generator at its wait point."""
        try:
            yielded = self._generator.throw(exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._wait(yielded)

    def _wait(self, yielded: Any) -> None:
        """Park the process on ``yielded``: a delay, its own waker, or
        the event it just yielded."""
        if yielded.__class__ is float:
            if not yielded >= 0.0:  # negative or NaN
                self._generator.close()
                self.fail(SimulationError(
                    f"process yielded a negative delay: {yielded!r}"))
                return
            sim = self.sim
            heappush(sim._heap, (sim._now + yielded, sim._seq, self.waker))
            sim._seq += 1
            return
        if yielded.__class__ is Waker and yielded is self._waker:
            return  # parked until the waker's succeed()
        if not isinstance(yielded, Event):
            self._generator.close()
            self.fail(SimulationError(f"process yielded non-event: {yielded!r}"))
            return
        if yielded._state == PROCESSED:  # `processed` property, inlined (hot)
            # Already done: resume on the next loop turn with its value.
            resume = self.sim.event()
            resume.callbacks.append(self._resume_cb)
            if yielded._exception is not None:
                resume.fail(yielded._exception)
            else:
                resume.succeed(yielded._value)
        else:
            yielded.callbacks.append(self._resume_cb)
