"""Generator-based processes.

A process is a generator that yields :class:`Event` objects; the process
resumes when the yielded event triggers, receiving the event's value (or
having its exception raised inside the generator).  A :class:`Process` is
itself an event that triggers with the generator's return value, so
processes can wait for each other by yielding them.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.event import Event, PROCESSED

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Interrupt(Exception):
    """Raised inside a process that has been interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    __slots__ = ("_generator", "_waiting_on", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("process target must be a generator")
        self._generator = generator
        #: ``_resume`` bound once: every wait appends this same object.
        self._resume_cb = resume = self._resume
        # Kick off on the next simulator step at the current time.
        start = sim.event()
        start.callbacks.append(resume)
        #: The event whose processing resumes the generator next; None
        #: while an interrupt is pending and once the process has ended.
        self._waiting_on: Optional[Event] = start
        start.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None and not target.triggered:
            # Detach from the event we were waiting on.
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        # A wait that has already triggered stays queued; with no current
        # wait, _resume ignores it, so the Interrupt is what the process
        # sees at this wait point, not the wait's value.
        self._waiting_on = None
        throw = self.sim.event()
        throw.callbacks.append(
            lambda _evt: self._throw(Interrupt(cause))
        )
        throw.succeed()

    # -- internals -----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        # Only the current wait resumes the generator: a finished or
        # interrupted process has none.
        if event is not self._waiting_on:
            return
        self._waiting_on = None
        if event._exception is not None:
            self._throw(event._exception)
            return
        try:
            yielded = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly.
            self.succeed(None)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if isinstance(yielded, Event) and yielded._state != PROCESSED:
            # _wait(yielded)'s common case, inlined (hot).
            self._waiting_on = yielded
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
        except Interrupt:
            # An unhandled interrupt terminates the process quietly.
            self.succeed(None)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._wait(yielded)

    def _wait(self, yielded: Any) -> None:
        """Park the process on ``yielded``, the event it just yielded."""
        if not isinstance(yielded, Event):
            self._generator.close()
            self.fail(SimulationError(f"process yielded non-event: {yielded!r}"))
            return
        if yielded._state == PROCESSED:  # `processed` property, inlined (hot)
            # Already done: resume on the next loop turn with its value.
            resume = self.sim.event()
            resume.callbacks.append(self._resume_cb)
            self._waiting_on = resume
            if yielded._exception is not None:
                resume.fail(yielded._exception)
            else:
                resume.succeed(yielded._value)
        else:
            self._waiting_on = yielded
            yielded.callbacks.append(self._resume_cb)
