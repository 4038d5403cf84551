"""Generator-based processes.

A process is a generator that yields :class:`Event` objects; the process
resumes when the yielded event triggers, receiving the event's value (or
having its exception raised inside the generator).  A :class:`Process` is
itself an event that triggers with the generator's return value, so
processes can wait for each other by yielding them.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.event import Event, PROCESSED

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    __slots__ = ("_generator", "_resume_cb")

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
        start.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # -- internals -----------------------------------------------------------

    def _resume(self, event: Event) -> None:
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
        if isinstance(yielded, Event) and yielded._state != PROCESSED:
            # _wait(yielded)'s common case, inlined (hot).
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
        """Park the process on ``yielded``, the event it just yielded."""
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
