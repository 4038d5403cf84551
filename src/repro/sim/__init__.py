"""Discrete-event simulation substrate.

A small, dependency-free engine in the style of SimPy: a :class:`Simulator`
owns the clock and an event heap; :class:`Process` wraps a generator that
yields :class:`Event` objects to wait on.  Everything else in the
reproduction (cores, rings, stacks, NetKernel) is built on these types.
"""

from repro.sim.event import Event, Timeout, AnyOf, AllOf
from repro.sim.engine import Simulator
from repro.sim.process import Process

__all__ = [
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Simulator",
    "Process",
]
