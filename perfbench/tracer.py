"""Layer attribution for the traced run.

The tracer wraps the public entry points each layer is called through,
from outside the program: the simulator's ``process``/``call_at``/
``call_later``/``run`` on one ``Simulator`` instance, a fixed list of
class methods (GuestLib socket ops, TCP engine, links, rings, hugepages,
connection table, NQE pool, CoreEngine and shard-facade control calls),
and the callbacks a TCP connection makes into ServiceLib.
Every call or generator resume becomes a span on one stack; a layer's
self time is its spans' duration minus the part covered by child spans.
Time no wrapper claims falls to the root span, ``other``.  GC pauses are
spans of their own, from ``gc.callbacks``.

Spans are kept in memory (the first ``max_spans`` of them, as parallel
arrays) and written out by :meth:`Tracer.write_spans` when the run ends.
:meth:`Tracer.uninstall` restores every wrapped attribute, and
:meth:`Tracer.leftovers` reports any that are not back.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from typing import Dict, List, Optional, Tuple

LAYERS = ("sim", "mem.ring", "mem.hugepages", "core.guestlib",
          "core.coreengine", "core.sharding", "core.conn_table",
          "core.servicelib", "stack.tcp", "net", "app", "gc", "other")
_INDEX = {name: i for i, name in enumerate(LAYERS)}
OTHER = _INDEX["other"]
GC = _INDEX["gc"]

#: Module-name prefix -> layer, first match wins.
_MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.cpu", "sim"),
    ("repro.mem.ring", "mem.ring"),
    ("repro.mem.hugepages", "mem.hugepages"),
    ("repro.core.guestlib", "core.guestlib"),
    ("repro.core.sockets", "core.guestlib"),
    ("repro.core.sharding", "core.sharding"),
    ("repro.core.conn_table", "core.conn_table"),
    ("repro.core.servicelib", "core.servicelib"),
    ("repro.core.coreengine", "core.coreengine"),
    ("repro.core.nk_device", "core.coreengine"),
    ("repro.core.nqe", "core.coreengine"),
    ("repro.core.queues", "core.coreengine"),
    ("repro.core.overload", "core.coreengine"),
    ("repro.stack", "stack.tcp"),
    ("repro.net", "net"),
    ("repro.apps", "app"),
    ("perfbench", "app"),
)


def layer_of_module(module: Optional[str]) -> int:
    """Layer index for code defined in ``module``."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return _INDEX[layer]
    return OTHER


def _generator_layer(gen) -> int:
    frame = getattr(gen, "gi_frame", None)
    return layer_of_module(frame.f_globals.get("__name__")
                           if frame is not None else None)


def _wrap_targets():
    """(class, method names, layer, returns a generator) to wrap."""
    from repro.core.conn_table import ConnectionTable
    from repro.core.coreengine import CoreEngine
    from repro.core.guestlib import GuestLib
    from repro.core.nqe import NqePool
    from repro.core.servicelib import ServiceLib
    from repro.core.sharding import ShardedCoreEngine
    from repro.cpu.core import Core
    from repro.mem.hugepages import HugepageBuffer, HugepageRegion
    from repro.mem.ring import SpscRing
    from repro.net.fabric import Network
    from repro.net.link import Link
    from repro.sim.event import Event
    from repro.stack.tcp.engine import TcpConnection, TcpEngine

    return (
        (Event, ("succeed", "fail"), "sim", False),
        (Core, ("execute", "execute_nowait", "charge"), "sim", False),
        (GuestLib, ("socket", "bind", "listen", "connect", "accept", "send",
                    "recv", "close", "shutdown", "setsockopt", "getsockopt",
                    "sendto", "recvfrom", "recv_nonblocking", "epoll_wait"),
         "core.guestlib", True),
        (GuestLib, ("__init__",), "core.guestlib", False),
        (TcpEngine, ("handle_packet", "send", "recv", "connect", "accept",
                     "close", "socket"), "stack.tcp", False),
        (TcpConnection, ("__init__",), "stack.tcp", False),
        (Link, ("transmit",), "net", False),
        (Network, ("send",), "net", False),
        (SpscRing, ("__init__", "try_push", "push", "push_batch", "try_pop",
                    "pop", "pop_batch", "drain_into"), "mem.ring", False),
        (HugepageRegion, ("__init__", "alloc", "try_alloc", "get", "lookup",
                          "free", "watermarks"), "mem.hugepages", False),
        (HugepageBuffer, ("write", "read", "free"), "mem.hugepages", False),
        (ConnectionTable, ("insert", "complete", "lookup_vm", "lookup_nsm",
                           "remove_vm", "entries_for_vm", "entries_for_nsm",
                           "rebind_vm", "vms_for_nsm", "nsm_loads"),
         "core.conn_table", False),
        (NqePool, ("acquire", "release"), "core.coreengine", False),
        (CoreEngine, ("register_vm", "register_nsm", "assign_vm",
                      "assign_vm_auto"), "core.coreengine", False),
        (ShardedCoreEngine, ("register_vm", "register_nsm", "assign_vm",
                             "assign_vm_auto", "shard_loads"),
         "core.sharding", False),
        (ServiceLib, ("attach_vm_region",), "core.servicelib", False),
    )


class _TimedGen:
    """Generator proxy: every resume (send/throw/next) is one span."""

    __slots__ = ("_gen", "_layer", "_tracer")

    def __init__(self, gen, layer: int, tracer: "Tracer"):
        self._gen = gen
        self._layer = layer
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.push(self._layer)
        try:
            return self._gen.send(value)
        finally:
            tracer.pop()

    def throw(self, *args):
        tracer = self._tracer
        tracer.push(self._layer)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.pop()

    def close(self):
        return self._gen.close()


#: The stack-socket callback protocol (``repro.stack.base.StackSocket``):
#: the stack calls these into ServiceLib from inside packet handling.
CALLBACKS = ("on_readable", "on_writable", "on_accept_ready",
             "on_connected", "on_error", "on_closed")


#: Simulator methods wrapped as plain ``sim`` spans (event creation and
#: the heap push every scheduled event goes through).
_SIM_KERNEL = ("timeout", "event", "any_of", "all_of", "_queue_event")
_SIM_ENTRY_POINTS = ("process", "call_at", "call_later", "run") + _SIM_KERNEL


class _CallbackSlot:
    """Data descriptor for one callback attribute of ``TcpConnection``:
    stores each assigned callback timed, under the layer that defines it,
    in the instance dict."""

    def __init__(self, name: str, tracer: "Tracer"):
        self.name = name
        self.tracer = tracer

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.get(self.name)

    def __set__(self, obj, fn) -> None:
        if fn is not None:
            fn = self.tracer._timed(
                layer_of_module(getattr(fn, "__module__", None)), fn)
        obj.__dict__[self.name] = fn


class Tracer:
    """Span stack, per-layer self time and call counts."""

    def __init__(self, max_spans: int = 200_000):
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        #: Process-generator resumes (the simulator's scheduling unit).
        self.resumes = 0
        self.gc_gen2 = 0
        #: Counters sampled at wrapped boundaries.
        self.table_peak = 0
        self.retransmits = 0
        self.tcp_conns = 0
        self.max_spans = max_spans
        self._span_layer = array("b")
        self._span_depth = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: List[list] = []
        self._patched: List[Tuple[type, str, object, bool]] = []
        self._sims: List[object] = []
        self._started_at = 0.0
        self._gc_cb = None

    # -- span stack ------------------------------------------------------------

    def push(self, layer: int) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def pop(self) -> None:
        end = time.perf_counter()
        stack = self._stack
        if not stack:
            return
        layer, start, child = stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if stack:
            stack[-1][2] += duration
        if len(self._span_start) < self.max_spans:
            self._span_layer.append(layer)
            self._span_depth.append(len(stack))
            self._span_start.append(start - self._started_at)
            self._span_end.append(end - self._started_at)

    def _timed(self, layer: int, fn):
        push, pop = self.push, self.pop

        def timed(*args, **kwargs):
            push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return timed

    def _timed_gen(self, layer: int, fn):
        tracer = self

        def timed(*args, **kwargs):
            return _TimedGen(fn(*args, **kwargs), layer, tracer)

        return timed

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        """Wrap the class-level entry points and start the root span."""
        from repro.stack.tcp.engine import TcpConnection

        for cls, names, layer, is_gen in _wrap_targets():
            for name in names:
                self._patch(cls, name, _INDEX[layer], is_gen)
        for name in CALLBACKS:
            self._patched.append((TcpConnection, name,
                                  TcpConnection.__dict__.get(name),
                                  name in TcpConnection.__dict__))
            setattr(TcpConnection, name, _CallbackSlot(name, self))
        self._count_calls()

        def on_gc(phase, info):
            if phase == "start":
                self.push(GC)
                return
            if self._stack and self._stack[-1][0] == GC:
                self.pop()
            if info.get("generation") == 2:
                self.gc_gen2 += 1

        self._gc_cb = on_gc
        gc.callbacks.append(on_gc)
        self._started_at = time.perf_counter()
        self.push(OTHER)

    def _patch(self, cls, name: str, layer: int, is_gen: bool) -> None:
        owned = name in cls.__dict__
        original = getattr(cls, name)
        wrap = self._timed_gen if is_gen else self._timed
        self._patched.append((cls, name, cls.__dict__.get(name), owned))
        setattr(cls, name, wrap(layer, original))

    def _count_calls(self) -> None:
        """Counter hooks (no spans): table peak, retransmits, TCBs."""
        from repro.core.conn_table import ConnectionTable
        from repro.stack.tcp.engine import TcpConnection, TcpEngine

        tracer = self
        insert = ConnectionTable.insert

        def counted_insert(table, *args, **kwargs):
            entry = insert(table, *args, **kwargs)
            tracer.table_peak = max(tracer.table_peak, len(table))
            return entry

        retransmit = TcpEngine._retransmit_one

        def counted_retransmit(engine, conn):
            tracer.retransmits += 1
            return retransmit(engine, conn)

        init = TcpConnection.__init__

        def counted_init(conn, *args, **kwargs):
            tracer.tcp_conns += 1
            return init(conn, *args, **kwargs)

        for cls, name, fn in ((ConnectionTable, "insert", counted_insert),
                              (TcpEngine, "_retransmit_one",
                               counted_retransmit),
                              (TcpConnection, "__init__", counted_init)):
            self._patched.append((cls, name, cls.__dict__.get(name),
                                  name in cls.__dict__))
            setattr(cls, name, fn)

    def attach(self, sim) -> None:
        """Wrap one Simulator instance's scheduling entry points."""
        process, call_at, call_later, run = (
            sim.process, sim.call_at, sim.call_later, sim.run)
        tracer = self
        sim_layer = _INDEX["sim"]

        def traced_process(generator):
            return process(_CountedGen(generator, _generator_layer(generator),
                                       tracer))

        def traced_call_at(when, fn):
            return call_at(when, self._timed(
                layer_of_module(getattr(fn, "__module__", None)), fn))

        def traced_call_later(delay, fn):
            return call_later(delay, self._timed(
                layer_of_module(getattr(fn, "__module__", None)), fn))

        sim.process = traced_process
        sim.call_at = traced_call_at
        sim.call_later = traced_call_later
        sim.run = self._timed(sim_layer, run)
        for name in _SIM_KERNEL:
            setattr(sim, name, self._timed(sim_layer, getattr(sim, name)))
        self._sims.append(sim)

    def stop(self) -> float:
        """End the root span; returns its wall seconds, which the layers'
        self times partition exactly."""
        while self._stack:
            self.pop()
        return sum(self.self_s)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        if self._gc_cb in gc.callbacks:
            gc.callbacks.remove(self._gc_cb)
        for cls, name, original, owned in reversed(self._patched):
            if owned:
                setattr(cls, name, original)
            else:
                delattr(cls, name)
        for sim in self._sims:
            for name in _SIM_ENTRY_POINTS:
                vars(sim).pop(name, None)

    def leftovers(self) -> List[str]:
        """Wrapped attributes that are not back to their originals."""
        out = []
        originals = {}
        for cls, name, original, _owned in self._patched:
            originals.setdefault((cls, name), original)
        for (cls, name), original in originals.items():
            if cls.__dict__.get(name) is not original:
                out.append(f"{cls.__name__}.{name}")
        if self._gc_cb in gc.callbacks:
            out.append("gc.callbacks")
        for sim in self._sims:
            out.extend(f"Simulator.{name}" for name in _SIM_ENTRY_POINTS
                       if name in vars(sim))
        return out

    # -- results -------------------------------------------------------------------

    def layers(self, total: float) -> Dict[str, Dict[str, float]]:
        return {name: {"self_s": self.self_s[i],
                       "share": self.self_s[i] / total if total else 0.0,
                       "calls": self.calls[i]}
                for i, name in enumerate(LAYERS)}

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as column arrays (seconds since the
        traced pass started; depth 0 is the root)."""
        with open(path, "w") as handle:
            json.dump({"layers": LAYERS,
                       "layer": self._span_layer.tolist(),
                       "depth": self._span_depth.tolist(),
                       "start": self._span_start.tolist(),
                       "end": self._span_end.tolist()}, handle)


class _CountedGen(_TimedGen):
    """A process's top-level generator: also counts resumes."""

    __slots__ = ()

    def send(self, value):
        self._tracer.resumes += 1
        return _TimedGen.send(self, value)

    def throw(self, *args):
        self._tracer.resumes += 1
        return _TimedGen.throw(self, *args)
