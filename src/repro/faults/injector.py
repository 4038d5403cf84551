"""The fault injector: arms a FaultPlan against a live host (§8).

Point faults (crash, stall, hugepage squeeze) are scheduled on the sim
clock with ``call_at``.  Probabilistic faults (doorbell loss, ring-slot
drops, delayed completions) install the injector as
``coreengine.faults``; CoreEngine consults the three hook methods on its
datapath.  When a doorbell-loss window closes, every device in its scope
whose produce rings still hold NQEs is rung again.  Hooks draw from one
seeded ``random.Random`` in simulation order, so a given (plan, seed,
workload) triple replays bit-identically.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan


class FaultInjector:
    """Interprets one :class:`FaultPlan` against one NetKernelHost."""

    def __init__(self, sim, host, plan: FaultPlan):
        self.sim = sim
        self.host = host
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self._armed = False

        # Window tables: (start, end, probability/param, device-or-None).
        self._doorbell_windows: List[Tuple[float, float, float, object]] = []
        self._slot_windows: List[Tuple[float, float, float, object]] = []
        self._delay_windows: List[Tuple[float, float, float, object]] = []
        self._held_buffers: List[object] = []

        # Per-kind counters (surfaced by stats()).
        self.crashes = 0
        self.stalls = 0
        self.doorbells_dropped = 0
        self.slots_dropped = 0
        self.completions_delayed = 0
        self.squeezes = 0
        self.squeezed_bytes = 0
        self.overloads = 0

    # -- wiring ------------------------------------------------------------

    def _device_for(self, target: Optional[str]):
        """Resolve a plan target name to its NK device (None = wildcard)."""
        if target is None:
            return None
        vm = self.host.vms.get(target)
        if vm is not None:
            return self.host.coreengine.vm_device(vm.vm_id)
        nsm = self.host.nsms.get(target)
        if nsm is not None:
            return nsm.servicelib.device
        raise ConfigurationError(
            f"fault target {target!r} names no VM or NSM on this host")

    def _servicelib_for(self, target: str):
        nsm = self.host.nsms.get(target)
        if nsm is None:
            raise ConfigurationError(f"no NSM named {target!r} to fault")
        return nsm.servicelib

    def arm(self) -> "FaultInjector":
        """Schedule the plan's faults and hook into CoreEngine."""
        if self._armed:
            raise ConfigurationError("injector already armed")
        self._armed = True
        self.host.coreengine.faults = self
        for event in self.plan.events:
            if event.kind == "nsm-crash":
                svc = self._servicelib_for(event.target)

                def do_crash(svc=svc):
                    self.crashes += 1
                    svc.crash()

                self.sim.call_at(event.at, do_crash)
            elif event.kind == "nsm-stall":
                svc = self._servicelib_for(event.target)

                def do_stall(svc=svc, duration=event.duration):
                    self.stalls += 1
                    svc.stall(duration)

                self.sim.call_at(event.at, do_stall)
            elif event.kind == "hugepage-exhaustion":
                self.sim.call_at(
                    event.at,
                    lambda e=event: self._squeeze(e.target, e.param,
                                                  e.duration))
            elif event.kind == "overload":
                self.sim.call_at(
                    event.at,
                    lambda e=event: self._force_overload(e.duration))
            elif event.kind == "doorbell-loss":
                device = self._device_for(event.target)
                self._doorbell_windows.append(
                    (event.at, event.end, event.probability, device))
                # A device whose last doorbell fell in the window would
                # never be serviced again: re-ring its rings at the end.
                self.sim.call_at(
                    event.end,
                    lambda device=device: self.host.coreengine.ring_pending(
                        device))
            elif event.kind == "ring-slot-drop":
                self._slot_windows.append(
                    (event.at, event.end, event.probability,
                     self._device_for(event.target)))
            elif event.kind == "delayed-completion":
                self._delay_windows.append(
                    (event.at, event.end, event.param,
                     self._device_for(event.target)))
        return self

    def _squeeze(self, vm_name: str, fraction: float,
                 duration: float) -> None:
        """Grab ``fraction`` of the VM's free hugepage bytes, release
        them ``duration`` seconds later."""
        vm = self.host.vms.get(vm_name)
        if vm is None:
            raise ConfigurationError(f"no VM named {vm_name!r} to squeeze")
        region = self.host.coreengine.vm_device(vm.vm_id).hugepages
        hold = int(region.free_bytes * fraction)
        buffer = region.try_alloc(hold)
        if buffer is None:
            return
        self.squeezes += 1
        self.squeezed_bytes += hold
        self._held_buffers.append(buffer)

        def release(buffer=buffer):
            if not buffer.freed:
                buffer.free()
            if buffer in self._held_buffers:
                self._held_buffers.remove(buffer)

        self.sim.call_at(self.sim.now + duration, release)

    def _force_overload(self, duration: float) -> None:
        """Pin the host's overload governor(s) at level 2 until ``now +
        duration``.  Enables overload control first if the host runs
        without it (the fault is the opt-in)."""
        engine = self.host.coreengine
        if engine.overload is None:
            engine.enable_overload_control()
        until = self.sim.now + duration
        self.overloads += 1
        for governor in engine.overload_governors():
            governor.force_overload(until)

    # -- CoreEngine hooks (hot path; must stay cheap) ----------------------

    def _roll(self, windows, device) -> Optional[float]:
        """The active window's parameter if one matches, else None.

        Probability windows consume one RNG draw per matching check —
        always in simulation order, so determinism holds."""
        now = self.sim.now
        for start, end, param, target in windows:
            if start <= now < end and (target is None or target is device):
                return param
        return None

    def should_drop_doorbell(self, device) -> bool:
        probability = self._roll(self._doorbell_windows, device)
        if probability is not None and self.rng.random() < probability:
            self.doorbells_dropped += 1
            return True
        return False

    def should_drop_slot(self, nqe, target_device) -> bool:
        probability = self._roll(self._slot_windows, target_device)
        if probability is not None and self.rng.random() < probability:
            self.slots_dropped += 1
            return True
        return False

    def completion_delay(self, target_device) -> float:
        delay = self._roll(self._delay_windows, target_device)
        if delay is not None and delay > 0:
            self.completions_delayed += 1
            return delay
        return 0.0

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "crashes": self.crashes,
            "stalls": self.stalls,
            "doorbells_dropped": self.doorbells_dropped,
            "slots_dropped": self.slots_dropped,
            "completions_delayed": self.completions_delayed,
            "squeezes": self.squeezes,
            "squeezed_bytes": self.squeezed_bytes,
            "overloads": self.overloads,
            "buffers_held": len(self._held_buffers),
        }
