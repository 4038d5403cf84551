"""Exact per-op cost ratchet: the repo's one cost gate.

Each row runs a short, fixed slice of a perfbench workload (seed 1,
built with ``perfbench.workloads.WORKLOADS``) past its fingerprint
checkpoint, one whole ``nqe_switch`` run of
``tests/mux_workloads.py``, or the ``fleet_boot`` of idle VMs, under
``sys.setprofile`` with the cyclic collector off, and counts:

- ``ops``: ops the workload completed (NQEs switched for
  ``nqe_switch``, VMs booted for ``fleet_boot``);
- ``events``: simulator events processed;
- ``resumes``: calls of ``Process._resume``;
- ``calls``: every Python-level "call" event, generator resumes
  included.

The counts are exact and machine-independent, so every one is pinned
and any difference fails, in either direction.  A change that lowers a
count lowers its constant; one that raises it re-records the constant
and says why.  The failure message prints the measured row to paste.
``calls`` is checked only on CPython 3.11 (CI's version): 3.12 inlines
comprehensions (PEP 709), which changes the count.
"""

from __future__ import annotations

import gc
import sys
from typing import Callable, NamedTuple

import pytest

from perfbench.workloads import WORKLOADS
from repro.core.host import NetKernelHost
from repro.sim import Simulator
from repro.sim.process import Process
from tests.mux_workloads import _mux_workload

SEED = 1
#: The only interpreter whose ``calls`` counts are pinned.
CALLS_PYTHON = (3, 11)


class Cost(NamedTuple):
    ops: int
    events: int
    resumes: int
    calls: int


#: ``advance()`` steps each workload row runs past its checkpoint.
STEPS = {"echo_64b": 5, "bulk_8x64k": 2, "short_conn_64b": 5,
         "fleet_10k": 2}

#: row -> pinned cost.  ``echo_64b+obs`` is ``echo_64b`` with
#: ``host.enable_observability()``; ``nqe_switch`` is one whole raw
#: switching run: one hot VM, 250 doorbells of 8 NQEs, 5 us apart;
#: ``fleet_boot`` boots BOOT_VMS auto-placed idle VMs on a 4-shard host.
RATCHET = {
    # Delay yields, packet-owned link hops and the switch's reusable
    # doorbell waker: no Timeout, Call or Event per wait.  A pure
    # receiver's ACKs skip the no-op _pump.
    "echo_64b": Cost(ops=388, events=15_159, resumes=12_042,
                     calls=217_453),
    "echo_64b+obs": Cost(ops=388, events=15_159, resumes=12_042,
                         calls=247_808),
    # Mostly link hops: 186 of 298 events per op.
    "bulk_8x64k": Cost(ops=166, events=48_828, resumes=17_860,
                       calls=924_888),
    "short_conn_64b": Cost(ops=36, events=4_533, resumes=3_552,
                           calls=59_135),
    "fleet_10k": Cost(ops=400, events=16_369, resumes=13_164,
                      calls=228_964),
    # No link: only the switch's batch waits and doorbell sleeps.
    "nqe_switch": Cost(ops=4_000, events=1_756, resumes=1_755,
                       calls=55_614),
    # An idle VM builds no lane: 6 calls fewer per VM than eager lanes.
    "fleet_boot": Cost(ops=1_000, events=0, resumes=0, calls=25_002),
}

#: Idle VMs the ``fleet_boot`` row boots.
BOOT_VMS = 1_000


def _profiled(fn: Callable[[], None]) -> tuple:
    """(calls, resumes) made while running ``fn``, collector off."""
    resume = Process._resume.__code__
    calls = resumes = 0

    def profiler(frame, event, _arg):
        nonlocal calls, resumes
        if event == "call":
            calls += 1
            if frame.f_code is resume:
                resumes += 1

    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return calls, resumes


def _measure_workload(name: str, obs: bool) -> Cost:
    workload = WORKLOADS[name]()
    world = workload.build(SEED)
    if obs:
        world.host.enable_observability()
    workload.advance_to_checkpoint(world)
    ops, events = world.ledger.completed, world.sim.events_processed

    def slice_():
        for _ in range(STEPS[name]):
            workload.advance(world)

    calls, resumes = _profiled(slice_)
    return Cost(world.ledger.completed - ops,
                world.sim.events_processed - events, resumes, calls)


def _measure_nqe_switch() -> Cost:
    out = {}

    def run():
        out.update(_mux_workload(n_vms=1, active_vms=1, nqes_per_active=250,
                                 burst=8, period=5e-6))

    calls, resumes = _profiled(run)
    return Cost(out["nqes_switched"], out["events_processed"], resumes,
                calls)


def _measure_fleet_boot() -> Cost:
    """Boot BOOT_VMS idle VMs, auto-placed over four NSMs on four
    shards, and run the simulator past their boot events."""
    sim = Simulator()
    host = NetKernelHost(sim, ce_shards=4)
    for shard in range(4):
        host.add_nsm(f"nsm{shard}", vcpus=1, stack="kernel", shard=shard)
    sim.run(until=1e-4)
    vms, events = len(host.vms), sim.events_processed

    def boot():
        for i in range(BOOT_VMS):
            host.add_vm(f"vm{i}", backoff_seed=SEED)
        sim.run(until=2e-4)

    calls, resumes = _profiled(boot)
    return Cost(len(host.vms) - vms, sim.events_processed - events,
                resumes, calls)


def _measure(row: str) -> Cost:
    if row == "nqe_switch":
        return _measure_nqe_switch()
    if row == "fleet_boot":
        return _measure_fleet_boot()
    name, _, obs = row.partition("+")
    return _measure_workload(name, obs=bool(obs))


def _checked(cost: Cost) -> Cost:
    """The fields pinned on this interpreter."""
    if sys.version_info[:2] == CALLS_PYTHON:
        return cost
    return cost._replace(calls=None)


@pytest.mark.parametrize("row", list(RATCHET))
def test_cost_ratchet(row):
    measured = _measure(row)
    pinned = RATCHET[row]
    assert _checked(measured) == _checked(pinned), (
        f"{row}: measured {measured!r} != pinned {pinned!r}; if the change "
        f"is intended, re-record RATCHET[{row!r}] and say why")


def test_observability_hooks_only_add_calls():
    # Hooks never schedule: obs on may cost calls, never events or resumes.
    off, on = RATCHET["echo_64b"], RATCHET["echo_64b+obs"]
    assert on._replace(calls=0) == off._replace(calls=0)
