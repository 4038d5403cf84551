"""Memory per VM follows traffic, not capacity.

An idle VM's NK device (four 4,096-NQE rings per lane) and GuestLib must
cost almost nothing, or a host cannot multiplex thousands of tenant VMs
onto a few NSMs (§4.3, Fig. 8).  Preallocated ring slots alone cost
~128 KiB per VM; lanes built on first use and a backoff RNG built on
first draw bring the whole VM under 2 KiB.  tracemalloc counts Python
allocations and the collector counts tracked objects, so both figures
are deterministic and machine-independent.
"""

import gc
import tracemalloc

import pytest

from repro.core.host import NetKernelHost
from repro.sim import Simulator

VMS = 2_000
#: The tripwire, just above the ~1.9 KiB an idle VM costs while its NK
#: device has built no lane (eager lanes cost ~1.7 KiB more, eager
#: 4,096-slot rings alone ~128 KiB).
MAX_BYTES_PER_VM = 3 * 1024
#: gc-tracked objects each idle VM adds, exactly: one each of GuestVM,
#: GuestLib, Core, NKDevice, HugepageRegion and _Registration, plus the
#: vCPU list GuestVM and GuestLib share.  The device builds its lanes (a
#: QueueSet, four rings and four slabs per vCPU) on the first read of
#: ``queue_sets``, which an idle VM never makes.  An idle VM runs no
#: poller either: GuestLib's start on the device's first wake, and the
#: device builds its wake event only when a consumer waits.  The doorbell
#: goes through the registration (no bound method), and
#: ``Core.busy_by_component`` is a plain dict, which the collector does
#: not track while it maps str to float.
IDLE_VM_OBJECTS = 7


def _tracked_objects() -> int:
    """gc-tracked objects once collection has settled: a collection
    untracks a tuple of atomic values only after an earlier one freed
    the containers it held, so one collect can leave stragglers."""
    count = -1
    while True:
        gc.collect()
        settled, count = count, len(gc.get_objects())
        if count == settled:
            return count


def measure_idle_vms():
    """Boot VMS idle VMs on a 4-shard host: (bytes per VM, gc-tracked
    objects added), both measured after a full collection.  One VM per
    NSM boots first, so host and NSM dicts that gain their first entry,
    and one-time caches, are not counted against the VMS measured.
    CI's test job prints the per-VM figures as a trend line."""
    sim = Simulator()
    host = NetKernelHost(sim, ce_shards=4)
    for shard in range(4):
        host.add_nsm(f"nsm{shard}", vcpus=1, stack="kernel", shard=shard)
    for shard in range(4):
        host.add_vm(f"warmup{shard}", backoff_seed=1)
    sim.run(until=1e-4)
    objects = _tracked_objects()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(VMS):
            host.add_vm(f"vm{i}", backoff_seed=1)
        sim.run(until=2e-4)  # boot events, if any, are processed
        gc.collect()
        per_vm = (tracemalloc.get_traced_memory()[0] - before) / VMS
    finally:
        tracemalloc.stop()
    objects = _tracked_objects() - objects
    assert len(host.vms) == VMS + 4
    return per_vm, objects


@pytest.fixture(scope="module")
def idle_vms():
    return measure_idle_vms()


def test_booted_idle_vm_costs_at_most_3_kib(idle_vms):
    per_vm, _ = idle_vms
    assert per_vm <= MAX_BYTES_PER_VM, f"{per_vm / 1024:.1f} KiB per VM"


def test_idle_vm_gc_object_count_is_pinned(idle_vms):
    # Exact both ways: a rise is per-VM state an idle VM does not need,
    # a fall lowers the pin.
    _, objects = idle_vms
    assert objects == IDLE_VM_OBJECTS * VMS, (
        f"{objects} gc-tracked objects for {VMS} idle VMs "
        f"({objects / VMS:.3f} per VM)")
