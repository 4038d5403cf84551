"""Memory per VM follows traffic, not capacity.

An idle VM's NK device (four 4,096-NQE rings per lane) and GuestLib must
cost almost nothing, or a host cannot multiplex thousands of tenant VMs
onto a few NSMs (§4.3, Fig. 8).  Preallocated ring slots alone cost
~128 KiB per VM; lazily grown slabs and a backoff RNG built on first draw
bring the whole VM to a few KiB.  tracemalloc counts Python allocations,
so the figure is deterministic and machine-independent.
"""

import gc
import tracemalloc

from repro.core.host import NetKernelHost
from repro.sim import Simulator

VMS = 2_000
#: The tripwire: eager 4,096-slot rings alone would be ~128 KiB per VM.
MAX_BYTES_PER_VM = 16 * 1024


def test_booted_idle_vm_costs_at_most_16_kib():
    sim = Simulator()
    host = NetKernelHost(sim, ce_shards=4)
    for shard in range(4):
        host.add_nsm(f"nsm{shard}", vcpus=1, stack="kernel", shard=shard)
    sim.run(until=1e-4)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(VMS):
            host.add_vm(f"vm{i}", backoff_seed=1)
        sim.run(until=2e-4)  # every GuestLib poller parks on its device
        gc.collect()
        per_vm = (tracemalloc.get_traced_memory()[0] - before) / VMS
    finally:
        tracemalloc.stop()
    assert len(host.vms) == VMS
    assert per_vm <= MAX_BYTES_PER_VM, f"{per_vm / 1024:.1f} KiB per VM"
