"""Fig. 8-style switching workloads on raw NK devices (no GuestLib or
ServiceLib): a ring consumer on one NSM device echoes every control NQE
as an OP_RESULT, and per-VM drainers recycle the responses.

``_mux_workload`` runs one CoreEngine; ``_sharded_mux_workload`` runs
traffic-closed partitions over N shards, each of which must reproduce a
standalone 1-shard run of its partition.  Workload sizes are plain
arguments (no RNG, no clock inputs), so every returned fingerprint is
reproducible bit-for-bit.  The determinism, sharding and NQE-pool tests
and the cost ratchet's ``nqe_switch`` row run them.
"""

from collections import deque

from repro.core.nqe import NQE_POOL, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.cpu.cost_model import DEFAULT_COST_MODEL
from repro.sim import Simulator


def _responder(sim, nsm_dev, received: list, index: int):
    """Raw ring consumer on an NSM device: echoes every request as an
    OP_RESULT, counting it in ``received[index]``."""
    owner = object()
    qs = nsm_dev.queue_sets[0]
    job_ring, send_ring = nsm_dev.consume_rings(qs)
    completion_ring, _ = nsm_dev.produce_rings(qs)
    backlog = deque()
    scratch: list = []
    while True:
        # Always consume requests (so CE's VM→NSM deliveries never
        # stall on a full job ring) and queue responses locally,
        # draining them whenever the completion ring has room —
        # needed once the active-VM count approaches the ring size.
        progressed = False
        if backlog:
            pushed = False
            cap = completion_ring.capacity
            while backlog and completion_ring._count < cap:
                completion_ring.try_push(backlog.popleft(), owner=owner)
                pushed = True
            if pushed:
                nsm_dev.ring_doorbell()
                progressed = True
        n = (job_ring.drain_into(scratch, 64, owner=owner)
             if job_ring._count else 0)
        if send_ring._count:
            n += send_ring.drain_into(scratch, 64, owner=owner, start=n)
        if n:
            progressed = True
            for i in range(n):
                nqe = scratch[i]
                scratch[i] = None
                received[index] += 1
                backlog.append(nqe.response(NqeOp.OP_RESULT))
                NQE_POOL.release(nqe)
        if not progressed:
            if backlog:
                yield sim.timeout(1e-6)
            else:
                yield nsm_dev.wait_for_inbound()


def _drainer(vm_dev):
    """Recycle every response that reaches a VM device."""
    owner = object()
    qs = vm_dev.queue_sets[0]
    completion_ring, _ = vm_dev.consume_rings(qs)
    scratch: list = []
    while True:
        n = completion_ring.drain_into(scratch, 64, owner=owner)
        if not n:
            yield vm_dev.wait_for_inbound()
            continue
        for i in range(n):
            NQE_POOL.release(scratch[i])
            scratch[i] = None


def _producer(sim, vm_id: int, vm_dev, index: int, nqes: int, burst: int,
              period: float):
    """``nqes`` doorbells of ``burst`` control NQEs, ``period`` apart,
    after a stagger set by the producer's ``index``."""
    owner = object()
    qs = vm_dev.queue_sets[0]
    control_ring, _ = vm_dev.produce_rings(qs)
    acquire = NQE_POOL.acquire
    yield sim.timeout(1e-6 * (index + 1))  # stagger the phases
    for _ in range(nqes):
        for _ in range(burst):
            control_ring.push(
                acquire(NqeOp.SETSOCKOPT, vm_id, 0, 1,
                        created_at=sim._now),
                owner=owner)
        vm_dev.ring_doorbell()
        yield sim.timeout(period)


def _mux_workload(n_vms: int, active_vms: int,
                  nqes_per_active: int, burst: int = 1,
                  period: float = 20e-6, ring_slots: int = 256,
                  seed_conns: bool = False) -> dict:
    """Fig. 8-style multiplexing on raw NK devices.

    ``n_vms`` devices register with one CoreEngine; ``active_vms`` of
    them produce control NQEs (``burst`` per doorbell, paced ``period``
    apart, staggered so wake-ups usually find one dirty device).  A raw
    ring consumer on the NSM device echoes every request as an
    OP_RESULT; per-VM drainers recycle the responses.  Returns a
    fingerprint of the simulated timeline.

    ``seed_conns`` exercises the connection-plane control path at boot:
    every VM is placed with ``assign_vm_auto`` (which consults
    ``nsm_loads`` per call) and gets one established connection-table
    entry.  With the indexed table that is O(VMs) total; a table that
    regresses to full scans makes it O(VMs x connections), which
    ``tests/test_conn_table.py``'s no-scan proof catches.
    """
    sim = Simulator()
    core = Core(sim, name="bench.ce", hz=DEFAULT_COST_MODEL.core_hz)
    # Ring capacity matters only once a ring fills: ring slabs grow with
    # traffic, so booting idle devices costs the same at any capacity.
    engine = ShardedCoreEngine(sim, [core], batch_size=8,
                               ring_slots=ring_slots)
    nsm_id, nsm_dev = engine.register_nsm("nsm0", queue_sets=1)
    vms = []
    for i in range(n_vms):
        vm_id, vm_dev = engine.register_vm(f"vm{i}", queue_sets=1)
        if seed_conns:
            assigned = engine.assign_vm_auto(vm_id)
            # One established connection per VM: VM socket 1 (the same
            # socket id the producers use, so switching hits this entry
            # instead of inserting) mapped to a unique NSM socket id.
            engine.table.insert((vm_id, 0, 1), assigned, 0)
            engine.table.complete((vm_id, 0, 1), nsm_socket_id=vm_id)
        else:
            engine.assign_vm(vm_id, nsm_id)
        vms.append((vm_id, vm_dev))
    received = [0]
    sim.process(_responder(sim, nsm_dev, received, 0))
    for _vm_id, vm_dev in vms:
        sim.process(_drainer(vm_dev))
    for index, (vm_id, vm_dev) in enumerate(vms[:active_vms]):
        sim.process(_producer(sim, vm_id, vm_dev, index, nqes_per_active,
                              burst, period))
    sim.run()
    return {
        "sim_now": sim.now,
        "events_processed": sim.events_processed,
        "events_cancelled": sim.events_cancelled,
        "nqes_switched": engine.nqes_switched,
        "batches": engine.batches,
        "received": received[0],
        "ce_busy_cycles": core.busy_cycles,
    }


#: The per-shard fingerprint: every key a shard must reproduce
#: bit-identically to a standalone 1-shard run of the same partition.
_SHARD_FP_KEYS = ("nqes_switched", "batches", "received", "ce_busy_cycles")


def _sharded_mux_workload(n_shards: int, vms_per_shard: int,
                          active_per_shard: int, nqes_per_active: int,
                          burst: int = 1, period: float = 20e-6,
                          ring_slots: int = 256,
                          seed_conns: bool = False) -> dict:
    """The fig. 8 multiplexing workload partitioned over N shards.

    Each shard gets its own NSM plus ``vms_per_shard`` VMs pinned to the
    same shard and assigned to that NSM — a traffic-closed partition, so
    no cross-shard handoffs occur and each shard's switching timeline is
    independent.  Producers stagger by their *within-shard* index,
    making every shard's workload identical to a standalone 1-shard run
    of the same size; per-shard counters must therefore be bit-identical
    to that reference.

    ``seed_conns`` mirrors :func:`_mux_workload`'s flag at cluster
    scale: every VM is placed with ``assign_vm_auto`` (shard-aware — the
    result must be the VM's home-shard NSM, counted in ``cohomed``) and
    seeded with one established connection-table entry.
    """
    sim = Simulator()
    cores = [Core(sim, name=f"bench.ce{i}", hz=DEFAULT_COST_MODEL.core_hz)
             for i in range(n_shards)]
    engine = ShardedCoreEngine(sim, cores, batch_size=8,
                               ring_slots=ring_slots)
    received = [0] * n_shards

    cohomed = 0
    for shard_index in range(n_shards):
        nsm_id, nsm_dev = engine.register_nsm(
            f"nsm{shard_index}", queue_sets=1, shard=shard_index)
        sim.process(_responder(sim, nsm_dev, received, shard_index))
        shard_vms = []
        for i in range(vms_per_shard):
            vm_id, vm_dev = engine.register_vm(
                f"s{shard_index}.vm{i}", queue_sets=1, shard=shard_index)
            if seed_conns:
                assigned = engine.assign_vm_auto(vm_id)
                if assigned == nsm_id:
                    cohomed += 1
                engine.table.insert((vm_id, 0, 1), assigned, 0)
                engine.table.complete((vm_id, 0, 1), nsm_socket_id=vm_id)
            else:
                engine.assign_vm(vm_id, nsm_id)
            shard_vms.append((vm_id, vm_dev))
        for _vm_id, vm_dev in shard_vms:
            sim.process(_drainer(vm_dev))
        # Producers stagger by their within-shard index.
        for index, (vm_id, vm_dev) in enumerate(
                shard_vms[:active_per_shard]):
            sim.process(_producer(sim, vm_id, vm_dev, index,
                                  nqes_per_active, burst, period))
    sim.run()

    per_shard = []
    for shard_index, shard in enumerate(engine.shards):
        stats = shard.stats()
        fingerprint = {key: stats[key] for key in _SHARD_FP_KEYS
                       if key in stats}
        fingerprint["received"] = received[shard_index]
        fingerprint["ce_busy_cycles"] = cores[shard_index].busy_cycles
        per_shard.append(fingerprint)
    return {
        "sim_now": sim.now,
        "events_processed": sim.events_processed,
        "handoffs": engine.handoffs_in,
        "per_shard": per_shard,
        "cohomed": cohomed,
    }
