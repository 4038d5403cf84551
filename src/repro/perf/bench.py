"""Pinned-seed wall-clock microbenchmarks.

Each benchmark is a callable ``fn(quick: bool) -> dict`` returning at
least ``{"wall_s", "events", "peak_rss"}`` (``peak_rss`` in KiB, from
``getrusage``, the bench's own peak: the process's high-water mark is
restarted before every measured call, see :func:`_reset_peak_rss`).
The switching benches also return the ``fingerprint`` of their simulated
timeline; the sharded ones check each shard's against a standalone
1-shard run of the same partition (``fingerprint_match``).

Workload sizes are fixed constants (no RNG, no clock inputs), so the
simulated side of every result is reproducible bit-for-bit.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from collections import deque
from typing import Dict, List, Optional

from repro.core.nqe import NQE_POOL, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.cpu.cost_model import DEFAULT_COST_MODEL
from repro.sim import Simulator


def _reset_peak_rss() -> bool:
    """Restart the peak-RSS high-water mark at the current RSS.

    ``ru_maxrss`` is a process-lifetime maximum, so without a reset every
    bench after the largest one in a multi-bench run reports that one's
    peak.  Writing ``5`` to ``/proc/self/clear_refs`` (Linux >= 4.0)
    resets ``VmHWM`` and with it ``ru_maxrss``.  Returns False where that
    is unavailable; the peak then stays lifetime-wide (inexact).
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _measure(fn):
    """(wall seconds, peak RSS KiB, fn result) with a clean GC start and,
    where the kernel allows, a peak RSS of this call alone."""
    gc.collect()
    _reset_peak_rss()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return wall, peak, result


# -- raw simulator event throughput ------------------------------------------


def _events_workload(n_procs: int, events_each: int) -> int:
    sim = Simulator()

    def ticker():
        for _ in range(events_each):
            yield sim.timeout(1e-6)

    for _ in range(n_procs):
        sim.process(ticker())
    sim.run()
    return sim.events_processed


def bench_events(quick: bool) -> dict:
    """Raw event-loop throughput: timer wheels only, no datapath."""
    n_procs, events_each = (50, 400) if quick else (200, 2500)
    wall, peak, events = _measure(
        lambda: _events_workload(n_procs, events_each))
    return {"wall_s": wall, "events": events, "peak_rss": peak,
            "events_per_sec": events / wall if wall else 0.0}


# -- CoreEngine NQE switching ------------------------------------------------


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


def bench_nqe_switch(quick: bool) -> dict:
    """CoreEngine switch throughput: bursts of 8 through one hot VM."""
    nqes = 2_000 if quick else 20_000
    wall, peak, fp = _measure(
        lambda: _mux_workload(n_vms=1, active_vms=1, nqes_per_active=nqes,
                              burst=8, period=5e-6))
    return {"wall_s": wall, "events": fp["events_processed"],
            "peak_rss": peak,
            "nqes_switched": fp["nqes_switched"],
            "nqe_switches_per_sec":
                fp["nqes_switched"] / wall if wall else 0.0,
            "fingerprint": fp}


def _bench_fig08(n_vms: int, nqes_quick: int, nqes_full: int):
    def bench(quick: bool) -> dict:
        active = max(1, n_vms // 10)  # 10% duty cycle
        nqes = nqes_quick if quick else nqes_full
        wall, peak, fp = _measure(
            lambda: _mux_workload(n_vms, active, nqes))
        return {"wall_s": wall, "events": fp["events_processed"],
                "peak_rss": peak, "fingerprint": fp}

    return bench


# -- sharded CoreEngine multiplexing (fig. 8 at fleet scale) -----------------


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


def _bench_fig08_sharded(n_shards: int, vms_per_shard: int,
                         nqes_quick: int, nqes_full: int):
    def bench(quick: bool) -> dict:
        active = max(1, vms_per_shard // 10)  # 10% duty cycle
        nqes = nqes_quick if quick else nqes_full
        # 250 active producers per partition need completion headroom a
        # 256-slot ring does not give (the 1000-VM bench has only 100).
        slots = 1024
        # Reference: a standalone 1-shard CoreEngine running exactly one
        # partition's workload.
        wall_ref, peak_ref, ref = _measure(
            lambda: _mux_workload(vms_per_shard, active, nqes,
                                  ring_slots=slots))
        ref_fp = {key: ref[key] for key in _SHARD_FP_KEYS}
        wall, peak, out = _measure(
            lambda: _sharded_mux_workload(n_shards, vms_per_shard, active,
                                          nqes, ring_slots=slots))
        match = (all(fp == ref_fp for fp in out["per_shard"])
                 and out["sim_now"] == ref["sim_now"]
                 and out["handoffs"] == 0)
        return {
            "wall_s": wall,
            "events": out["events_processed"],
            "peak_rss": max(peak, peak_ref),
            "n_shards": n_shards,
            "vms_total": n_shards * vms_per_shard,
            "wall_1shard_partition_s": wall_ref,
            "handoffs": out["handoffs"],
            "fingerprint_match": match,
            "fingerprint": ref_fp,
            "per_shard_fingerprints": out["per_shard"],
            "sim_now": out["sim_now"],
        }

    return bench


def _bench_fig08_sharded_100k(n_shards: int, vms_per_shard_quick: int,
                              vms_per_shard_full: int,
                              nqes_quick: int, nqes_full: int):
    """The 100k-VM scale proof for the indexed connection table.

    Every VM is placed via shard-aware ``assign_vm_auto`` (one
    ``nsm_loads`` consultation per boot) and seeded with one established
    connection, so boot alone performs O(VMs) table control operations.
    A connection table that regresses to full-table scans turns that
    into O(VMs x connections) — ~2x10^8 entry visits even in the quick
    20k-VM CI variant; ``tests/test_conn_table.py`` proves there is no
    scan.  The switching fingerprint of every shard must stay
    bit-identical to a standalone 1-shard run of one partition, exactly
    like ``fig08_sharded``, and shard-aware placement must have co-homed
    every VM (``cohomed`` == VMs, ``handoffs`` == 0).
    """
    def bench(quick: bool) -> dict:
        vms_per_shard = vms_per_shard_quick if quick else vms_per_shard_full
        active = max(1, vms_per_shard // 100)  # 1% duty cycle
        nqes = nqes_quick if quick else nqes_full
        slots = 1024
        wall_ref, peak_ref, ref = _measure(
            lambda: _mux_workload(vms_per_shard, active, nqes,
                                  ring_slots=slots, seed_conns=True))
        ref_fp = {key: ref[key] for key in _SHARD_FP_KEYS}
        wall, peak, out = _measure(
            lambda: _sharded_mux_workload(n_shards, vms_per_shard, active,
                                          nqes, ring_slots=slots,
                                          seed_conns=True))
        vms_total = n_shards * vms_per_shard
        match = (all(fp == ref_fp for fp in out["per_shard"])
                 and out["sim_now"] == ref["sim_now"]
                 and out["handoffs"] == 0
                 and out["cohomed"] == vms_total)
        return {
            "wall_s": wall,
            "events": out["events_processed"],
            "peak_rss": max(peak, peak_ref),
            "n_shards": n_shards,
            "vms_total": vms_total,
            # Upper bound on memory per VM: the sharded run's peak RSS,
            # interpreter baseline included, over its VMs.
            "rss_per_vm_kib": peak / vms_total,
            "cohomed": out["cohomed"],
            "wall_1shard_partition_s": wall_ref,
            "handoffs": out["handoffs"],
            "fingerprint_match": match,
            "fingerprint": ref_fp,
            "per_shard_fingerprints": out["per_shard"],
            "sim_now": out["sim_now"],
        }

    return bench


def bench_capacity_mux(quick: bool) -> dict:
    """NDR/PDR bisection over the mux scenario, overload governor on."""
    from repro.perf.capacity import run_capacity

    window, iterations = (0.005, 3) if quick else (0.02, 5)
    wall, peak, out = _measure(
        lambda: run_capacity(scenario="mux", seed=0, window=window,
                             iterations=iterations))
    graceful = out["graceful"]
    return {"wall_s": wall, "events": out["events_processed"],
            "peak_rss": peak, "steps": len(out["steps"]),
            "ndr_ops": out["ndr"]["rate"] if out["ndr"] else None,
            "pdr_ops": out["pdr"]["rate"] if out["pdr"] else None,
            "graceful": graceful["pass"] if graceful else None,
            "leaks": len(out["leaks"]),
            "fingerprint": out["fingerprint"]}


#: name -> fn(quick) -> result dict.
BENCHMARKS = {
    "events": bench_events,
    "nqe_switch": bench_nqe_switch,
    "fig08_mux_10": _bench_fig08(10, nqes_quick=100, nqes_full=2_000),
    "fig08_mux_100": _bench_fig08(100, nqes_quick=60, nqes_full=1_000),
    "fig08_mux_1000": _bench_fig08(1_000, nqes_quick=10, nqes_full=100),
    "fig08_sharded": _bench_fig08_sharded(4, 2_500,
                                          nqes_quick=4, nqes_full=100),
    "fig08_sharded_100k": _bench_fig08_sharded_100k(
        8, vms_per_shard_quick=2_500, vms_per_shard_full=12_500,
        nqes_quick=8, nqes_full=40),
    "capacity_mux": bench_capacity_mux,
}


def run_benchmarks(names: Optional[List[str]] = None,
                   quick: bool = False) -> Dict[str, dict]:
    """Run the named benchmarks (all by default), in registry order."""
    if not names:
        names = list(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmarks: {unknown}; "
                       f"choose from {list(BENCHMARKS)}")
    results = {}
    for name in names:
        exact = _reset_peak_rss()
        result = BENCHMARKS[name](quick)
        result["name"] = name
        result["peak_rss_exact"] = exact
        result["quick"] = quick
        results[name] = result
    return results


def write_results(results: Dict[str, dict], out_dir: str) -> List[str]:
    """Write one ``BENCH_<name>.json`` per result; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, result in results.items():
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths

