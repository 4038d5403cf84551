"""Runs one workload and turns it into the benchmark's metrics.

Untraced runs (``--trace 0``) report the end-to-end metrics:

* ``setup_s`` is the median over ``setup_reps`` fresh builds, each from
  an empty ``Simulator`` until every VM is booted and every listener is
  bound.
* The last build then runs the measured phase: to the fingerprint
  checkpoint, then in fixed simulated steps until ``seconds`` of wall
  time have passed.  Op rates, byte rates and per-op wall latencies come
  from that phase (see :func:`_measure_windows`).
* Every wall time above is reported in reference seconds, rescaled by
  the speed of a fixed reference loop timed around it (:mod:`calibrate`),
  so that a host slowed by other tenants does not read as a slower
  program.
* The first build also runs to the checkpoint; its fingerprint must equal
  the measured build's, and any fingerprint recorded for the same code,
  workload and seed in an earlier run must equal it too.
* Every world is drained to quiescence and checked, and the workload is
  run once more on ``HELD_OUT_SEED``, which must pass the same checks.

Traced runs (``--trace 1``) report the per-layer metrics: an untraced
pass (build, checkpoint, as many steps as fit in half of ``seconds``) and
a traced pass of the same work under :class:`tracer.Tracer`, whose
wrappers must leave the fingerprint unchanged and be gone afterwards.
They also report the paper's metrics in simulated time (``sim_*``),
taken over the fixed window that ends at the checkpoint.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import time
from typing import Dict, List, Optional, Tuple

from perfbench import calibrate
from perfbench.tracer import LAYERS, Tracer
from perfbench.workloads import Workload, World, _percentile

#: A seed no workload was tuned against; every run also passes on it.
HELD_OUT_SEED = 104729

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_wall_us_p50", "us"),
    ("op_wall_us_p99", "us"),
    ("bytes_per_s", "B/s"),
    ("peak_rss_mb", "MB"),
)

#: The paper's metrics in simulated time, over the fixed window that ends
#: at the checkpoint.  Deterministic per seed (the fingerprint holds
#: them), so they are reported by the traced run with the counters.
SIM_METRICS = (
    ("sim_ops_per_s", "1/s"),
    ("sim_latency_us_p50", "us"),
    ("sim_latency_us_p99", "us"),
    ("sim_goodput_gbps", "Gbps"),
)

COUNTERS = (
    ("sim.events_per_op", "events/op"),
    ("sim.resumes_per_op", "resumes/op"),
    ("mem.ring.slots_per_vm", "slots/vm"),
    ("mem.rss_per_vm_kib", "KiB"),
    ("mem.hugepages.allocs_per_op", "allocs/op"),
    ("core.coreengine.nqes_per_op", "nqes/op"),
    ("core.coreengine.nqes_per_batch", "nqes/batch"),
    ("core.sharding.handoffs", "count"),
    ("core.conn_table.entries_peak", "count"),
    ("stack.tcp.segments_per_op", "segments/op"),
    ("stack.tcp.retransmits", "count"),
    ("stack.tcp.conns_opened", "count"),
    ("net.packets_per_op", "packets/op"),
    ("net.drops", "count"),
    ("cpu.vm_cycles_per_op", "cycles/op"),
    ("cpu.nsm_cycles_per_op", "cycles/op"),
    ("cpu.ce_cycles_per_op", "cycles/op"),
    ("gc.pause_s", "s"),
    ("gc.gen2_collections", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.under_attributed", "flag"),
)

PER_LAYER = tuple(
    (f"{layer}.{stat}", unit)
    for layer in LAYERS
    for stat, unit in (("self_s", "s"), ("share", "fraction"),
                       ("calls_per_op", "calls/op"))) + COUNTERS + SIM_METRICS

#: The measured phase is cut into windows of at least this many wall
#: seconds, one reference sample each (see :func:`_measure_windows`).
#: Over six echo runs, per-op times rescaled per 35 ms stretch spread
#: 4%, per 0.25 s stretch 8%.
WINDOW_S = 0.04

#: How a setup build's time follows the reference loop's.  Builds are
#: short bursts of allocation timed next to three back-to-back loops,
#: not stretches of simulation: over ten echo processes their time grew
#: as the loop's to the power 0.50 (0.46 against a loop of allocations
#: instead).  Rescaling builds fully doubled their spread between runs;
#: at this power it fell from 0.23 to 0.08 on echo and to 0.04-0.18 on
#: the other workloads.
SETUP_ELASTICITY = 0.5

#: A traced run whose ``other`` share exceeds this is under-attributed.
UNDER_ATTRIBUTED = 0.5


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def code_digest(root: str) -> str:
    """Hash of the program and benchmark sources a fingerprint belongs to."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def fingerprint(wl: Workload, world: World) -> dict:
    """The simulated state at the checkpoint; identical for one code
    version, workload and seed."""
    host = world.host
    fp = {
        "sim_now": world.sim.now,
        "events_processed": world.sim.events_processed,
        "nqes_switched": host.coreengine.nqes_switched,
        "ce_busy_cycles": sum(core.busy_cycles for core in host.ce_cores),
        "ops": world.ledger.completed,
    }
    fp.update(wl.sim_metrics(world))
    return fp


class FingerprintStore:
    """Fingerprints by (code digest, workload, sizes, seed) across runs."""

    def __init__(self, path: str, digest: str):
        self.path = path
        self.digest = digest

    def check(self, wl: Workload, seed: int, fp: dict) -> Optional[str]:
        """Record ``fp``; returns a message if it contradicts a recorded one."""
        key = f"{self.digest}:{wl.name}:{sorted(vars(wl).items())}:{seed}"
        try:
            with open(self.path) as handle:
                known = json.load(handle)
        except (OSError, ValueError):
            known = {}
        if key in known:
            if known[key] != fp:
                return (f"fingerprint differs from an earlier run of the "
                        f"same code and seed: {known[key]} != {fp}")
            return None
        known[key] = fp
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(known, handle, sort_keys=True)
        os.replace(tmp, self.path)
        return None


def _checked_pass(wl: Workload, seed: int) -> Tuple[dict, List[str]]:
    """Build, run to the checkpoint, drain and check one world."""
    world = wl.build(seed)
    wl.advance_to_checkpoint(world)
    fp = fingerprint(wl, world)
    wl.drain(world)
    return fp, wl.checks(world)


def _result(failures: List[str], attempted: int, failed: int,
            metrics: Dict[str, float], units) -> dict:
    correct = not failures
    if not correct:
        failed = attempted  # a failed check fails every op of the run
    return {"correct": correct, "attempted": max(1, attempted),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units}}


def _measure_windows(wl: Workload, world: World, deadline: float,
                     length: float) -> Dict[str, float]:
    """Advance until ``deadline`` (wall clock) in windows of about
    ``length`` seconds, timing the reference loop between windows.

    Each window's wall time, and each op's wall latency in it, is
    rescaled to reference seconds (:mod:`calibrate`) by the median of the
    two reference samples on either side of it.  The samples' own time is
    left out of the latency of the ops in flight across them.  Rates are
    the median over windows, so the few windows a full garbage collection
    of a large heap stretches do not decide them; latency percentiles
    pool every op of every window.
    """
    ledger = world.ledger
    windows = []  # (ops, wall, bytes, first op index, end op index)
    refs = []
    now = time.perf_counter()
    while True:
        refs.append(calibrate.sample())
        ledger.paused += time.perf_counter() - now
        now = time.perf_counter()
        if now >= deadline:
            break
        start, ops0, bytes0 = now, ledger.completed, ledger.bytes
        while now - start < length:
            wl.advance(world)
            now = time.perf_counter()
        windows.append((ledger.completed - ops0, now - start,
                        ledger.bytes - bytes0, ops0, ledger.completed))
    rates, byte_rates, lat_us = [], [], []
    for i, (ops, wall, nbytes, first, end) in enumerate(windows):
        k = calibrate.scale(statistics.median(refs[max(0, i - 1):i + 3]))
        rates.append(ops / (wall * k))
        byte_rates.append(nbytes / (wall * k))
        lat_us.extend(x * k * 1e6 for x in ledger.wall[first:end])
    lat_us.sort()
    return {
        "ops_per_s": statistics.median(rates),
        "op_wall_us_p50": _percentile(lat_us, 0.50),
        "op_wall_us_p99": _percentile(lat_us, 0.99),
        "bytes_per_s": statistics.median(byte_rates),
        "windows": len(windows),
        "ref_s": refs,
        "op_samples": len(lat_us),
    }


def run_untraced(wl: Workload, seed: int, seconds: float,
                 store: Optional[FingerprintStore] = None):
    """Returns (result line, detail) for one untraced run."""
    failures: List[str] = []
    setup_times: List[float] = []
    first_fp = None
    setup_refs: List[float] = []
    for rep in range(wl.setup_reps):
        gc.collect()
        ref_before = calibrate.sample(3)
        started = time.perf_counter()
        world = wl.build(seed)
        setup_times.append(time.perf_counter() - started)
        setup_refs.append(statistics.median([ref_before, calibrate.sample(3)]))
        if rep == 0:
            wl.advance_to_checkpoint(world)
            first_fp = fingerprint(wl, world)
            wl.drain(world)
            failures += wl.checks(world)
        if rep < wl.setup_reps - 1:
            del world

    # The measured phase continues the last build.
    ledger = world.ledger
    started = time.perf_counter()
    wl.advance_to_checkpoint(world)
    fp = fingerprint(wl, world)
    measured = _measure_windows(wl, world, started + seconds,
                                min(WINDOW_S, seconds / 10))
    wall = time.perf_counter() - started
    ops = ledger.completed
    wl.drain(world)
    failures += wl.checks(world)
    attempted, failed = ledger.attempted, ledger.failed
    del world, ledger

    if fp != first_fp:
        failures.append(f"fingerprint did not repeat: {first_fp} != {fp}")
    if store is not None:
        mismatch = store.check(wl, seed, fp)
        if mismatch:
            failures.append(mismatch)
    gc.collect()
    held_fp, held_failures = _checked_pass(wl, HELD_OUT_SEED)
    failures += [f"held-out seed {HELD_OUT_SEED}: {f}" for f in held_failures]

    metrics = dict(measured)
    metrics["setup_s"] = statistics.median(
        wall * calibrate.scale(ref, SETUP_ELASTICITY)
        for wall, ref in zip(setup_times, setup_refs))
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail = {
        "workload": wl.name, "seed": seed, "mode": "untraced",
        "measured_wall_s": wall, "ops": ops,
        "windows": {k: measured[k] for k in
                    ("windows", "op_samples")},
        "ref_ms": [round(r * 1e3, 3) for r in measured["ref_s"]],
        "sim_window_ops": fp["ops"], "setup_wall_s": setup_times,
        "setup_ref_ms": [round(r * 1e3, 3) for r in setup_refs],
        "fingerprint": fp, "held_out_seed": HELD_OUT_SEED,
        "held_out_fingerprint": held_fp, "failures": failures,
    }
    return _result(failures, attempted, failed, metrics, END_TO_END), detail


def _counters(wl: Workload, world: World, tracer: Tracer) -> Dict[str, float]:
    """Deterministic per-op counters from the components' own counters."""
    host = world.host
    ops = max(1, world.ledger.completed)
    engine = host.coreengine
    vm_devices = [engine.vm_device(vm.vm_id) for vm in host.vms.values()]
    rings = [ring for device in vm_devices for qs in device.queue_sets
             for ring in (qs.job, qs.send, qs.completion, qs.receive)]
    slots = sum(len(getattr(ring, "_slots", ())) or ring.capacity
                for ring in rings)
    links = [link for endpoint in host.network._endpoints.values()
             for link in (endpoint.uplink, endpoint.downlink)]
    engines = [nsm.stack.engine for nsm in host.nsms.values()]
    cycles = host.cycles_by_role()
    batches = engine.batches
    return {
        "sim.events_per_op": world.sim.events_processed / ops,
        "sim.resumes_per_op": tracer.resumes / ops,
        "mem.ring.slots_per_vm": slots / max(1, len(vm_devices)),
        "mem.hugepages.allocs_per_op":
            sum(d.hugepages.total_allocs for d in vm_devices) / ops,
        "core.coreengine.nqes_per_op": engine.nqes_switched / ops,
        "core.coreengine.nqes_per_batch":
            engine.nqes_switched / batches if batches else 0.0,
        "core.sharding.handoffs": getattr(engine, "handoffs_in", 0),
        "core.conn_table.entries_peak": tracer.table_peak,
        "stack.tcp.segments_per_op":
            sum(e.segments_sent for e in engines) / ops,
        "stack.tcp.retransmits": tracer.retransmits,
        "stack.tcp.conns_opened": tracer.tcp_conns,
        "net.packets_per_op":
            sum(link.delivered_packets for link in links) / ops,
        "net.drops": sum(link.dropped_packets for link in links),
        "cpu.vm_cycles_per_op": cycles["vms"] / ops,
        "cpu.nsm_cycles_per_op": cycles["nsms"] / ops,
        "cpu.ce_cycles_per_op": cycles["coreengine"] / ops,
        "gc.pause_s": tracer.self_s[LAYERS.index("gc")],
        "gc.gen2_collections": tracer.gc_gen2,
    }


def run_traced(wl: Workload, seed: int, seconds: float,
               spans_path: Optional[str] = None):
    """Returns (result line, detail) for one traced run.

    The untraced pass builds the world, runs it to the checkpoint and on
    for as many steps as fit in half of ``seconds``; the traced pass
    repeats exactly that work under the tracer.
    """
    failures: List[str] = []
    gc.collect()
    rss0 = rss_bytes()
    started = time.perf_counter()
    world = wl.build(seed)
    rss_per_vm_kib = (rss_bytes() - rss0) / 1024.0 / world.vm_count
    wl.advance_to_checkpoint(world)
    fp = fingerprint(wl, world)
    steps = 0
    while time.perf_counter() - started < seconds / 2:
        wl.advance(world)
        steps += 1
    wall_untraced = time.perf_counter() - started
    end_fp = fingerprint(wl, world)
    wl.drain(world)
    failures += wl.checks(world)
    attempted, failed = world.ledger.attempted, world.ledger.failed
    del world
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        world = wl.build(seed, on_sim=tracer.attach)
        wl.advance_to_checkpoint(world)
        traced_fp = fingerprint(wl, world)
        for _ in range(steps):
            wl.advance(world)
        wall_traced = tracer.stop()
        traced_end_fp = fingerprint(wl, world)
        layers = tracer.layers(wall_traced)
        counters = _counters(wl, world, tracer)
        ops = max(1, world.ledger.completed)
        wl.drain(world)
        failures += wl.checks(world)
        attempted += world.ledger.attempted
        failed += world.ledger.failed
    finally:
        tracer.uninstall()
    leftovers = tracer.leftovers()
    if leftovers:
        failures.append(f"tracer left wrappers installed: {leftovers}")
    if (traced_fp, traced_end_fp) != (fp, end_fp):
        failures.append(f"tracing changed the fingerprint: {fp} != "
                        f"{traced_fp} or {end_fp} != {traced_end_fp}")
    if spans_path is not None:
        tracer.write_spans(spans_path)

    other_share = layers["other"]["share"]
    metrics: Dict[str, float] = {}
    for name, row in layers.items():
        metrics[f"{name}.self_s"] = row["self_s"]
        metrics[f"{name}.share"] = row["share"]
        metrics[f"{name}.calls_per_op"] = row["calls"] / ops
    metrics.update(counters)
    metrics.update({name: fp[name] for name, _unit in SIM_METRICS})
    metrics["mem.rss_per_vm_kib"] = rss_per_vm_kib
    metrics["trace.overhead_ratio"] = wall_traced / wall_untraced
    metrics["trace.under_attributed"] = int(other_share > UNDER_ATTRIBUTED)
    top = max(LAYERS, key=lambda name: layers[name]["self_s"])
    detail = {
        "workload": wl.name, "seed": seed, "mode": "traced",
        "steps_after_checkpoint": steps, "ops": ops,
        "wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
        "top_layer": top, "other_share": other_share,
        "under_attributed": other_share > UNDER_ATTRIBUTED,
        "fingerprint": fp, "failures": failures,
    }
    return _result(failures, attempted, failed, metrics, PER_LAYER), detail
