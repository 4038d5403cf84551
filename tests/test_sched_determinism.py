"""The switching datapath's simulated timeline, pinned as goldens.

Representative workloads — full experiments, a GuestLib-to-TCP
transfer, raw-device multiplexing with and without rate limits, and the
switching benches — must reproduce constants recorded when the ready-set
scheduler and the slab TCP buffers were proven bit-identical to the seed
full-scan scheduler and the scalar buffer layout, which they replaced
(see ``tests/goldens.py`` for how to re-record them).  A multi-stream
bulk transfer pins the per-segment TCP, fabric and link path: clock,
event counts, link and segment counters and per-component cycles; a
second golden pins the same run without the event counts, which a change
to how timers sit in the event heap may move.  The suite also
unit-tests the supporting machinery (cancellable timeouts, the NQE
pool, the stale-wakeup fix, zero-allocation switching).
"""

import functools
import itertools

import pytest

from repro.core.nqe import NQE_POOL, Nqe, NqeOp, NqePool
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.errors import SimulationError
from repro.experiments import run_experiment
from repro.perf.bench import _mux_workload
from repro.sim import Simulator
from tests.goldens import digest


def _reset_global_counters():
    """Rewind the process-wide id counters (socket ids, NQE tokens,
    packet ids, ...) and drain the NQE pool so two in-process runs start
    from identical state.  Socket ids feed ``hash(vm_tuple)`` (the NSM
    queue-set choice), so without this a run's output would depend on
    what ran before it in the same process."""
    from repro.core import guestlib, nqe, servicelib
    from repro.net import packet
    from repro.stack import udp
    from repro.stack.tcp import engine as tcp_engine

    nqe._tokens = itertools.count(1)
    nqe.NQE_POOL._free.clear()
    guestlib.NetKernelSocket._ids = itertools.count(1)
    servicelib._SocketContext._ids = itertools.count(1)
    packet._packet_ids = itertools.count(1)
    tcp_engine._conn_ids = itertools.count(1)
    udp.UdpSocket._ids = itertools.count(1)


def _strip_sched(stats):
    """Datapath counters without the scheduler's bookkeeping (pass and
    stale-wakeup counts), as pinned in RATE_LIMITED_GOLDEN."""
    return {key: value for key, value in stats.items()
            if not key.startswith("sched.")}


@functools.lru_cache(maxsize=None)
def _experiment_digest(exp_id):
    """digest((rows, notes)) of one EXPERIMENT_GOLDENS run, computed once
    per session: the scheduler and datapath classes below pin the same
    run."""
    _reset_global_counters()
    result = run_experiment(exp_id, **EXPERIMENT_GOLDENS[exp_id][0])
    return digest((result.rows, result.notes))


@functools.lru_cache(maxsize=None)
def _transfer_digest():
    from tests.test_determinism import run_transfer_fingerprint

    _reset_global_counters()
    return digest(run_transfer_fingerprint())


#: Experiment arguments and the digest of their (rows, notes).
EXPERIMENT_GOLDENS = {
    "fig8": ({},
             "ac449c2232f4cbdcdd064c5b593777487c9fe8558ce07bcd719d0a7ba92c42bb"),
    "fig9": ({"duration": 0.3},
             "6d507e20cd55cd41f320862a259406a9884572a4d71deb4a7ab008e3929c5cc7"),
    "fig21": ({"scale": 0.02, "time_factor": 0.1},
              "4bb94730a3ea3b37b84dd81daf7a4582b463626916f54d1097e8a0fd8297d163"),
    "table5": ({"requests": 200, "concurrency": 40},
               "bde52000c6298cd9bdc88a161a40f2ba4d1d5049e2b3c319e822e9b1ec756d25"),
}

#: digest(run_transfer_fingerprint()): GuestLib -> CE -> NSM TCP ->
#: network and back, through the slab SendBuffer, the chunked
#: ReceiveBuffer and the memoryview hand-off.
TRANSFER_GOLDEN = (
    "f66f72a8513a82aa2b3fb2dc9f15f759f242fdcba0e5a759a380219e0163ae3c")

#: digest(_bulk_timeline()): four 64 KiB streams through NetKernelHost,
#: drained to quiescence — the simulator clock and event counts, every
#: link's counters, every TCP engine's segment counts and every core's
#: per-component cycles.
BULK_TIMELINE_GOLDEN = (
    "e54483fe19339b640bbe65e94edf20483a3ee7d8d3560d28b1aa66e81ac58ed1")

#: The same run without ``events_processed``/``events_cancelled``: the
#: clock, bytes, link, segment and cycle counters only.
BULK_TIMELINE_SANS_EVENTS_GOLDEN = (
    "10d1489e7bc61c19baa9651bfc38e5b0a846c14054c59703e5eddd8b32df79d3")

#: The 40-VM, 4-active raw multiplexing fingerprint.
MUX_GOLDEN = {"batches": 400, "ce_busy_cycles": 607000.0,
              "events_cancelled": 0, "events_processed": 1454,
              "nqes_switched": 400, "received": 200,
              "sim_now": 0.0010040000000000012}

#: digest of the rate-limited raw run (see _rate_limited_run).
RATE_LIMITED_GOLDEN = (
    "4bbf5e9dff343fbeeb0144c77499798c67af686be4ce78bd300f3915629de73d")


class TestExperimentsIdenticalAcrossModes:
    """Full experiments' rows and notes match their pinned digests (the
    class name records the ready-vs-full-scan proof they were pinned
    from)."""

    @pytest.mark.parametrize("exp_id,kwargs", [
        (exp_id, kwargs) for exp_id, (kwargs, _) in EXPERIMENT_GOLDENS.items()
    ])
    def test_rows_and_notes_match(self, exp_id, kwargs):
        assert _experiment_digest(exp_id) == EXPERIMENT_GOLDENS[exp_id][1]

    def test_transfer_fingerprint_matches(self):
        assert _transfer_digest() == TRANSFER_GOLDEN


@functools.lru_cache(maxsize=None)
def _bulk_timeline():
    """Four 64 KiB-message streams from one VM to another through one
    kernel-stack NSM, run until the event heap drains.  The self-looped
    fabric overflows its uplink, so the run also takes the drop,
    retransmission and timer paths.  Computed once per session; callers
    must not mutate the result."""
    from repro.apps.iperf import StreamReceiver, StreamSender
    from repro.core.host import NetKernelHost

    _reset_global_counters()
    sim = Simulator()
    host = NetKernelHost(sim)
    nsm = host.add_nsm("nsm0", vcpus=2, stack="kernel")
    server = host.add_vm("srv", vcpus=2, nsm=nsm)
    client = host.add_vm("cli", vcpus=2, nsm=nsm)
    receiver = StreamReceiver(sim, host.socket_api(server), 5001,
                              read_size=65536)
    receiver.start(server)
    sender = StreamSender(sim, host.socket_api(client), ("nsm0", 5001),
                          message_size=65536, duration=2e-3, streams=4)

    def launch():
        yield sim.timeout(1e-4)
        sender.start(client)

    client.spawn(launch())
    sim.run()
    links = {}
    for endpoint in host.network._endpoints.values():
        for link in (endpoint.uplink, endpoint.downlink):
            links[link.name] = (link.delivered_packets, link.delivered_bytes,
                                link.dropped_packets)
    engines = {name: (nsm.stack.engine.segments_sent,
                      nsm.stack.engine.segments_received)
               for name, nsm in host.nsms.items()}
    cores = list(host.ce_cores)
    for nsm in host.nsms.values():
        cores.extend(nsm.cores)
    for vm in host.vms.values():
        cores.extend(vm.cores)
    busy = {core.name: sorted(core.busy_by_component.items())
            for core in cores}
    return {"sim": (sim.now, sim.events_processed, sim.events_cancelled),
            "bytes": (sender.stats.bytes, receiver.stats.bytes),
            "links": links, "engines": engines, "busy": busy}


class TestBulkTimeline:
    """The full-stack bulk path (TCP -> fabric -> link -> simulator ->
    TCP) keeps its simulated timeline and event counts."""

    def test_bulk_timeline_matches(self):
        assert digest(_bulk_timeline()) == BULK_TIMELINE_GOLDEN

    def test_bulk_timeline_without_event_counts_matches(self):
        timeline = _bulk_timeline()
        assert (digest(dict(timeline, sim=timeline["sim"][:1]))
                == BULK_TIMELINE_SANS_EVENTS_GOLDEN)


class TestRawSwitchIdenticalAcrossModes:
    """Raw NK-device workloads (no GuestLib) match their pinned
    fingerprints (pinned from the ready-vs-full-scan proof)."""

    def test_multiplexing_fingerprint(self):
        assert _mux_workload(n_vms=40, active_vms=4,
                             nqes_per_active=50) == MUX_GOLDEN

    def test_rate_limited_fingerprint(self):
        """Stalled devices re-arm every pass, so admission rechecks (and
        their float-path-dependent token refills) happen at fixed
        instants."""
        assert digest(self._rate_limited_run()) == RATE_LIMITED_GOLDEN

    @staticmethod
    def _rate_limited_run():
        sim = Simulator()
        engine = ShardedCoreEngine(sim, [Core(sim, name="ce")], batch_size=4)
        nsm_id, nsm_dev = engine.register_nsm("nsm0", queue_sets=1)
        vm_id, vm_dev = engine.register_vm("vm0", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)
        engine.set_ops_limit(vm_id, 2000.0)  # burst 20: forces stalls
        control_ring, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
        for index in range(60):
            control_ring.push(Nqe(NqeOp.SETSOCKOPT, vm_id, 0, 1),
                              owner="guest")
        vm_dev.ring_doorbell()
        sim.run(until=0.5)
        stats = engine.stats()
        return (sim.now, sim.events_processed, engine.nqes_switched,
                engine.batches, stats["rate_limited_stalls"],
                _strip_sched(stats))


class TestVectorizedIdenticalToScalar:
    """The vectorized datapath (slab rings, scratch drains, zero-copy
    hand-off, batched delivery) reproduces the goldens pinned while it
    was proven bit-identical to the scalar layout it replaced (the class
    name records that proof).  Experiment and transfer runs are shared
    with TestExperimentsIdenticalAcrossModes, so each runs once."""

    def test_multiplexing_fingerprint(self):
        assert _mux_workload(n_vms=40, active_vms=4,
                             nqes_per_active=50) == MUX_GOLDEN

    def test_transfer_fingerprint_matches(self):
        """Full stack: GuestLib -> CE -> NSM TCP -> network and back,
        exercising the slab SendBuffer, chunked ReceiveBuffer, and the
        memoryview hand-off end to end."""
        assert _transfer_digest() == TRANSFER_GOLDEN

    @pytest.mark.parametrize("exp_id,kwargs", [
        ("fig8", EXPERIMENT_GOLDENS["fig8"][0]),
        ("table5", EXPERIMENT_GOLDENS["table5"][0]),
    ])
    def test_experiment_rows_match(self, exp_id, kwargs):
        assert _experiment_digest(exp_id) == EXPERIMENT_GOLDENS[exp_id][1]


#: ``repro bench --quick`` fingerprints of the raw switching benches.
BENCH_QUICK_GOLDENS = {
    "nqe_switch": {"batches": 4000, "ce_busy_cycles": 1468000.0,
                   "events_cancelled": 0, "events_processed": 14006,
                   "nqes_switched": 32000, "received": 16000,
                   "sim_now": 0.010000999999999677},
    "fig08_mux_10": {"batches": 200, "ce_busy_cycles": 189500.0,
                     "events_cancelled": 0, "events_processed": 715,
                     "nqes_switched": 200, "received": 100,
                     "sim_now": 0.0020010000000000036},
    "fig08_mux_100": {"batches": 1200, "ce_busy_cycles": 1557000.0,
                      "events_cancelled": 0, "events_processed": 4332,
                      "nqes_switched": 1200, "received": 600,
                      "sim_now": 0.0012100000000000019},
    "fig08_mux_1000": {"batches": 1538, "ce_busy_cycles": 12459026.0,
                       "events_cancelled": 0, "events_processed": 6150,
                       "nqes_switched": 2000, "received": 1000,
                       "sim_now": 0.0003},
}


class TestBenchFingerprints:
    """The switching benches' simulated timelines, at ``--quick`` size."""

    @pytest.mark.parametrize("name", sorted(BENCH_QUICK_GOLDENS))
    def test_quick_fingerprint(self, name):
        from repro.perf.bench import BENCHMARKS

        assert BENCHMARKS[name](True)["fingerprint"] == \
            BENCH_QUICK_GOLDENS[name]


class TestZeroAllocSwitching:
    """Perf smoke: steady-state switching performs zero list
    allocations — every drain goes through ``drain_into`` on a reused
    scratch, never ``pop_batch`` (which is what ``list_allocs`` counts) —
    and, once a first burst has grown the ring slabs, no slab growth."""

    def test_steady_state_switching_allocates_no_lists(self):
        sim = Simulator()
        engine = ShardedCoreEngine(sim, [Core(sim, name="ce")], batch_size=8)
        nsm_id, nsm_dev = engine.register_nsm("nsm0", queue_sets=2)
        devices = [nsm_dev]
        vms = []
        for i in range(4):
            vm_id, vm_dev = engine.register_vm(f"vm{i}", queue_sets=1)
            engine.assign_vm(vm_id, nsm_id)
            devices.append(vm_dev)
            vms.append((vm_id, vm_dev))

        def burst():
            for vm_id, vm_dev in vms:
                ring, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
                for _ in range(16):
                    ring.push(Nqe(NqeOp.SETSOCKOPT, vm_id, 0, 1),
                              owner="guest")
                vm_dev.ring_doorbell()

        def rings():
            return [ring for dev in devices for qs in dev.queue_sets
                    for ring in (qs.job, qs.send, qs.completion, qs.receive)]

        def responder():
            owner = object()
            scratch = []
            job, _ = nsm_dev.consume_rings(nsm_dev.queue_sets[0])
            while True:
                n = job.drain_into(scratch, 64, owner=owner)
                if not n:
                    yield nsm_dev.wait_for_inbound()
                    continue
                for i in range(n):
                    nqe = scratch[i]
                    scratch[i] = None
                    qs = nsm_dev.queue_set_for(nqe.queue_set_id)
                    control, _ = nsm_dev.produce_rings(qs)
                    control.push(nqe.response(NqeOp.OP_RESULT), owner=owner)
                nsm_dev.ring_doorbell()

        def drainer(dev):
            owner = object()
            scratch = []
            completion, _ = dev.consume_rings(dev.queue_sets[0])
            while True:
                if not completion.drain_into(scratch, 64, owner=owner):
                    yield dev.wait_for_inbound()

        sim.process(responder())
        for dev in devices[1:]:
            sim.process(drainer(dev))
        burst()  # warm-up: 16-NQE bursts grow the 8-slot slabs
        sim.run(until=0.05)
        warm_grows = sum(ring.slab_grows for ring in rings())
        assert warm_grows > 0
        for _ in range(3):
            burst()
            sim.run(until=sim.now + 0.05)

        assert engine.nqes_switched == 4 * 4 * 16 * 2  # requests + responses
        assert sum(ring.list_allocs for ring in rings()) == 0
        assert sum(ring.slab_grows for ring in rings()) == warm_grows


class TestStaleWakeupFix:
    """The doorbell-vs-stall-timeout race: the losing timeout must be
    disarmed instead of lingering in the heap as a no-op wakeup."""

    def _build(self):
        sim = Simulator()
        engine = ShardedCoreEngine(sim, [Core(sim, name="ce")], batch_size=4)
        nsm_id, nsm_dev = engine.register_nsm("nsm0", queue_sets=1)
        limited_id, limited_dev = engine.register_vm("vm-limited",
                                                     queue_sets=1)
        other_id, other_dev = engine.register_vm("vm-other", queue_sets=1)
        engine.assign_vm(limited_id, nsm_id)
        engine.assign_vm(other_id, nsm_id)
        # burst = 1 op, refill every 10ms: the second NQE stalls ~10ms.
        engine.set_ops_limit(limited_id, 100.0)
        return sim, engine, (limited_id, limited_dev), (other_id, other_dev)

    def test_doorbell_win_cancels_stall_timeout(self):
        sim, engine, (lim_id, lim_dev), (oth_id, oth_dev) = self._build()
        ring, _ = lim_dev.produce_rings(lim_dev.queue_sets[0])
        for _ in range(2):
            ring.push(Nqe(NqeOp.SETSOCKOPT, lim_id, 0, 1), owner="guest")
        lim_dev.ring_doorbell()

        def other_producer():
            # Fires mid-stall (stall deadline is ~10ms out).
            yield sim.timeout(0.002)
            other_ring, _ = oth_dev.produce_rings(oth_dev.queue_sets[0])
            other_ring.push(Nqe(NqeOp.SETSOCKOPT, oth_id, 0, 1),
                            owner="guest")
            oth_dev.ring_doorbell()

        sim.process(other_producer())
        sim.run(until=0.05)
        shard = engine.shards[0]
        assert shard.rate_limited_stalls > 0
        assert shard.stale_wakeups > 0
        assert sim.events_cancelled >= shard.stale_wakeups
        assert engine.stats()["sched.stale_wakeups"] == shard.stale_wakeups


class TestTimeoutCancel:
    def test_cancelled_timeout_keeps_timeline(self):
        sim = Simulator()
        first = sim.timeout(1.0)
        sim.timeout(2.0)
        fired = []
        first.callbacks.append(lambda e: fired.append(e))
        first.cancel()
        sim.run()
        assert first._cancelled
        assert fired == []
        assert sim.now == 2.0  # the cancelled entry still advances time
        assert sim.events_cancelled == 1
        assert sim.events_processed == 1

    def test_cancel_after_processed_raises(self):
        sim = Simulator()
        timeout = sim.timeout(0.1)
        sim.run()
        assert timeout.processed
        with pytest.raises(SimulationError):
            timeout.cancel()


class TestNqePool:
    def test_release_then_acquire_reuses(self):
        pool = NqePool()
        nqe = pool.acquire(NqeOp.SEND, 1, 0, 7, size=64,
                           aux={"x": 1}, created_at=2.5)
        nqe.trace = {"stamp": True}
        pool.release(nqe)
        recycled = pool.acquire(NqeOp.SOCKET, 2, 1, 9)
        assert recycled is nqe
        # Fully reinitialized: no stale payload, aux, trace, or token.
        assert recycled.op is NqeOp.SOCKET
        assert recycled.vm_tuple == (2, 1, 9)
        assert recycled.size == 0 and recycled.aux is None
        assert recycled.trace is None
        assert (pool.allocated, pool.reused, pool.released) == (1, 1, 1)
        assert not pool._free

    def test_free_list_is_bounded(self):
        pool = NqePool(max_free=2)
        nqes = [pool.acquire(NqeOp.SEND, 1, 0, i) for i in range(4)]
        for nqe in nqes:
            pool.release(nqe)
        assert len(pool._free) == 2
        assert pool.released == 2

    def test_datapath_recycles_through_global_pool(self):
        before = NQE_POOL.reused + NQE_POOL.allocated
        _mux_workload(n_vms=2, active_vms=2, nqes_per_active=30)
        after = NQE_POOL.reused + NQE_POOL.allocated
        assert after > before
        assert NQE_POOL.reused > 0


class TestReadySetBehaviour:
    def test_kick_without_device_marks_everything(self):
        sim = Simulator()
        engine = ShardedCoreEngine(sim, [Core(sim, name="ce")])
        nsm_id, _ = engine.register_nsm("nsm0", queue_sets=1)
        vm_id, vm_dev = engine.register_vm("vm0", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)
        ring, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
        ring.push(Nqe(NqeOp.SETSOCKOPT, vm_id, 0, 1), owner="guest")
        engine.kick()  # device=None: conservative mark-all
        sim.run(until=0.01)
        assert engine.nqes_switched == 1
