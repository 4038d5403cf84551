"""Ready-set scheduling must not change the simulated timeline.

The CoreEngine ready-set scheduler (``scan="ready"``) is a wall-clock
optimization only: every experiment output, stat, latency, and drop
counter must be bit-identical to the seed full-scan (``scan="full"``).
This suite runs representative workloads under both modes and diffs the
results, and unit-tests the supporting machinery (cancellable timeouts,
the NQE pool, the stale-wakeup fix).
"""

import itertools
from contextlib import contextmanager

import pytest

from repro.core import coreengine
from repro.core.coreengine import CoreEngine
from repro.core.nqe import NQE_POOL, Nqe, NqeOp, NqePool
from repro.cpu.core import Core
from repro.errors import SimulationError
from repro.experiments import run_experiment
from repro.perf.bench import _mux_workload
from repro.sim import Simulator


def _reset_global_counters():
    """Rewind the process-wide id counters (socket ids, NQE tokens,
    packet ids, ...) and drain the NQE pool so two in-process runs start
    from identical state.  Socket ids feed ``hash(vm_tuple)`` (the NSM
    queue-set choice), so without this two *same-mode* runs in one
    process already diverge — that leakage predates this suite and would
    mask a genuine scheduler divergence."""
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


@contextmanager
def vectorized_mode(flag):
    """Flip every vectorized default (CoreEngine routing and TCP stream
    buffers) so unchanged experiment code builds its whole datapath in
    the given mode, with global counters rewound for comparability.
    ``tcp.engine`` imports the buffer default by value, so it is patched
    in both modules."""
    from repro.stack.tcp import buffers, engine as tcp_engine

    previous = (coreengine.DEFAULT_VECTORIZED, buffers.VECTORIZED_DEFAULT,
                tcp_engine.VECTORIZED_DEFAULT)
    coreengine.DEFAULT_VECTORIZED = flag
    buffers.VECTORIZED_DEFAULT = flag
    tcp_engine.VECTORIZED_DEFAULT = flag
    _reset_global_counters()
    try:
        yield
    finally:
        (coreengine.DEFAULT_VECTORIZED, buffers.VECTORIZED_DEFAULT,
         tcp_engine.VECTORIZED_DEFAULT) = previous


@contextmanager
def scan_mode(mode):
    """Flip the default scan mode so unchanged experiment code (which
    never passes ``scan=``) builds its CoreEngine in the given mode,
    with global counters rewound for run-for-run comparability."""
    previous = coreengine.DEFAULT_SCAN_MODE
    coreengine.DEFAULT_SCAN_MODE = mode
    _reset_global_counters()
    try:
        yield
    finally:
        coreengine.DEFAULT_SCAN_MODE = previous


def _strip_sched(stats):
    """Scheduler bookkeeping is allowed to differ between modes; the
    datapath counters are not."""
    return {key: value for key, value in stats.items()
            if not key.startswith("sched.")}


def _experiment_outputs(exp_id, **kwargs):
    result = run_experiment(exp_id, **kwargs)
    return result.rows, result.notes


class TestExperimentsIdenticalAcrossModes:
    """Full experiments, byte-identical rows/notes under both schedulers."""

    @pytest.mark.parametrize("exp_id,kwargs", [
        ("fig8", {}),
        ("fig9", {"duration": 0.3}),
        ("fig21", {"scale": 0.02, "time_factor": 0.1}),
        ("table5", {"requests": 200, "concurrency": 40}),
    ])
    def test_rows_and_notes_match(self, exp_id, kwargs):
        with scan_mode("ready"):
            ready = _experiment_outputs(exp_id, **kwargs)
        with scan_mode("full"):
            full = _experiment_outputs(exp_id, **kwargs)
        assert ready == full

    def test_transfer_fingerprint_matches(self):
        from tests.test_determinism import run_transfer_fingerprint

        with scan_mode("ready"):
            ready = run_transfer_fingerprint()
        with scan_mode("full"):
            full = run_transfer_fingerprint()
        assert ready == full


class TestRawSwitchIdenticalAcrossModes:
    """Raw NK-device workloads (no GuestLib): timeline fingerprints."""

    def test_multiplexing_fingerprint(self):
        ready = _mux_workload("ready", n_vms=40, active_vms=4,
                              nqes_per_active=50)
        full = _mux_workload("full", n_vms=40, active_vms=4,
                             nqes_per_active=50)
        assert ready == full

    def test_rate_limited_fingerprint(self):
        """Stalled devices re-arm every pass, so admission rechecks (and
        their float-path-dependent token refills) happen at the same
        instants in both modes."""
        assert (self._rate_limited_run("ready")
                == self._rate_limited_run("full"))

    @staticmethod
    def _rate_limited_run(scan):
        sim = Simulator()
        engine = CoreEngine(sim, Core(sim, name="ce"), batch_size=4,
                            scan=scan)
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
    hand-off, batched delivery) is a wall-clock optimization only: the
    simulated timeline must be bit-identical to ``vectorized=False``."""

    def test_multiplexing_fingerprint(self):
        fast = _mux_workload("ready", n_vms=40, active_vms=4,
                             nqes_per_active=50, vectorized=True)
        scalar = _mux_workload("ready", n_vms=40, active_vms=4,
                               nqes_per_active=50, vectorized=False)
        scalar_full = _mux_workload("full", n_vms=40, active_vms=4,
                                    nqes_per_active=50, vectorized=False)
        assert fast == scalar == scalar_full

    def test_transfer_fingerprint_matches(self):
        """Full stack: GuestLib -> CE -> NSM TCP -> network and back,
        exercising the slab SendBuffer, chunked ReceiveBuffer, and the
        memoryview hand-off end to end."""
        from tests.test_determinism import run_transfer_fingerprint

        with vectorized_mode(True):
            fast = run_transfer_fingerprint()
        with vectorized_mode(False):
            scalar = run_transfer_fingerprint()
        assert fast == scalar

    @pytest.mark.parametrize("exp_id,kwargs", [
        ("fig8", {}),
        ("table5", {"requests": 200, "concurrency": 40}),
    ])
    def test_experiment_rows_match(self, exp_id, kwargs):
        with vectorized_mode(True):
            fast = _experiment_outputs(exp_id, **kwargs)
        with vectorized_mode(False):
            scalar = _experiment_outputs(exp_id, **kwargs)
        assert fast == scalar


class TestZeroAllocSwitching:
    """Perf smoke: steady-state vectorized switching performs zero list
    allocations — every drain goes through ``drain_into`` on a reused
    scratch, never ``pop_batch`` (which is what ``list_allocs`` counts) —
    and, once a first burst has grown the ring slabs, no slab growth."""

    def test_steady_state_switching_allocates_no_lists(self):
        sim = Simulator()
        engine = CoreEngine(sim, Core(sim, name="ce"), batch_size=8,
                            scan="ready", vectorized=True)
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
            while True:
                n = nsm_dev.drain_consume_into(scratch, 64, owner)
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
            while True:
                if not dev.drain_consume_into(scratch, 64, owner):
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

    def _build(self, scan):
        sim = Simulator()
        engine = CoreEngine(sim, Core(sim, name="ce"), batch_size=4,
                            scan=scan)
        nsm_id, nsm_dev = engine.register_nsm("nsm0", queue_sets=1)
        limited_id, limited_dev = engine.register_vm("vm-limited",
                                                     queue_sets=1)
        other_id, other_dev = engine.register_vm("vm-other", queue_sets=1)
        engine.assign_vm(limited_id, nsm_id)
        engine.assign_vm(other_id, nsm_id)
        # burst = 1 op, refill every 10ms: the second NQE stalls ~10ms.
        engine.set_ops_limit(limited_id, 100.0)
        return sim, engine, (limited_id, limited_dev), (other_id, other_dev)

    @pytest.mark.parametrize("scan", ["ready", "full"])
    def test_doorbell_win_cancels_stall_timeout(self, scan):
        sim, engine, (lim_id, lim_dev), (oth_id, oth_dev) = self._build(scan)
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
        assert engine.rate_limited_stalls > 0
        assert engine.stale_wakeups > 0
        assert sim.events_cancelled >= engine.stale_wakeups
        assert engine.stats()["sched.stale_wakeups"] == engine.stale_wakeups


class TestTimeoutCancel:
    def test_cancelled_timeout_keeps_timeline(self):
        sim = Simulator()
        first = sim.timeout(1.0)
        sim.timeout(2.0)
        fired = []
        first.callbacks.append(lambda e: fired.append(e))
        first.cancel()
        sim.run()
        assert first.cancelled
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
        assert pool.stats() == {"allocated": 1, "reused": 1,
                                "released": 1, "free": 0}

    def test_free_list_is_bounded(self):
        pool = NqePool(max_free=2)
        nqes = [pool.acquire(NqeOp.SEND, 1, 0, i) for i in range(4)]
        for nqe in nqes:
            pool.release(nqe)
        assert pool.stats()["free"] == 2
        assert pool.stats()["released"] == 2

    def test_datapath_recycles_through_global_pool(self):
        before = NQE_POOL.reused + NQE_POOL.allocated
        _mux_workload("ready", n_vms=2, active_vms=2, nqes_per_active=30)
        after = NQE_POOL.reused + NQE_POOL.allocated
        assert after > before
        assert NQE_POOL.reused > 0


class TestReadySetBehaviour:
    def test_kick_without_device_marks_everything(self):
        sim = Simulator()
        engine = CoreEngine(sim, Core(sim, name="ce"), scan="ready")
        nsm_id, _ = engine.register_nsm("nsm0", queue_sets=1)
        vm_id, vm_dev = engine.register_vm("vm0", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)
        ring, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
        ring.push(Nqe(NqeOp.SETSOCKOPT, vm_id, 0, 1), owner="guest")
        engine.kick()  # device=None: conservative mark-all
        sim.run(until=0.01)
        assert engine.nqes_switched == 1

    def test_full_scan_mode_still_available(self):
        sim = Simulator()
        engine = CoreEngine(sim, Core(sim, name="ce"), scan="full")
        assert engine.stats()["sched.mode"] == "full"

    def test_unknown_scan_mode_rejected(self):
        from repro.errors import ConfigurationError

        sim = Simulator()
        with pytest.raises(ConfigurationError):
            CoreEngine(sim, Core(sim, name="ce"), scan="sometimes")
