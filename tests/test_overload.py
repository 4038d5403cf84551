"""Overload control: ring watermarks, governor policy, the EAGAIN
contract, chaos integration, and the shed policy's pinned timeline."""

import pytest

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL, NqeOp
from repro.core.overload import (
    EXEMPT_OPS,
    LEVEL_NORMAL,
    LEVEL_OVERLOADED,
    OverloadGovernor,
    governor_for_device,
)
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.errors import TimedOutError, TryAgainError
from repro.faults.chaos import run_chaos
from repro.mem.ring import SpscRing
from repro.sim import Simulator
from tests import scenario_runs
from tests.goldens import digest


@pytest.fixture
def sim():
    return Simulator()


# -- satellite: consolidated ring occupancy stats ----------------------------


class TestRingWatermarks:
    def test_hwm_tracks_peak_depth(self):
        ring = SpscRing(8)
        for i in range(6):
            ring.try_push(i)
        for _ in range(4):
            ring.pop()
        assert ring.hwm_depth == 6

    def test_take_hwm_resets_window_to_current_depth(self):
        ring = SpscRing(8)
        for i in range(5):
            ring.try_push(i)
        for _ in range(5):
            ring.pop()
        assert ring.take_hwm() == 5
        # Window reset: the new high-watermark is the *current* depth,
        # not the drained history.
        assert ring.hwm_depth == 0
        ring.try_push("x")
        assert ring.take_hwm() == 1

    def test_full_rejections_counted_on_both_push_paths(self):
        ring = SpscRing(2)
        assert ring.try_push("a") and ring.try_push("b")
        assert ring.try_push("c") is False
        with pytest.raises(Exception):
            ring.push("d")
        assert ring.full_rejections == 2


# -- governor policy (unit) ---------------------------------------------------


def _raw_engine(sim, n_vms=1):
    engine = ShardedCoreEngine(sim, [Core(sim)], batch_size=8, ring_slots=128)
    governor = engine.enable_overload_control()
    nsm_id, nsm_dev = engine.register_nsm("nsm0", queue_sets=1)
    vms = []
    for i in range(n_vms):
        vm_id, vm_dev = engine.register_vm(f"vm{i}", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)
        vms.append((vm_id, vm_dev))
    return engine, governor, vms


class TestGovernorPolicy:
    def test_below_overload_everything_admitted(self, sim):
        engine, governor, vms = _raw_engine(sim)
        assert governor.level == LEVEL_NORMAL
        for _ in range(1000):
            assert governor.admit(vms[0][0], NqeOp.SOCKET)
        assert governor.admission_rejections == 0

    def test_quotas_are_weight_proportional(self, sim):
        engine, governor, vms = _raw_engine(sim, n_vms=2)
        (vm_a, _), (vm_b, _) = vms
        governor.set_vm_weight(vm_a, 3.0)
        governor.set_vm_weight(vm_b, 1.0)
        governor.force_overload(until=1.0)
        sim.run(until=450e-6)  # two sampler ticks: level 2, quotas set
        assert governor.level == LEVEL_OVERLOADED

        def admitted(vm_id):
            count = 0
            while governor.admit(vm_id, NqeOp.SETSOCKOPT):
                count += 1
            return count

        share_a, share_b = admitted(vm_a), admitted(vm_b)
        # Idle window -> budget = min_admit_budget (8): 6 vs 2.
        assert share_a == 3 * share_b
        assert share_b >= 1
        assert governor.admission_rejections == 2
        assert governor.vm_admission_rejections == {vm_a: 1, vm_b: 1}

    def test_exempt_ops_bypass_exhausted_quota(self, sim):
        engine, governor, vms = _raw_engine(sim)
        vm_id = vms[0][0]
        governor.force_overload(until=1.0)
        sim.run(until=450e-6)
        while governor.admit(vm_id, NqeOp.SETSOCKOPT):
            pass
        for op in EXEMPT_OPS:
            assert governor.admit(vm_id, op)
        assert not governor.admit(vm_id, NqeOp.SETSOCKOPT)

    def test_forced_overload_decays_one_level_per_clean_sample(self, sim):
        engine, governor, vms = _raw_engine(sim)
        governor.force_overload(until=500e-6)
        sim.run(until=1.5e-3)  # idle: occupancy 0, latency EWMA 0
        # 0 -> 2 (forced), then 2 -> 1 -> 0 one step per clean sample.
        assert governor.level == LEVEL_NORMAL
        assert governor.level_transitions == 3

    def test_stop_disarms_governor(self, sim):
        engine, governor, vms = _raw_engine(sim)
        governor.force_overload(until=1.0)
        sim.run(until=450e-6)
        assert governor.level == LEVEL_OVERLOADED
        governor.stop()
        assert governor.level == LEVEL_NORMAL
        for _ in range(100):
            assert governor.admit(vms[0][0], NqeOp.SETSOCKOPT)

    def test_disable_overload_control_restores_seed_behaviour(self, sim):
        engine, governor, vms = _raw_engine(sim)
        assert engine.overload is governor
        assert governor_for_device(vms[0][1]) is governor
        governor.force_overload(until=1.0)
        sim.run(until=450e-6)
        engine.disable_overload_control()
        # The object stays referenced for end-of-run introspection, but
        # its level pins to 0 and every gate becomes a no-op.
        assert engine.overload is governor
        assert governor.level == LEVEL_NORMAL
        for _ in range(100):
            assert governor.admit(vms[0][0], NqeOp.SETSOCKOPT)

    def test_weight_must_be_positive(self, sim):
        engine, governor, _ = _raw_engine(sim)
        with pytest.raises(ValueError):
            governor.set_vm_weight(1, 0.0)


# -- switch-side shedding -----------------------------------------------------


#: digest(TestSwitchShed._burst(...)): sheds, per-VM EAGAIN/completion
#: counts, per-VM drops, governor stats and the pool balance.
BURST_GOLDEN = (
    "533fe8984b8fb3e34d62238daf59536ad2bcddf23ace6faba58adf997feae95c")


class TestSwitchShed:
    def _burst(self, sim):
        """Force level 2, then push a one-window burst far beyond the
        shed quota, bypassing the admission gate (a misbehaving guest)."""
        pool_before = NQE_POOL.outstanding
        engine, governor, vms = _raw_engine(sim, n_vms=2)
        nsm_dev = engine._nsms[min(engine._nsms)].device
        consumed = [0]
        owner = object()

        def consumer():
            qs = nsm_dev.queue_sets[0]
            job_ring, send_ring = nsm_dev.consume_rings(qs)
            scratch: list = []
            while True:
                n = job_ring.drain_into(scratch, 64, owner=owner)
                n += send_ring.drain_into(scratch, 64, owner=owner,
                                          start=n)
                if not n:
                    yield nsm_dev.wait_for_inbound()
                    continue
                for i in range(n):
                    NQE_POOL.release(scratch[i])
                    scratch[i] = None
                consumed[0] += n

        sim.process(consumer())
        governor.force_overload(until=1.0)
        sim.run(until=450e-6)
        eagain = {vm_id: 0 for vm_id, _ in vms}
        completions = {vm_id: 0 for vm_id, _ in vms}
        for vm_id, vm_dev in vms:
            control_ring, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
            for _ in range(60):
                control_ring.push(
                    NQE_POOL.acquire(NqeOp.SETSOCKOPT, vm_id, 0, 1,
                                     created_at=sim.now),
                    owner=owner)
            vm_dev.ring_doorbell()
        sim.run(until=600e-6)
        for vm_id, vm_dev in vms:
            completion_ring, _ = vm_dev.consume_rings(vm_dev.queue_sets[0])
            scratch: list = []
            n = completion_ring.drain_into(scratch, 200, owner=owner)
            for i in range(n):
                nqe = scratch[i]
                if nqe.op_data < 0:
                    eagain[vm_id] += 1
                else:
                    completions[vm_id] += 1
                NQE_POOL.release(nqe)
        return {
            "sheds": engine.stats()["nqes_shed"],
            "eagain": eagain,
            "completions": completions,
            "consumed": consumed[0],
            "per_vm": engine.per_vm_drops(),
            "governor": governor.stats(),
            "pool_delta": NQE_POOL.outstanding - pool_before,
        }

    def test_sheds_surface_as_eagain_results(self, sim):
        out = self._burst(sim)
        assert out["sheds"] > 0
        # Every shed came back to its producer as a -EAGAIN completion:
        # fail-fast, never a silent drop.
        assert sum(out["eagain"].values()) == out["sheds"]
        for vm_id, drops in out["per_vm"].items():
            assert drops["shed"] == out["eagain"][vm_id]
        assert out["governor"]["switch_sheds"] == out["sheds"]
        # NQE accounting balances: bursts + synthesized results all freed.
        assert out["pool_delta"] == 0

    def test_shed_policy_identical_vectorized_and_scalar(self):
        """Shed decisions are pure functions of ring state, counters and
        simulated time, so the burst's outcome is a fixed constant,
        pinned when this test still ran it on the vectorized and the
        scalar datapath (hence its name)."""
        assert digest(self._burst(Simulator())) == BURST_GOLDEN


# -- the EAGAIN contract (satellite: errno distinction + seeded jitter) -------


class TestEagainContract:
    def test_eagain_and_etimedout_are_distinct_errnos(self):
        assert TryAgainError.errno_name == "EAGAIN"
        assert TimedOutError.errno_name == "ETIMEDOUT"
        assert issubclass(TryAgainError, Exception)
        assert not issubclass(TryAgainError, TimedOutError)

    def _host_vm(self, backoff_seed):
        sim = Simulator()
        host = NetKernelHost(sim)
        host.add_nsm("nsm-a", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", op_timeout=5e-3,
                         backoff_seed=backoff_seed)
        return vm.guestlib

    def test_backoff_jitter_is_seeded_and_deterministic(self):
        first = self._host_vm(backoff_seed=5)
        second = self._host_vm(backoff_seed=5)
        third = self._host_vm(backoff_seed=6)
        seq_a = [first._backoff_delay(i) for i in range(4)]
        seq_b = [second._backoff_delay(i) for i in range(4)]
        seq_c = [third._backoff_delay(i) for i in range(4)]
        assert seq_a == seq_b
        assert seq_a != seq_c
        # Jitter stays inside the [0.5, 1.5) band around pure doubling.
        for attempt, delay in enumerate(seq_a):
            nominal = 5e-3 * (2 ** attempt)
            assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_first_attempt_deadline_draws_no_randomness(self):
        gl = self._host_vm(backoff_seed=9)
        state = gl._backoff_rng.getstate()
        assert gl._attempt_deadline(0) == 5e-3
        assert gl._backoff_rng.getstate() == state  # untouched
        assert gl._attempt_deadline(1) != 10e-3  # retries jitter


# -- chaos integration (satellite: overload FaultKind + drop balance) ---------


class TestOverloadChaos:
    def test_overload_plan_arms_governor_without_breaking_traffic(self):
        result = run_chaos(seed=3, plan_name="overload", duration=0.3)
        assert result["faults"]["overloads"] == 1
        # Traffic rode through the forced window: requests completed and
        # nothing leaked or hung.
        assert result["counters"]["requests_ok"] > 0
        assert result["leaks"] == []

    def test_overload_plan_is_seed_deterministic(self):
        first = scenario_runs.chaos(7, "overload", 0.25)
        second = run_chaos(seed=7, plan_name="overload", duration=0.25)
        assert (first["switch_fingerprint"]
                == second["switch_fingerprint"])
        assert first["leaks"] == [] and second["leaks"] == []

    def test_squeeze_drop_accounting_balances(self):
        result = run_chaos(seed=5, plan_name="hugepage-squeeze",
                           duration=0.3)
        # No governor in this plan: zero sheds, and the squeeze's drops
        # all balance out (the leak census passes).
        assert result["ce"]["nqes_shed"] == 0
        assert result["leaks"] == []


# -- fleet exposure (satellite: per-VM drops through GET /fleet) --------------


class TestFleetExposure:
    def test_snapshot_reports_drops_and_overload(self):
        from repro.ctrl.fleet import fleet_snapshot

        sim = Simulator()
        host = NetKernelHost(sim)
        host.add_nsm("nsm-a", vcpus=1, stack="kernel")
        host.add_vm("vm1")
        snap = fleet_snapshot(host)
        assert snap["overload"] is None  # default: governor off
        assert snap["vms"][0]["drops"] == {
            "dropped": 0, "dropped_backpressure": 0, "shed": 0}
        governor = host.coreengine.enable_overload_control()
        governor.force_overload(until=1.0)
        sim.run(until=450e-6)
        snap = fleet_snapshot(host)
        assert snap["overload"]["level"] == LEVEL_OVERLOADED
        assert snap["counters"]["nqes_shed"] == 0


# -- capacity search ----------------------------------------------------------


class TestCapacitySearch:
    def test_jain_index(self):
        from repro.perf.capacity import jain_fairness

        assert jain_fairness([]) == 1.0
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_bad_inputs_rejected(self):
        from repro.errors import ConfigurationError
        from repro.perf.capacity import run_capacity

        with pytest.raises(ConfigurationError):
            run_capacity(scenario="nope")
        with pytest.raises(ConfigurationError):
            run_capacity(scenario="mux", n_vms=1)
        with pytest.raises(ConfigurationError):
            run_capacity(scenario="mux", rate_lo=100.0, rate_hi=50.0)

    def test_mux_search_is_deterministic_and_graceful(self):
        from repro.perf.capacity import run_capacity

        kw = dict(scenario="mux", seed=0, window=0.004, iterations=3)
        first = scenario_runs.capacity("mux", 0, 0.004, 3)
        second = run_capacity(**kw)
        assert first["fingerprint"] == second["fingerprint"]
        assert first["leaks"] == []
        assert first["pdr"] is not None
        assert first["pdr"]["rate"] >= (first["ndr"] or first["pdr"])["rate"]
        graceful = first["graceful"]
        if graceful is not None:
            assert graceful["hung_ops"] == 0
            assert graceful["jain_fairness"] >= 0.9
        # Overload control engaged somewhere along the sweep.
        assert any(s["rejected"] > 0 or s["eagain"] > 0
                   or s["overload"]["level_transitions"] > 0
                   for s in first["steps"])
