"""NSM autoscaler (PR 6 tentpole, control-loop half).

Unit tests for the sizing policy and the job-queue mechanics, plus the
acceptance invariants on the full fig-autoscale scenarios (clean and
chaos): no VM ever assigned to an inactive NSM, zero dangling forwards,
NQE pool back in balance, and every retirement drained through live
migration.
"""

import pytest

from repro.core.autoscaler import (AutoscalePolicy, assignment_violations,
                                   reap_crashed_stack)
from repro.core.host import NetKernelHost
from repro.errors import ConfigurationError
from repro.net.fabric import Network
from repro.scenario import forward_counts
from repro.sim import Simulator
from tests import scenario_runs


class TestPolicy:
    def test_desired_nsms_tracks_load_with_headroom(self):
        policy = AutoscalePolicy(nsm_capacity=100.0, headroom=1.0,
                                 min_nsms=1, max_nsms=4)
        assert policy.desired_nsms(0.0) == 1       # clamped to min
        assert policy.desired_nsms(100.0) == 1
        assert policy.desired_nsms(101.0) == 2
        assert policy.desired_nsms(350.0) == 4
        assert policy.desired_nsms(10_000.0) == 4  # clamped to max

    def test_headroom_overprovisions(self):
        policy = AutoscalePolicy(nsm_capacity=100.0, headroom=1.5,
                                 max_nsms=8)
        assert policy.desired_nsms(100.0) == 2  # 150 effective

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(nsm_capacity=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(min_nsms=3, max_nsms=2)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(min_nsms=0)


def _autoscaled_host(signal, **kwargs):
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim))
    host.add_nsm("nsm0", vcpus=1, stack="kernel")
    defaults = dict(
        interval_sec=1e-3, provision_delay_sec=1e-4,
        policy=AutoscalePolicy(nsm_capacity=30.0, headroom=1.0,
                               min_nsms=1, max_nsms=6))
    defaults.update(kwargs)
    auto = host.enable_autoscaler(signal, **defaults)
    return sim, host, auto


class TestControlLoop:
    def test_fleet_tracks_the_signal_up_and_back_down(self):
        # capacity 30, headroom 1.0: desired = 1, 4, 4, 4, 1, 1, ...
        signal = [10.0, 100.0, 100.0, 100.0, 10.0]
        sim, host, auto = _autoscaled_host(signal)
        sim.run(until=0.012)
        auto.stop()
        assert auto.counters["spawned"] == 3
        assert auto.counters["retired"] == 3
        assert auto.counters["retire_aborted"] == 0
        assert auto.managed == {}
        # Only the static floor remains; it is never a retire candidate.
        assert sorted(host.nsms) == ["nsm0"]
        assert len(host.coreengine._active_nsm_ids()) == 1

    def test_callable_signal_and_sequence_clamp(self):
        sim, host, auto = _autoscaled_host(lambda tick: 10.0 * tick)
        assert auto.load_at(0) == 0.0
        assert auto.load_at(7) == 70.0
        auto.stop()
        sim2, host2, auto2 = _autoscaled_host([5.0, 15.0])
        assert auto2.load_at(0) == 5.0
        assert auto2.load_at(99) == 15.0  # holds the last sample
        auto2.stop()

    def test_second_autoscaler_rejected(self):
        sim, host, auto = _autoscaled_host([10.0])
        with pytest.raises(ConfigurationError):
            host.enable_autoscaler([10.0])
        auto.stop()

    def test_stop_halts_decisions_and_worker(self):
        sim, host, auto = _autoscaled_host([10.0, 100.0])
        sim.run(until=0.012)
        auto.stop()
        sim.run(until=0.02)
        ticks = auto.counters["ticks"]
        sim.run(until=0.03)
        assert auto.counters["ticks"] == ticks

    def test_crashed_managed_nsm_is_reaped_and_replaced(self):
        """Quarantine of a managed NSM submits a reap job: its stack
        state is torn down, the husk leaves the host registry, and the
        next tick re-spawns toward the desired count."""
        sim, host, auto = _autoscaled_host([60.0])  # desired = 2
        host.enable_failover(heartbeat_interval=1e-3,
                             detection_timeout=3e-3)
        obs = host.enable_observability()

        def crash_managed():
            name, nsm = sorted(auto.managed.items())[0]
            nsm.servicelib.crash()

        sim.call_at(4e-3, crash_managed)
        sim.run(until=0.03)
        auto.stop()
        actions = [event["action"] for event in auto.events]
        assert "reap" in actions
        assert auto.counters["spawned"] >= 2  # original + replacement
        assert len(auto.retired_stacks) >= 1
        assert auto.violations == []
        assert assignment_violations(host) == []
        _, dangling = forward_counts(host, auto.retired_stacks)
        assert dangling == 0
        # The fleet is back at strength with only live NSMs serving.
        assert len(host.coreengine._active_nsm_ids()) == 2
        report = obs.report()
        assert report["coreengine"]["nsms_quarantined"] == 1
        assert report["coreengine"]["vms_failed_over"] == 0
        assert "failover" not in report  # no guest op timed out or shed
        assert report["autoscale"]["autoscale.reap"] == actions.count("reap")
        assert (report["autoscale"]["autoscale.spawn"]
                == auto.counters["spawned"])


class TestShardAwareSpawn:
    def test_spawn_lands_on_emptiest_shard(self):
        """On a sharded switch, scale-out fills empty shards before
        doubling up anywhere: one serving NSM per switching core."""
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim), ce_shards=3)
        host.add_nsm("nsm0", vcpus=1, stack="kernel", shard=0)
        auto = host.enable_autoscaler(
            [100.0], interval_sec=1e-3, provision_delay_sec=1e-4,
            policy=AutoscalePolicy(nsm_capacity=30.0, headroom=1.0,
                                   min_nsms=1, max_nsms=3))
        sim.run(until=0.005)
        auto.stop()
        engine = host.coreengine
        spawned = [nsm for name, nsm in host.nsms.items() if name != "nsm0"]
        assert len(spawned) == 2  # desired 4, clamped to max_nsms=3
        homes = sorted(engine.shard_of_nsm(nsm.nsm_id) for nsm in spawned)
        assert homes == [1, 2]
        report = auto.report()
        assert sorted(report["shard_loads"]) == [0, 1, 2]
        assert all(row["nsms"] == 1
                   for row in report["shard_loads"].values())

    def test_report_has_one_shard_loads_row_on_single_core_switch(self):
        """A one-shard switch is a cluster of one: its report carries a
        single shard_loads row holding the whole fleet."""
        sim, host, auto = _autoscaled_host([10.0])
        auto.stop()
        loads = auto.report()["shard_loads"]
        assert list(loads) == [0]
        assert loads[0]["nsms"] == len(host.coreengine._active_nsm_ids())
        assert loads[0]["vms"] == len(host.vms)


class TestInvariantHelpers:
    def test_assignment_violation_detected_without_standby(self):
        """With no standby, quarantine leaves the VM pointing at the
        dead NSM (by design) — exactly what the helper must flag."""
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim))
        nsm = host.add_nsm("only", vcpus=1, stack="kernel")
        vm = host.add_vm("vm", nsm=nsm)
        assert assignment_violations(host) == []
        host.coreengine.quarantine_nsm(nsm.nsm_id, reason="test")
        assert assignment_violations(host) == [(vm.vm_id, nsm.nsm_id)]

    def test_reap_crashed_stack_counts_and_idempotence(self):
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim))
        nsm = host.add_nsm("nsm", vcpus=1, stack="kernel")
        stats = reap_crashed_stack(nsm.stack)
        assert stats == {"conns": 0, "listeners": 0}
        assert reap_crashed_stack(object()) == {"conns": 0, "listeners": 0}


@pytest.fixture(scope="module")
def clean_run():
    return scenario_runs.autoscale(0, False)


@pytest.fixture(scope="module")
def chaos_run():
    return scenario_runs.autoscale(0, True)


class TestScenarioInvariants:
    def test_clean_run_scales_and_serves(self, clean_run):
        counters = clean_run["autoscaler"]["counters"]
        assert clean_run["workload"]["rtts"] > 100
        assert counters["spawned"] >= 1
        assert counters["retired"] >= 1
        assert counters["migrations"] >= 1  # retire drains via migration

    def test_clean_run_leaves_no_state_behind(self, clean_run):
        assert clean_run["violations"] == []
        assert clean_run["forward_leaks"] == 0
        # A clean shutdown closes everything, so even live routing
        # state must be gone, not just dangling entries.
        assert clean_run["forward_entries"] == 0
        assert clean_run["table_entries"] == 0
        assert clean_run["pool_delta"] == 0

    def test_clean_run_exercises_the_shards(self, clean_run):
        assert clean_run["handoffs"] > 0

    def test_chaos_run_recovers_with_invariants_intact(self, chaos_run):
        """An NSM crash mid-rebalance: failover + reap recover it, and
        the acceptance invariants hold — zero dangling forwards, zero
        inactive assignments at every job boundary, pool balanced."""
        assert chaos_run["violations"] == []
        assert chaos_run["forward_leaks"] == 0
        assert chaos_run["pool_delta"] == 0
        counters = chaos_run["autoscaler"]["counters"]
        assert counters["spawned"] >= 1
        assert chaos_run["workload"]["rtts"] > 50  # service continued

    def test_registry_knows_fig_autoscale(self):
        from repro.experiments.registry import REGISTRY
        assert "fig-autoscale" in REGISTRY
