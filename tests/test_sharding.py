"""Sharded CoreEngine: every host's switch is a cluster of >= 1 shards.

Covers the facade (placement, pinning, counter aggregation), the
one-shard default host, the shared directory, cross-shard
handoff correctness on a real echo workload, and the determinism proofs:
a traffic-closed partition's per-shard fingerprint is bit-identical to a
standalone one-shard run, and a two-shard run's per-shard timelines match
their pinned golden.
"""

import pytest

from repro.core.control import CeOp, ControlPlane, decode, encode
from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.errors import ConfigurationError
from repro.net.fabric import Network
from repro.perf.bench import _SHARD_FP_KEYS, _mux_workload, \
    _sharded_mux_workload
from repro.sim import Simulator

PORT = 7400


def _bare_cluster(n_shards=2):
    sim = Simulator()
    cores = [Core(sim, name=f"ce{i}") for i in range(n_shards)]
    return sim, ShardedCoreEngine(sim, cores)


class TestFacade:
    def test_needs_at_least_one_core(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ShardedCoreEngine(sim, [])

    def test_round_robin_placement_per_role(self):
        sim, engine = _bare_cluster(n_shards=3)
        vm_ids = [engine.register_vm(f"vm{i}", 1)[0] for i in range(6)]
        nsm_ids = [engine.register_nsm(f"nsm{i}", 1)[0] for i in range(3)]
        assert [engine.shard_of_vm(v) for v in vm_ids] == [0, 1, 2, 0, 1, 2]
        assert [engine.shard_of_nsm(n) for n in nsm_ids] == [0, 1, 2]

    def test_shard_pinning_and_range_check(self):
        sim, engine = _bare_cluster(n_shards=2)
        vm_id, _ = engine.register_vm("vm", 1, shard=1)
        nsm_id, _ = engine.register_nsm("nsm", 1, shard=1)
        assert engine.shard_of_vm(vm_id) == 1
        assert engine.shard_of_nsm(nsm_id) == 1
        with pytest.raises(ConfigurationError):
            engine.register_vm("oob", 1, shard=2)

    def test_control_plane_is_shared_across_shards(self):
        sim, engine = _bare_cluster(n_shards=3)
        first = engine.shards[0]
        for shard in engine.shards[1:]:
            assert shard.table is first.table
            assert shard.vm_to_nsm is first.vm_to_nsm
            assert shard._ids is first._ids
            # One directory and one health verdict, not one per shard.
            assert shard._vms is first._vms
            assert shard._nsms is first._nsms
            assert shard.quarantined is first.quarantined
            assert shard._last_ack is first._last_ack

    def test_cross_shard_assignment_and_least_loaded(self):
        """assign_vm_auto must see NSMs on every shard, and exclude
        quarantined ones wherever they live."""
        sim, engine = _bare_cluster(n_shards=2)
        vm_id, _ = engine.register_vm("vm", 1, shard=0)
        nsm0, _ = engine.register_nsm("nsm0", 1, shard=0)
        nsm1, _ = engine.register_nsm("nsm1", 1, shard=1)
        engine.quarantine_nsm(nsm0, reason="test")
        assert engine.assign_vm_auto(vm_id) == nsm1
        assert sorted(engine.quarantined) == [nsm0]

    def test_summed_counters_and_stats(self):
        sim, engine = _bare_cluster(n_shards=2)
        engine.shards[0].nqes_switched = 3
        engine.shards[1].nqes_switched = 4
        engine.shards[0].handoffs_in = 2
        assert engine.nqes_switched == 7
        assert engine.handoffs_in == 2
        stats = engine.stats()
        assert stats["shards"] == 2
        assert stats["nqes_switched"] == 7
        assert "shard.0" in stats and "shard.1" in stats


class TestShardAwarePlacement:
    def test_auto_assign_prefers_home_shard(self):
        sim, engine = _bare_cluster(n_shards=2)
        nsm0, _ = engine.register_nsm("nsm0", 1, shard=0)
        nsm1, _ = engine.register_nsm("nsm1", 1, shard=1)
        # Load the shard-0 NSM well above the shard-1 one; a VM booting
        # on shard 0 must still co-home with it (traffic-closedness
        # beats cluster-wide least-loaded).
        engine.table.insert((99, 0, 1), nsm0, 0)
        engine.table.insert((99, 0, 2), nsm0, 0)
        vm0, _ = engine.register_vm("vm0", 1, shard=0)
        assert engine.assign_vm_auto(vm0) == nsm0
        vm1, _ = engine.register_vm("vm1", 1, shard=1)
        assert engine.assign_vm_auto(vm1) == nsm1

    def test_auto_assign_balances_within_home_shard(self):
        sim, engine = _bare_cluster(n_shards=2)
        nsm_a, _ = engine.register_nsm("a", 1, shard=0)
        nsm_b, _ = engine.register_nsm("b", 1, shard=0)
        engine.table.insert((99, 0, 1), nsm_a, 0)
        vm0, _ = engine.register_vm("vm0", 1, shard=0)
        assert engine.assign_vm_auto(vm0) == nsm_b

    def test_auto_assign_falls_back_across_shards(self):
        sim, engine = _bare_cluster(n_shards=2)
        nsm1, _ = engine.register_nsm("nsm1", 1, shard=1)
        vm0, _ = engine.register_vm("vm0", 1, shard=0)
        assert engine.assign_vm_auto(vm0) == nsm1

    def test_auto_assign_skips_quarantined_home_nsm(self):
        sim, engine = _bare_cluster(n_shards=2)
        nsm0, _ = engine.register_nsm("nsm0", 1, shard=0)
        nsm1, _ = engine.register_nsm("nsm1", 1, shard=1)
        engine.quarantine_nsm(nsm0, reason="test")
        vm0, _ = engine.register_vm("vm0", 1, shard=0)
        assert engine.assign_vm_auto(vm0) == nsm1

    def test_auto_assign_distrusts_stale_active_flag(self):
        """A quarantine recorded on the home shard disqualifies the NSM
        even while its registration still says active (half-applied
        quarantine state must not receive new VMs)."""
        sim, engine = _bare_cluster(n_shards=2)
        nsm0, _ = engine.register_nsm("nsm0", 1, shard=0)
        nsm1, _ = engine.register_nsm("nsm1", 1, shard=1)
        home = engine.shards[0]
        home.quarantined[nsm0] = "half-applied"
        assert home._nsms[nsm0].active
        vm0, _ = engine.register_vm("vm0", 1, shard=0)
        assert engine.assign_vm_auto(vm0) == nsm1

    def test_auto_assign_without_candidates_raises(self):
        sim, engine = _bare_cluster()
        vm0, _ = engine.register_vm("vm0", 1)
        with pytest.raises(ConfigurationError):
            engine.assign_vm_auto(vm0)


class TestDirectoryConsistency:
    def test_unknown_ids_raise_configuration_error(self):
        sim, engine = _bare_cluster()
        with pytest.raises(ConfigurationError):
            engine.shard_of_vm(999)
        with pytest.raises(ConfigurationError):
            engine.shard_of_nsm(999)

    def test_deregister_unknown_is_silent(self):
        sim, engine = _bare_cluster()
        engine.deregister(12345)  # guest-reachable op: must not raise

    def test_deregister_clears_directory(self):
        sim, engine = _bare_cluster()
        vm_id, _ = engine.register_vm("vm", 1, shard=1)
        engine.deregister(vm_id)
        with pytest.raises(ConfigurationError):
            engine.shard_of_vm(vm_id)

    def test_shard_side_deregister_keeps_directory_in_step(self):
        """A guest DEREGISTER lands on the home shard's engine, not the
        facade; the shared directory must still be cleaned."""
        sim, engine = _bare_cluster()
        vm_id, _ = engine.register_vm("vm", 1, shard=1)
        engine.shards[1].deregister(vm_id)
        with pytest.raises(ConfigurationError):
            engine.shard_of_vm(vm_id)
        assert all(vm_id not in shard._vms for shard in engine.shards)


    def test_deregister_on_a_peer_shard_deregisters_at_home(self):
        """A guest DEREGISTER for a device homed on shard 0 that reaches
        shard 1's control plane deregisters it at its home: the device
        leaves the shared directory and its rings are reclaimed."""
        sim, engine = _bare_cluster(n_shards=2)
        vm, vm_dev = engine.register_vm("vm", 1, shard=0)
        nsm, _ = engine.register_nsm("nsm", 1, shard=0)
        engine.assign_vm(vm, nsm)
        pool_before = NQE_POOL.outstanding
        control_ring, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
        assert control_ring.try_push(
            NQE_POOL.acquire(NqeOp.SETSOCKOPT, vm, 0, 1), owner=object())

        plane = ControlPlane(engine.shards[1])
        reply = plane.handle(encode(CeOp.DEREGISTER, 0, vm))
        assert decode(reply)[0] is CeOp.OK
        assert vm not in engine.shards[0]._vms
        with pytest.raises(ConfigurationError):
            engine.shard_of_vm(vm)
        assert vm not in engine.vm_to_nsm
        assert len(control_ring) == 0
        assert NQE_POOL.outstanding == pool_before
        # The id is unknown now: a second DEREGISTER is still a no-op.
        reply = plane.handle(encode(CeOp.DEREGISTER, 0, vm))
        assert decode(reply)[0] is CeOp.OK
        assert engine.shard_of_nsm(nsm) == 0


class TestSingleShardHost:
    """Every host runs the sharded switch; the default is one shard."""

    def test_default_host_is_a_cluster_of_one(self):
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim))
        engine = host.coreengine
        assert isinstance(engine, ShardedCoreEngine)
        assert engine.n_shards == 1
        assert [core.name for core in host.ce_cores] == ["host.ce"]
        assert engine.shards[0]._inbound is None  # no peers, no inbox
        assert "shards" not in engine.stats()

    def test_shard_zero_pins_and_shard_one_is_out_of_range(self):
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim))
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel", shard=0)
        vm = host.add_vm("vm0", nsm=nsm, shard=0)
        assert host.coreengine.shard_of_nsm(nsm.nsm_id) == 0
        assert host.coreengine.shard_of_vm(vm.vm_id) == 0
        with pytest.raises(ConfigurationError):
            host.add_nsm("nsm1", vcpus=1, stack="kernel", shard=1)
        with pytest.raises(ConfigurationError):
            host.add_vm("vm1", nsm=nsm, shard=1)


class TestShardLoads:
    def test_shard_loads_reports_per_shard_occupancy(self):
        sim, engine = _bare_cluster(n_shards=3)
        nsm0, _ = engine.register_nsm("nsm0", 1, shard=0)
        engine.register_nsm("nsm1", 1, shard=1)
        vm, _ = engine.register_vm("vm", 1, shard=0)
        engine.table.insert((vm, 0, 1), nsm0, 0)
        loads = engine.shard_loads()
        assert loads[0] == {"nsms": 1, "vms": 1, "connections": 1}
        assert loads[1] == {"nsms": 1, "vms": 0, "connections": 0}
        assert loads[2] == {"nsms": 0, "vms": 0, "connections": 0}

    def test_emptiest_shard_prefers_fewest_nsms_then_connections(self):
        sim, engine = _bare_cluster(n_shards=3)
        engine.register_nsm("nsm0", 1, shard=0)
        assert engine.emptiest_shard() == 1  # no NSMs; index breaks tie
        engine.register_nsm("nsm1", 1, shard=1)
        engine.register_nsm("nsm2", 1, shard=2)
        nsm3, _ = engine.register_nsm("nsm3", 1, shard=0)
        engine.table.insert((50, 0, 1), nsm3, 0)
        # All shards have NSMs (shard 0: two); 1 and 2 tie on count and
        # connections, index decides.
        assert engine.emptiest_shard() == 1

    def test_quarantined_nsm_leaves_the_load_report(self):
        sim, engine = _bare_cluster(n_shards=2)
        nsm0, _ = engine.register_nsm("nsm0", 1, shard=0)
        engine.quarantine_nsm(nsm0, reason="test")
        assert engine.shard_loads()[0]["nsms"] == 0


class TestCrossShardHandoff:
    def test_echo_rtts_across_shards(self):
        """Client VM homed on shard 1, its serving NSM on shard 0: every
        request and response crosses the shard boundary via the handoff
        inbox, and the echo still completes byte-exact."""
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim), ce_shards=2)
        nsm0 = host.add_nsm("nsm0", vcpus=1, stack="kernel")  # shard 0
        server_vm = host.add_vm("server", nsm=nsm0)           # shard 0
        client_vm = host.add_vm("client", nsm=nsm0)           # shard 1
        engine = host.coreengine
        assert engine.shard_of_nsm(nsm0.nsm_id) == 0
        assert engine.shard_of_vm(server_vm.vm_id) == 0
        assert engine.shard_of_vm(client_vm.vm_id) == 1
        server_api = host.socket_api(server_vm)
        client_api = host.socket_api(client_vm)
        done = {}

        def server():
            lsock = yield from server_api.socket()
            yield from server_api.bind(lsock, PORT)
            yield from server_api.listen(lsock)
            conn = yield from server_api.accept(lsock)
            data = yield from server_api.recv(conn, 64)
            yield from server_api.send(conn, data)
            yield from server_api.close(conn)
            yield from server_api.close(lsock)

        def client():
            sock = yield from client_api.socket()
            yield from client_api.connect(sock, ("nsm0", PORT))
            yield from client_api.send(sock, b"across-shards")
            done["reply"] = yield from client_api.recv(sock, 64)
            yield from client_api.close(sock)

        server_vm.spawn(server())
        client_vm.spawn(client())
        sim.run(until=0.05)

        assert done["reply"] == b"across-shards"
        # The client VM's NQEs were switched on shard 1 and delivered to
        # the NSM homed on shard 0 (and vice versa for responses).
        assert engine.handoffs_in > 0
        assert engine.handoffs_in == engine.handoffs_out
        assert len(engine.table) == 0

    def test_traffic_closed_partition_has_no_handoffs(self):
        out = _sharded_mux_workload(n_shards=2, vms_per_shard=20,
                                    active_per_shard=2, nqes_per_active=6)
        assert out["handoffs"] == 0


#: (per-shard fingerprints, sim_now) of the 2 x 30-VM sharded mux run.
SHARDED_GOLDEN = (
    [{"nqes_switched": 36, "batches": 36, "received": 18,
      "ce_busy_cycles": 382350.0}] * 2,
    0.000123)


class TestShardDeterminism:
    def test_per_shard_fingerprint_matches_one_shard_run(self):
        """The acceptance proof at test scale: each shard of a
        traffic-closed partition runs a timeline bit-identical to a
        standalone single-shard CoreEngine over the same population."""
        ref = _mux_workload(n_vms=40, active_vms=4,
                            nqes_per_active=8)
        ref_fp = {key: ref[key] for key in _SHARD_FP_KEYS}
        out = _sharded_mux_workload(n_shards=3, vms_per_shard=40,
                                    active_per_shard=4, nqes_per_active=8)
        assert out["handoffs"] == 0
        assert len(out["per_shard"]) == 3
        for fingerprint in out["per_shard"]:
            assert fingerprint == ref_fp
        assert out["sim_now"] == ref["sim_now"]

    def test_ready_vs_full_scan_identity_holds_per_shard(self):
        """Per-shard timelines, pinned when this test still compared the
        ready-set and the full-scan scheduler (hence its name)."""
        out = _sharded_mux_workload(n_shards=2, vms_per_shard=30,
                                    active_per_shard=3, nqes_per_active=6)
        assert (out["per_shard"], out["sim_now"]) == SHARDED_GOLDEN

    def test_seeded_replay_is_bit_identical(self):
        first = _sharded_mux_workload(n_shards=2, vms_per_shard=20,
                                      active_per_shard=2, nqes_per_active=5)
        second = _sharded_mux_workload(n_shards=2, vms_per_shard=20,
                                       active_per_shard=2, nqes_per_active=5)
        assert first == second
