"""Sharded CoreEngine: every host's switch is a cluster of >= 1 shards.

Covers the facade (placement, pinning, counter aggregation), the
one-shard default host, the shared directory, cross-shard
handoff correctness on a real echo workload, and the determinism proofs:
a traffic-closed partition's per-shard fingerprint is bit-identical to a
standalone one-shard run, and a two-shard run's per-shard timelines match
their pinned golden.
"""

import pytest

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.errors import ConfigurationError, SocketError
from repro.net.fabric import Network
from repro.perf.bench import _SHARD_FP_KEYS, _mux_workload, \
    _sharded_mux_workload
from repro.sim import Simulator
from tests.census import assert_census_clean

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
        """One control plane: every shard reaches it through its
        ``switch`` back-reference and holds no alias of its state."""
        sim, engine = _bare_cluster(n_shards=3)
        for shard in engine.shards:
            assert shard.switch is engine
            # One directory and one health verdict, not one per shard.
            for name in ("table", "vm_to_nsm", "_ids", "_vms", "_nsms",
                         "quarantined", "_last_ack"):
                assert not hasattr(shard, name), name

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
        """A recorded quarantine disqualifies the NSM even while its
        registration still says active (half-applied quarantine state
        must not receive new VMs)."""
        sim, engine = _bare_cluster(n_shards=2)
        nsm0, _ = engine.register_nsm("nsm0", 1, shard=0)
        nsm1, _ = engine.register_nsm("nsm1", 1, shard=1)
        engine.quarantined[nsm0] = "half-applied"
        assert engine._nsms[nsm0].active
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

    def test_deregister_reclaims_at_the_home_shard(self):
        """Deregistering a device homed on shard 1 removes it from the
        directory and reclaims its rings."""
        sim, engine = _bare_cluster(n_shards=2)
        vm, vm_dev = engine.register_vm("vm", 1, shard=1)
        nsm, _ = engine.register_nsm("nsm", 1, shard=0)
        engine.assign_vm(vm, nsm)
        pool_before = NQE_POOL.outstanding
        control_ring, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
        assert control_ring.try_push(
            NQE_POOL.acquire(NqeOp.SETSOCKOPT, vm, 0, 1), owner=object())

        engine.deregister(vm)
        assert vm not in engine._vms
        with pytest.raises(ConfigurationError):
            engine.shard_of_vm(vm)
        assert vm not in engine.vm_to_nsm
        assert len(control_ring) == 0
        assert NQE_POOL.outstanding == pool_before
        # The id is unknown now: a second deregister is a no-op.
        engine.deregister(vm)
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
        stats = engine.stats()
        assert stats["handoffs_in"] > 0
        assert stats["handoffs_in"] == stats["handoffs_out"]
        assert len(engine.table) == 0

    def test_traffic_closed_partition_has_no_handoffs(self):
        out = _sharded_mux_workload(n_shards=2, vms_per_shard=20,
                                    active_per_shard=2, nqes_per_active=6)
        assert out["handoffs"] == 0


class TestCrossShardControl:
    """Control steps for a device homed on one shard that touch devices
    homed on another: each home-side step must run at its own home."""

    def test_live_migration_of_a_vm_homed_on_the_other_shard(self):
        """A VM homed on shard 1 moves from an NSM on shard 0 to one on
        shard 1 mid-stream: every byte echoes intact, nothing resets,
        and the census is clean."""
        pool_baseline = NQE_POOL.outstanding
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim), ce_shards=2)
        nsm_a = host.add_nsm("nsm-a", vcpus=1, stack="kernel", shard=0)
        nsm_b = host.add_nsm("nsm-b", vcpus=1, stack="kernel", shard=1)
        nsm_srv = host.add_nsm("nsm-srv", vcpus=1, stack="kernel",
                               shard=0)
        server_vm = host.add_vm("server", nsm=nsm_srv, shard=0)
        client_vm = host.add_vm("client", nsm=nsm_a, shard=1)
        engine = host.coreengine
        assert engine.shard_of_vm(client_vm.vm_id) == 1
        server_api = host.socket_api(server_vm)
        client_api = host.socket_api(client_vm)
        chunk = bytes(range(256)) * 4
        done = {"echoed": b"", "errors": []}

        def server():
            lsock = yield from server_api.socket()
            yield from server_api.bind(lsock, PORT)
            yield from server_api.listen(lsock)
            conn = yield from server_api.accept(lsock)
            while True:
                data = yield from server_api.recv(conn, 4096)
                if not data:
                    break
                yield from server_api.send(conn, data)
            yield from server_api.close(conn)
            yield from server_api.close(lsock)

        def client():
            try:
                sock = yield from client_api.socket()
                yield from client_api.connect(sock, ("nsm-srv", PORT))
                for _ in range(16):
                    yield from client_api.send(sock, chunk)
                    got = b""
                    while len(got) < len(chunk):
                        got += yield from client_api.recv(sock, 4096)
                    done["echoed"] += got
                    yield sim.timeout(1e-3)
                yield from client_api.close(sock)
            except SocketError as error:
                done["errors"].append(error.errno_name)

        def migrate():
            done["record"] = yield from host.migrate_vm(client_vm, nsm_b)

        server_vm.spawn(server())
        client_vm.spawn(client())
        sim.call_at(5e-3, lambda: sim.process(migrate()))
        sim.run(until=0.1)

        assert done["echoed"] == chunk * 16
        assert done["errors"] == []
        assert done["record"]["source_nsm"] == nsm_a.nsm_id
        assert done["record"]["sockets_moved"] == 1
        assert engine.vm_to_nsm[client_vm.vm_id] == nsm_b.nsm_id
        stats = engine.stats()
        assert stats["vms_migrated"] == 1
        assert stats["conns_reset_on_failover"] == 0
        assert stats["shard.1"]["vms_migrated"] == 1
        # Only the NQEs switched before the move cross shards.
        assert engine.handoffs_in == 19
        assert_census_clean(host, pool_baseline)

    def test_quarantine_resets_and_rebinds_vms_on_both_shards(self):
        """Quarantining an NSM on shard 0 that serves VMs homed on both
        shards resets each VM's socket and rebinds both VMs."""
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim), ce_shards=2)
        dead = host.add_nsm("nsm-a", vcpus=1, stack="kernel", shard=0)
        standby = host.add_nsm("nsm-b", vcpus=1, stack="kernel", shard=1)
        vms = [host.add_vm(f"vm{i}", nsm=dead, shard=i) for i in (0, 1)]
        server_vm = host.add_vm("server", nsm=standby, shard=1)
        engine = host.coreengine
        server_api = host.socket_api(server_vm)
        outcome = {}

        def server():
            lsock = yield from server_api.socket()
            yield from server_api.bind(lsock, PORT)
            yield from server_api.listen(lsock)
            while True:
                yield from server_api.accept(lsock)

        def client(vm):
            api = host.socket_api(vm)
            sock = yield from api.socket()
            yield from api.connect(sock, ("nsm-b", PORT))
            try:
                yield from api.recv(sock, 64)
            except SocketError as error:
                outcome[vm.name] = error.errno_name

        server_vm.spawn(server())
        for vm in vms:
            vm.spawn(client(vm))
        sim.run(until=0.01)
        moved = engine.quarantine_nsm(dead.nsm_id, reason="test")
        sim.run(until=0.02)

        assert moved == [vm.vm_id for vm in vms] == [3, 4]
        assert outcome == {"vm0": "ECONNRESET", "vm1": "ECONNRESET"}
        assert all(engine.vm_to_nsm[vm.vm_id] == standby.nsm_id
                   for vm in vms)
        stats = engine.stats()
        assert stats["shard.0"]["nsms_quarantined"] == 1
        assert stats["shard.0"]["conns_reset_on_failover"] == 2
        assert stats["vms_failed_over"] == 2


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
