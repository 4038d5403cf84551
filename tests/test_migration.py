"""Live NSM migration (§8): zero-reset stack upgrade between NSMs.

Covers the acceptance bar from the issue — ≥100 established connections
move between two NSMs with nothing surfaced to the guests, payloads
intact, a bounded blackout, and bit-identical seeded replays — plus the
rejection cases, listener migration with packet forwarding, the obs
hooks, and the satellite property tests: resource balance holds after a
migration under every named fault plan.
"""

import pytest

from repro.cli import main
from repro.core.host import NetKernelHost
from repro.errors import ConfigurationError
from repro.faults.migration import run_migration
from repro.faults.plan import PLAN_NAMES
from repro.net.fabric import Network
from repro.sim import Simulator
from tests import scenario_runs

#: Plans mild enough that every stream must ride through the overlapped
#: migration without a single guest-visible reset.  nsm-crash and
#: nsm-stall intentionally kill/quarantine the source NSM (failover's
#: ECONNRESET path is correct there); ring-drop loses CLOSE acks, which
#: surface as bounded timeouts.
ZERO_RESET_PLANS = ("doorbell-loss", "hugepage-squeeze",
                    "delayed-completion")


class TestMigrationWorkload:
    def test_hundred_streams_migrate_with_zero_resets(self):
        result = scenario_runs.migration(0, 100, 0.12)
        record = result["migration"]
        counters = result["counters"]
        assert record is not None, result["migration_error"]
        assert record["sockets_moved"] >= 100
        assert record["entries_rebound"] >= 100
        assert counters["connects"] == 100
        assert counters["resets"] == 0
        assert counters["timeouts"] == 0
        assert counters["mismatches"] == 0
        assert counters["echoes_ok"] > 0
        assert counters["bytes_echoed"] == counters["echoes_ok"] * 512
        assert counters["closed_clean"] == 100
        assert result["leaks"] == []
        assert result["client_table_entries"] == 0

    def test_blackout_is_bounded_and_linear_in_connections(self):
        result = run_migration(seed=0, streams=100, duration=0.12,
                               blackout_base_sec=50e-6,
                               blackout_per_conn_sec=1e-6)
        record = result["migration"]
        assert record["blackout_sec"] == pytest.approx(
            50e-6 + 1e-6 * record["sockets_moved"])
        assert record["resumed"] > record["blackout_started"]
        assert record["total_sec"] >= record["blackout_sec"]

    def test_tcb_state_travels_in_the_record(self):
        result = run_migration(seed=2, streams=3, duration=0.08)
        record = result["migration"]
        assert record["tcb_states"] == ["established"] * 3

    def test_seeded_replay_is_bit_identical(self):
        first = run_migration(seed=7, streams=12, duration=0.1)
        second = run_migration(seed=7, streams=12, duration=0.1)
        assert (first["switch_fingerprint"]
                == second["switch_fingerprint"])
        assert first["leaks"] == [] and second["leaks"] == []

    def test_different_seeds_change_payloads_not_correctness(self):
        first = run_migration(seed=1, streams=4, duration=0.08)
        second = run_migration(seed=2, streams=4, duration=0.08)
        for result in (first, second):
            assert result["counters"]["mismatches"] == 0
            assert result["counters"]["resets"] == 0
        # Payload patterns differ by seed, so the byte counters agree but
        # the timelines need not; correctness, not identity, is asserted.


class TestMigrationUnderFaults:
    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    def test_resources_balance_under_every_fault_kind(self, plan_name):
        """NQE pool, hugepage bytes, and the client's connection-table
        entries return to their pre-migration values whatever fault
        overlaps the migration window."""
        result = run_migration(seed=3, streams=6, duration=0.12,
                               migrate_at=0.042, plan_name=plan_name)
        assert result["leaks"] == []
        assert result["counters"]["mismatches"] == 0
        if plan_name == "ring-drop":
            # Dropped CLOSE acks leave entries a real close would have
            # removed; the guest saw a bounded timeout for each.
            assert (result["client_table_entries"]
                    <= result["counters"]["timeouts"] * 2)
        else:
            assert result["client_table_entries"] == 0

    @pytest.mark.parametrize("plan_name", ZERO_RESET_PLANS)
    def test_mild_faults_stay_zero_reset(self, plan_name):
        result = run_migration(seed=3, streams=6, duration=0.12,
                               migrate_at=0.042, plan_name=plan_name)
        assert result["counters"]["resets"] == 0
        assert result["migration"] is not None

    def test_crashed_source_aborts_cleanly(self):
        """nsm-crash kills the source before the export: the migration
        must refuse (not wedge), and failover resets the streams."""
        result = run_migration(seed=3, streams=6, duration=0.12,
                               migrate_at=0.042, plan_name="nsm-crash")
        assert result["migration"] is None
        assert "crashed" in result["migration_error"]
        assert result["counters"]["resets"] == 6
        assert result["leaks"] == []


def _two_nsm_host():
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim))
    nsm_a = host.add_nsm("nsm-a", vcpus=1, stack="kernel")
    nsm_b = host.add_nsm("nsm-b", vcpus=1, stack="kernel")
    return sim, host, nsm_a, nsm_b


class TestMigrationApi:
    def test_same_nsm_rejected(self):
        sim, host, nsm_a, _ = _two_nsm_host()
        vm = host.add_vm("vm", vcpus=1, nsm=nsm_a)
        with pytest.raises(ConfigurationError):
            next(host.migrate_vm(vm, nsm_a))

    def test_unknown_vm_rejected(self):
        sim, host, nsm_a, nsm_b = _two_nsm_host()
        with pytest.raises(ConfigurationError):
            next(host.coreengine.migrate_vm(
                999, nsm_b.nsm_id, nsm_a.servicelib, nsm_b.servicelib))

    def test_concurrent_migration_rejected(self):
        sim, host, nsm_a, nsm_b = _two_nsm_host()
        vm = host.add_vm("vm", vcpus=1, nsm=nsm_a)
        errors = []

        def second():
            yield sim.timeout(1e-6)
            try:
                yield from host.migrate_vm(vm, nsm_b)
            except ConfigurationError as error:
                errors.append(str(error))

        sim.process(host.migrate_vm(vm, nsm_b))
        sim.process(second())
        sim.run(until=0.01)
        assert errors and "already migrating" in errors[0]

    def test_listener_migration_forwards_and_serves_new_connections(self):
        """Migrating a server VM moves its listener; packets addressed to
        the old NSM's fabric name — including fresh SYNs — are forwarded
        to the new engine, so established conns AND new connects keep
        working across the move."""
        port = 7100
        sim, host, nsm_a, nsm_b = _two_nsm_host()
        nsm_c = host.add_nsm("nsm-srv", vcpus=1, stack="kernel")
        server_vm = host.add_vm("server", vcpus=1, nsm=nsm_a)
        client_vm = host.add_vm("client", vcpus=1, nsm=nsm_c)
        host.enable_observability()
        server_api = host.socket_api(server_vm)
        client_api = host.socket_api(client_vm)
        done = {}

        def server():
            listener = yield from server_api.socket()
            yield from server_api.bind(listener, port)
            yield from server_api.listen(listener, backlog=16)
            while True:
                conn = yield from server_api.accept(listener)
                server_vm.spawn(echo(conn))

        def echo(conn):
            while True:
                data = yield from server_api.recv(conn, 4096)
                if not data:
                    return
                yield from server_api.send(conn, data)

        def client():
            sock = yield from client_api.socket()
            yield from client_api.connect(sock, ("nsm-a", port))
            yield from client_api.send(sock, b"before")
            done["before"] = yield from client_api.recv(sock, 64)
            yield sim.timeout(30e-3)  # ride through the migration
            yield from client_api.send(sock, b"after")
            done["after"] = yield from client_api.recv(sock, 64)
            yield from client_api.close(sock)
            fresh = yield from client_api.socket()
            yield from client_api.connect(fresh, ("nsm-a", port))
            yield from client_api.send(fresh, b"fresh")
            done["fresh"] = yield from client_api.recv(fresh, 64)
            yield from client_api.close(fresh)

        def migrate():
            done["record"] = yield from host.migrate_vm(server_vm, nsm_b)

        server_vm.spawn(server())
        client_vm.spawn(client())
        sim.call_at(10e-3, lambda: sim.process(migrate()))
        sim.run(until=0.1)

        assert done["before"] == b"before"
        assert done["after"] == b"after"
        assert done["fresh"] == b"fresh"
        record = done["record"]
        assert record["sockets_moved"] >= 2  # listener + established conn
        assert host.coreengine.vm_to_nsm[server_vm.vm_id] == nsm_b.nsm_id
        # The old engine forwarded the post-migration segments.
        assert nsm_a.stack.engine.segments_forwarded > 0

        report = host.obs.report()
        counters = report["coreengine"]
        assert counters["vms_migrated"] == 1
        assert counters["conns_migrated"] == record["sockets_moved"]
        assert report["migration"]["migration.blackout_sec"]["count"] == 1

    def test_experiment_registry_runs_fig_migration(self):
        from repro.experiments import run_experiment

        result = run_experiment("fig-migration", duration=0.08,
                                stream_counts=(1, 4))
        assert result.exp_id == "fig-migration"
        assert [row[0] for row in result.rows] == [1, 4]
        for row in result.rows:
            streams, blackout_ms, moved, _parked, echoes, resets, touts = row
            assert moved >= streams
            assert blackout_ms is not None and blackout_ms > 0
            assert echoes > 0 and resets == 0 and touts == 0
        assert "zero resets" in result.notes


class TestMigrateCli:
    def test_migrate_verify_exit_zero(self, capsys):
        code = main(["migrate", "--seed", "5", "--streams", "4",
                     "--duration", "0.08", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify OK" in out

    def test_migrate_json_output(self, capsys):
        import json

        code = main(["migrate", "--seed", "5", "--streams", "4",
                     "--duration", "0.08", "--json"])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        assert envelope["kind"] == "migrate"
        assert envelope["error"] is None
        payload = envelope["data"]["result"]
        assert payload["migration"]["sockets_moved"] == 4
        assert payload["counters"]["resets"] == 0
        assert payload["leaks"] == []
        assert len(payload["switch_fingerprint"]) == 64
