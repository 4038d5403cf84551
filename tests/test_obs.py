"""The repro.obs observability layer: latency histograms, NQE lifecycle
tracing through a real workload, the report read from the host, the
zero-cost-when-disabled guarantee, and the ``repro stats`` CLI surface."""

import json

import pytest

from repro.core.host import NetKernelHost
from repro.net.fabric import Network
from repro.obs import HOP_STAGES, MetricsRegistry, geometric_bounds
from repro.obs.metrics import Histogram
from repro.sim import Simulator
from repro.units import gbps, mbps, usec


# ---------------------------------------------------------------- metrics --

class TestHistogram:
    def test_percentiles_of_known_distribution(self):
        hist = Histogram("h", {}, bounds=geometric_bounds(1e-6, 1.0, 128))
        for i in range(1, 101):
            hist.record(i * 1e-3)  # 1ms .. 100ms
        assert hist.count == 100
        # One-bucket resolution: within ~30% of the exact rank value.
        assert hist.percentile(0.50) == pytest.approx(50e-3, rel=0.35)
        assert hist.percentile(0.99) == pytest.approx(99e-3, rel=0.35)
        # Percentiles never escape the observed range.
        assert hist.min_value <= hist.percentile(0.50) <= hist.max_value
        assert hist.percentile(1.0) <= hist.max_value
        assert hist.mean == pytest.approx(50.5e-3)

    def test_empty_histogram(self):
        hist = Histogram("h", {})
        assert hist.percentile(0.5) == 0.0
        assert hist.mean == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["max"] == 0.0

    def test_overflow_values_counted(self):
        hist = Histogram("h", {}, bounds=geometric_bounds(1e-3, 1.0, 8))
        hist.record(50.0)  # above the top edge
        assert hist.overflow == 1
        assert hist.count == 1
        assert hist.percentile(0.5) == 50.0  # falls back to true max

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            geometric_bounds(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            geometric_bounds(1.0, 0.5, 8)


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.histogram("h", vm=1) is reg.histogram("h", vm=1)
        assert reg.histogram("h", vm=1) is not reg.histogram("h", vm=2)

    def test_named_iteration_and_snapshot(self):
        reg = MetricsRegistry()
        reg.histogram("nqe.e2e.CONNECT", vm=1).record(1e-4)
        reg.histogram("nqe.hop.guest_to_ce").record(2e-5)
        assert [h.name for h in reg.histograms_named("nqe.e2e.")] \
            == ["nqe.e2e.CONNECT"]
        snaps = [h.snapshot() for h in reg.histograms_named("nqe.")]
        assert [s["count"] for s in snaps] == [1, 1]
        json.dumps(snaps)  # fully serializable


# ------------------------------------------------------------- end-to-end --

def _run_workload(enable_obs: bool, transfer_bytes: int = 1 << 16):
    """The quickstart topology; returns (host, obs, done-dict)."""
    sim = Simulator()
    network = Network(sim, default_rate_bps=gbps(100),
                      default_delay_sec=usec(25))
    host = NetKernelHost(sim, network)
    obs = host.enable_observability() if enable_obs else None
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    vm_server = host.add_vm("srv", vcpus=1, nsm=nsm)
    vm_client = host.add_vm("cli", vcpus=1, nsm=nsm)
    host.coreengine.set_bandwidth_limit(vm_client.vm_id, mbps(500))
    host.coreengine.set_ops_limit(vm_client.vm_id, 200_000)
    api_s = host.socket_api(vm_server)
    api_c = host.socket_api(vm_client)
    done = {}

    def server():
        listener = yield from api_s.socket()
        yield from api_s.bind(listener, 80)
        yield from api_s.listen(listener)
        conn = yield from api_s.accept(listener)
        received = 0
        while received < transfer_bytes:
            data = yield from api_s.recv(conn, 1 << 16)
            if not data:
                break
            received += len(data)
        yield from api_s.send(conn, b"OK")
        yield from api_s.close(conn)
        done["server_bytes"] = received

    def client():
        yield sim.timeout(0.001)
        sock = yield from api_c.socket()
        yield from api_c.connect(sock, ("nsm0", 80))
        yield from api_c.send(sock, b"x" * transfer_bytes)
        done["reply"] = yield from api_c.recv(sock, 4096)
        yield from api_c.close(sock)
        done["finished_at"] = sim.now

    vm_server.spawn(server())
    vm_client.spawn(client())
    sim.run(until=2.0)
    return host, obs, done


class TestTracingEndToEnd:
    @pytest.fixture(scope="class")
    def traced_run(self):
        return _run_workload(enable_obs=True)

    def test_all_hops_observed(self, traced_run):
        _, obs, done = traced_run
        assert done["reply"] == b"OK"
        by_stage = {s["stage"]: s for s in obs.tracer.hop_snapshot()}
        assert tuple(s["stage"] for s in obs.tracer.hop_snapshot()) \
            == HOP_STAGES
        for stage in HOP_STAGES:
            assert by_stage[stage]["count"] > 0, stage
            assert by_stage[stage]["max"] > 0.0, stage

    def test_e2e_latency_per_request_op(self, traced_run):
        _, obs, _ = traced_run
        e2e = {h.name: h for h in obs.registry.histograms_named("nqe.e2e.")}
        # The client round-trips CONNECT, SOCKET, and CLOSE requests.
        for op in ("CONNECT", "SOCKET", "CLOSE"):
            assert any(name.endswith(op) for name in e2e), op
        connect = next(h for name, h in e2e.items()
                       if name.endswith("CONNECT"))
        # e2e >= sum of constituent hops is hard to assert exactly, but
        # the round trip must at least exceed the one-way hop medians.
        assert connect.percentile(0.5) > 0.0
        # One-way ops (SEND) and unsolicited events (DATA_ARRIVED) too.
        assert any(h.name.endswith("SEND")
                   for h in obs.registry.histograms_named("nqe.oneway."))
        assert any(h.name.endswith("DATA_ARRIVED")
                   for h in obs.registry.histograms_named("nqe.event."))

    def test_report_structure(self, traced_run):
        _, obs, _ = traced_run
        report = obs.report()
        assert [s["stage"] for s in report["stages"]] == list(HOP_STAGES)
        for stage in report["stages"]:
            assert stage["p50_us"] <= stage["p99_us"] <= stage["max_us"]
            assert stage["cycles"] > 0
        kinds = {op["kind"] for op in report["ops"]}
        assert {"e2e", "oneway", "event"} <= kinds
        # Read from the host at report time: rings and token buckets.
        assert any(key.startswith("cli.") for key in report["rings"])
        assert any(fields.get("peak_depth", 0) > 0
                   for fields in report["rings"].values())
        client_buckets = next(iter(report["token_buckets"].values()))
        # The capped client VM shows both bucket kinds.
        some_vm = [b for b in report["token_buckets"].values()
                   if set(b) == {"bw", "ops"}]
        assert some_vm, report["token_buckets"]
        assert some_vm[0]["bw"]["rate"] == mbps(500)
        assert report["hugepages"]
        assert report["counters"]["nqe.traced"] > 0
        assert report["coreengine"]["nqes_switched"] > 0
        json.dumps(report)  # JSON-ready end to end
        assert client_buckets  # at least one VM reported


class TestZeroCostWhenDisabled:
    def test_timeline_identical_with_and_without_obs(self):
        # Hooks never yield, charge cycles, or create events, so the
        # simulated outcome must match exactly — not approximately.
        host_off, _, done_off = _run_workload(enable_obs=False)
        host_on, _, done_on = _run_workload(enable_obs=True)
        assert done_off["server_bytes"] == done_on["server_bytes"]
        assert done_off["finished_at"] == done_on["finished_at"]
        for counter in ("events_processed", "events_cancelled"):
            assert getattr(host_off.sim, counter) \
                == getattr(host_on.sim, counter), counter
        stats_off = host_off.coreengine.stats()
        stats_on = host_on.coreengine.stats()
        assert stats_off == stats_on

    def test_obs_off_by_default(self):
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                          default_delay_sec=usec(25)))
        assert host.obs is None
        assert host.coreengine.obs is None
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm = host.add_vm("vm", vcpus=1, nsm=nsm)
        assert vm.guestlib.obs is None
        assert nsm.servicelib.obs is None

    def test_enable_is_idempotent(self):
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                          default_delay_sec=usec(25)))
        obs = host.enable_observability()
        assert host.enable_observability() is obs


# -------------------------------------------------------------------- CLI --

class TestStatsCli:
    def test_stats_json(self, capsys):
        from repro.cli import main
        assert main(["stats", "--json", "--bytes", "32768"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True and envelope["kind"] == "stats"
        report = envelope["data"]
        assert [s["stage"] for s in report["stages"]] == list(HOP_STAGES)
        assert all(s["count"] > 0 for s in report["stages"])
        assert report["token_buckets"]
        assert report["rings"]

    def test_stats_tables(self, capsys):
        from repro.cli import main
        assert main(["stats", "--bytes", "32768"]) == 0
        out = capsys.readouterr().out
        assert "guest_to_ce" in out
        assert "Token buckets" in out
        assert "CoreEngine:" in out
