"""Tests for CoreEngine: registration, switching, and isolation."""

import pytest

from repro.core.coreengine import TokenBucket
from repro.core.host import NetKernelHost
from repro.core.nqe import Nqe, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.errors import ConfigurationError
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, mbps, usec


@pytest.fixture
def sim():
    return Simulator()


class TestTokenBucket:
    def test_consumes_up_to_burst(self, sim):
        bucket = TokenBucket(sim, rate_per_sec=1000.0, burst=100.0)
        assert bucket.try_consume(100.0)
        assert not bucket.try_consume(1.0)

    def test_refills_over_time(self, sim):
        bucket = TokenBucket(sim, rate_per_sec=1000.0, burst=100.0)
        bucket.try_consume(100.0)
        sim.timeout(0.05)
        sim.run()
        assert bucket.try_consume(50.0)

    def test_time_until(self, sim):
        bucket = TokenBucket(sim, rate_per_sec=100.0, burst=10.0)
        bucket.try_consume(10.0)
        assert bucket.time_until(10.0) == pytest.approx(0.1)

    def test_never_exceeds_burst(self, sim):
        bucket = TokenBucket(sim, rate_per_sec=1e3, burst=10.0)
        sim.timeout(100.0)
        sim.run()
        bucket._refill()
        assert bucket.tokens == pytest.approx(10.0)

    def test_burst_floor_keeps_bucket_usable(self, sim):
        # The bucket floors its burst at 1ms of rate so a single NQE can
        # ever pass even if the caller requests a microscopic burst.
        bucket = TokenBucket(sim, rate_per_sec=1e9, burst=1.0)
        assert bucket.burst == pytest.approx(1e6)

    def test_invalid_rate(self, sim):
        with pytest.raises(ConfigurationError):
            TokenBucket(sim, rate_per_sec=0.0, burst=1.0)

    def test_oversized_consume_does_not_widen_burst(self, sim):
        # Regression: an oversized request used to permanently widen the
        # burst, weakening the cap for the rest of the run.
        bucket = TokenBucket(sim, rate_per_sec=1000.0, burst=100.0)
        bucket.try_consume(500.0)
        assert bucket.burst == pytest.approx(100.0)

    def test_time_until_does_not_widen_burst(self, sim):
        bucket = TokenBucket(sim, rate_per_sec=1000.0, burst=100.0)
        bucket.time_until(500.0)
        assert bucket.burst == pytest.approx(100.0)

    def test_oversized_enforces_average_rate(self, sim):
        # An oversized op is admitted at a full bucket and runs a token
        # deficit, so back-to-back oversized ops still average the rate.
        bucket = TokenBucket(sim, rate_per_sec=1000.0, burst=100.0)
        assert bucket.try_consume(500.0)       # full bucket: admitted
        assert bucket.tokens == pytest.approx(-400.0)
        assert not bucket.try_consume(500.0)   # deficit: denied
        # Refilling back to full takes (500 tokens)/(1000/s) = 0.5 s,
        # i.e. exactly one 500-token op per 0.5 s -> 1000 tokens/s.
        assert bucket.time_until(500.0) == pytest.approx(0.5)
        sim.timeout(0.5)
        sim.run()
        assert bucket.try_consume(500.0)

    def test_refund_clamped_to_burst(self, sim):
        # Regression: the ops-failure refund used to add tokens without
        # clamping, letting the level exceed the configured burst.
        bucket = TokenBucket(sim, rate_per_sec=1000.0, burst=100.0)
        bucket.try_consume(50.0)
        bucket.refund(500.0)
        assert bucket.tokens == pytest.approx(100.0)


class TestRegistration:
    def test_register_assigns_unique_ids(self, sim):
        engine = ShardedCoreEngine(sim, [Core(sim)])
        vm_id, vm_dev = engine.register_vm("vm1", queue_sets=1)
        nsm_id, nsm_dev = engine.register_nsm("nsm1", queue_sets=2)
        assert vm_id != nsm_id
        assert vm_dev.role == "vm"
        assert nsm_dev.role == "nsm"
        assert len(nsm_dev.queue_sets) == 2

    def test_assign_requires_known_parties(self, sim):
        engine = ShardedCoreEngine(sim, [Core(sim)])
        vm_id, _ = engine.register_vm("vm1", queue_sets=1)
        with pytest.raises(ConfigurationError):
            engine.assign_vm(vm_id, 999)
        with pytest.raises(ConfigurationError):
            engine.assign_vm(999, vm_id)

    def test_deregister_vm_clears_state(self, sim):
        engine = ShardedCoreEngine(sim, [Core(sim)])
        vm_id, _ = engine.register_vm("vm1", queue_sets=1)
        nsm_id, _ = engine.register_nsm("nsm1", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)
        engine.table.insert((vm_id, 0, 1), nsm_id, 0)
        engine.deregister(vm_id)
        assert vm_id not in engine.vm_to_nsm
        assert len(engine.table) == 0

    def test_device_setup_cost_charged(self, sim):
        core = Core(sim)
        engine = ShardedCoreEngine(sim, [core])
        engine.register_vm("vm1", queue_sets=1)
        assert core.busy_by_component["ce.device_setup"] > 0

    def test_invalid_batch_size(self, sim):
        with pytest.raises(ConfigurationError):
            ShardedCoreEngine(sim, [Core(sim)], batch_size=0)


def _throughput_host(sim, caps):
    """A NetKernel host with one NSM, VMs with given caps, and a sink."""
    from repro.stack.tcp.engine import TcpEngine

    # A 2G fabric and jumbo MSS keep the packet count (wall time) down;
    # the isolation mechanics under test are rate-relative.
    network = Network(sim, default_rate_bps=gbps(2),
                      default_delay_sec=usec(25))
    host = NetKernelHost(sim, network)
    nsm = host.add_nsm("nsm0", vcpus=2, stack="kernel",
                       stack_kwargs={"mss": 32000})
    sink = TcpEngine(sim, network, "sink", mss=32000)
    received = {}

    def add_sender(name, port, cap):
        listener = sink.socket()
        sink.bind(listener, port)
        sink.listen(listener, 32)
        received[name] = {"bytes": 0}

        def on_accept(lst):
            child = sink.accept(lst)
            if child is None:
                return

            def drain(conn):
                while True:
                    data = sink.recv(conn, 1 << 20)
                    if not data:
                        break
                    received[name]["bytes"] += len(data)

            child.on_readable = drain

        listener.on_accept_ready = on_accept
        vm = host.add_vm(name, vcpus=1, nsm=nsm)
        if cap is not None:
            host.coreengine.set_bandwidth_limit(vm.vm_id, cap)
        api = host.socket_api(vm)

        def sender():
            sock = yield from api.socket()
            yield from api.connect(sock, ("sink", port))
            deadline = sim.now + 0.6
            while sim.now < deadline:
                yield from api.send(sock, b"z" * 32768)
            yield from api.close(sock)

        vm.spawn(sender())
        return vm

    for index, (name, cap) in enumerate(caps.items()):
        add_sender(name, 9000 + index, cap)
    return host, received


class TestIsolation:
    def test_bandwidth_cap_enforced(self, sim):
        host, received = _throughput_host(sim, {"vm1": mbps(50)})
        sim.run(until=1.0)
        bits = received["vm1"]["bytes"] * 8
        assert bits <= 50e6 * 0.8 + 5e6  # 0.6s at the cap + burst slack
        assert bits >= 15e6              # and the VM is not starved

    def test_uncapped_vm_exceeds_capped_vm(self, sim):
        host, received = _throughput_host(
            sim, {"capped": mbps(30), "open": None})
        sim.run(until=1.0)
        assert received["open"]["bytes"] > 2 * received["capped"]["bytes"]

    def test_ops_limit_enforced(self, sim):
        host, received = _throughput_host(sim, {"vm1": None})
        vm = host.vms["vm1"]
        # 100 send-NQEs per second, 32KB each -> ~3.2 MB/s ceiling.
        host.coreengine.set_ops_limit(vm.vm_id, 100.0)
        sim.run(until=1.0)
        assert received["vm1"]["bytes"] <= 4e6

    def test_clear_bandwidth_limit(self, sim):
        host, received = _throughput_host(sim, {"vm1": mbps(20)})
        vm = host.vms["vm1"]

        def lift():
            host.coreengine.clear_bandwidth_limit(vm.vm_id)

        sim.call_later(0.3, lift)
        sim.run(until=1.0)
        # After lifting the cap the VM must beat a pure-20Mbps run
        # (0.6s at 20M would be 12e6 bits).
        assert received["vm1"]["bytes"] * 8 > 16e6

    def test_rate_limit_stall_counter(self, sim):
        host, received = _throughput_host(sim, {"vm1": mbps(10)})
        sim.run(until=1.0)
        assert host.coreengine.stats()["rate_limited_stalls"] > 0


class TestControlOpsAdmission:
    def test_control_ring_ops_are_rate_limited(self, sim):
        # Regression: job-queue (control) NQEs used to be popped before
        # any admission check, bypassing the §4.4 per-VM ops bucket.
        engine = ShardedCoreEngine(sim, [Core(sim)])
        nsm_id, nsm_dev = engine.register_nsm("nsm", queue_sets=1)
        vm_id, vm_dev = engine.register_vm("vm", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)
        engine.set_ops_limit(vm_id, 100.0)  # burst = 1 op

        control_ring, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
        for i in range(50):
            control_ring.push(Nqe(NqeOp.SOCKET, vm_id, 0, 100 + i),
                              owner="guest")
        vm_dev.ring_doorbell()
        sim.run(until=0.1)

        # 100 ops/s over 0.1 s plus the 1-op burst admits ~11 NQEs; the
        # pre-fix engine switches all 50 immediately.
        assert engine.nqes_switched <= 20
        assert engine.nqes_switched >= 5
        assert engine.stats()["rate_limited_stalls"] > 0


def _slow_scan_engine(sim):
    """A one-shard switch whose per-device scan has an explicit
    suspension point, modelling any mid-pass yield (batch cost charging,
    backpressure...) so the kick-during-scan window can be hit
    deterministically."""
    engine = ShardedCoreEngine(sim, [Core(sim)])
    shard = engine.shards[0]
    service_device = shard._service_device

    def slow_service_device(reg):
        yield sim.timeout(1e-9)
        return (yield from service_device(reg))

    shard._service_device = slow_service_device
    return engine


class TestDoorbellRace:
    def test_kick_mid_scan_is_not_lost(self, sim):
        # Regression (lost-doorbell wakeup race): a kick() that fires
        # while _run is suspended mid-scan succeeds the old doorbell and
        # installs a fresh one.  If the push landed after its rings were
        # scanned and the pass otherwise made no progress, an engine that
        # sleeps on the *fresh* doorbell sleeps forever — nobody will
        # ring it again.  The fix captures the doorbell before the scan.
        engine = _slow_scan_engine(sim)
        nsm_id, _ = engine.register_nsm("nsm", queue_sets=1)
        vma_id, vma_dev = engine.register_vm("vma", queue_sets=1)
        vmb_id, _ = engine.register_vm("vmb", queue_sets=1)
        engine.assign_vm(vma_id, nsm_id)
        engine.assign_vm(vmb_id, nsm_id)

        def producer():
            # The pass scans vma at t=1ns, vmb at 2ns, nsm at 3ns; this
            # push+kick lands at 2.5ns — after vma's rings were scanned,
            # while the engine is suspended on the nsm scan step.
            yield sim.timeout(2.5e-9)
            ring, _ = vma_dev.produce_rings(vma_dev.queue_sets[0])
            ring.push(Nqe(NqeOp.SOCKET, vma_id, 0, 7), owner="guest")
            vma_dev.ring_doorbell()

        sim.process(producer())
        sim.run(until=0.01)
        assert not vma_dev.produce_pending(), "push never scanned: stalled"
        assert engine.nqes_switched == 1


class TestAutoAssignment:
    def test_least_loaded_nsm_chosen(self, sim):
        engine = ShardedCoreEngine(sim, [Core(sim)])
        nsm_a, _ = engine.register_nsm("a", queue_sets=1)
        nsm_b, _ = engine.register_nsm("b", queue_sets=1)
        # Load NSM a with two live connections.
        engine.table.insert((90, 0, 1), nsm_a, 0)
        engine.table.insert((90, 0, 2), nsm_a, 0)
        vm_id, _ = engine.register_vm("vm", queue_sets=1)
        chosen = engine.assign_vm_auto(vm_id)
        assert chosen == nsm_b
        assert engine.vm_to_nsm[vm_id] == nsm_b

    def test_requires_an_nsm(self, sim):
        engine = ShardedCoreEngine(sim, [Core(sim)])
        vm_id, _ = engine.register_vm("vm", queue_sets=1)
        with pytest.raises(ConfigurationError):
            engine.assign_vm_auto(vm_id)

    def test_host_add_vm_without_nsm_balances(self, sim):
        host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                          default_delay_sec=usec(25)))
        host.add_nsm("n1", vcpus=1, stack="kernel")
        host.add_nsm("n2", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", vcpus=1)  # no NSM given
        assert vm.vm_id in host.coreengine.vm_to_nsm
        api = host.socket_api(vm)
        done = {}

        def app():
            sock = yield from api.socket()
            yield from api.bind(sock, 80)
            yield from api.listen(sock)
            done["ok"] = True

        vm.spawn(app())
        sim.run(until=1.0)
        assert done.get("ok")
