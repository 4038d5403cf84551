"""Half-close (shutdown(SHUT_WR)) on both architectures: the classic
send-request / FIN / read-full-response pattern."""

import pytest

from repro.baseline.host import BaselineHost
from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.errors import InvalidSocketStateError, NotConnectedError, \
    SocketError
from repro.net.fabric import Network
from repro.scenario import census
from repro.sim import Simulator
from repro.units import gbps, usec


def netkernel_env(sim):
    host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    server_vm = host.add_vm("srv", vcpus=1, nsm=nsm)
    client_vm = host.add_vm("cli", vcpus=1, nsm=nsm)
    return (server_vm, client_vm, host.socket_api(server_vm),
            host.socket_api(client_vm), ("nsm0", 80))


def baseline_env(sim):
    host = BaselineHost(sim, Network(sim, default_rate_bps=gbps(10),
                                     default_delay_sec=usec(25)))
    server_vm = host.add_vm("srv", vcpus=1)
    client_vm = host.add_vm("cli", vcpus=1)
    return (server_vm, client_vm, host.socket_api(server_vm),
            host.socket_api(client_vm), ("srv", 80))


@pytest.mark.parametrize("env", [netkernel_env, baseline_env],
                         ids=["netkernel", "baseline"])
class TestHalfClose:
    def test_request_eof_response(self, env):
        """Client sends, shutdowns, and still reads the whole response."""
        sim = Simulator()
        server_vm, client_vm, api_s, api_c, addr = env(sim)
        request = b"Q" * 50_000
        response = b"R" * 80_000
        result = {}

        def server():
            listener = yield from api_s.socket()
            yield from api_s.bind(listener, 80)
            yield from api_s.listen(listener)
            conn = yield from api_s.accept(listener)
            got = bytearray()
            while True:  # read until the client's FIN
                data = yield from api_s.recv(conn, 65536)
                if not data:
                    break
                got.extend(data)
            result["request"] = bytes(got)
            yield from api_s.send(conn, response)
            yield from api_s.close(conn)

        def client():
            yield sim.timeout(0.001)
            sock = yield from api_c.socket()
            yield from api_c.connect(sock, addr)
            yield from api_c.send(sock, request)
            yield from api_c.shutdown(sock)      # half-close: FIN
            got = bytearray()
            while True:
                data = yield from api_c.recv(sock, 65536)
                if not data:
                    break
                got.extend(data)
            result["response"] = bytes(got)
            yield from api_c.close(sock)

        server_vm.spawn(server())
        client_vm.spawn(client())
        sim.run(until=20.0)
        assert result["request"] == request
        assert result["response"] == response

    def test_send_after_shutdown_rejected(self, env):
        sim = Simulator()
        server_vm, client_vm, api_s, api_c, addr = env(sim)
        outcome = {}

        def server():
            listener = yield from api_s.socket()
            yield from api_s.bind(listener, 80)
            yield from api_s.listen(listener)
            yield from api_s.accept(listener)

        def client():
            yield sim.timeout(0.001)
            sock = yield from api_c.socket()
            yield from api_c.connect(sock, addr)
            yield from api_c.shutdown(sock)
            try:
                yield from api_c.send(sock, b"too late")
            except (InvalidSocketStateError, NotConnectedError,
                    SocketError):
                outcome["rejected"] = True

        server_vm.spawn(server())
        client_vm.spawn(client())
        sim.run(until=5.0)
        assert outcome.get("rejected")


class TestDeregisteredVmDrop:
    """NQEs in flight toward a VM that deregistered mid-delivery."""

    def test_dropped_event_frees_hugepage_buffer(self):
        # Regression: CoreEngine used to discard NQEs addressed to a
        # vanished VM without releasing their hugepage payload, leaking
        # the buffer for the lifetime of the region.
        from repro.core.nqe import Nqe, NqeOp
        from repro.core.sharding import ShardedCoreEngine
        from repro.cpu.core import Core
        from repro.mem.hugepages import HugepageRegion

        sim = Simulator()
        engine = ShardedCoreEngine(sim, [Core(sim)])
        region = HugepageRegion(name="vm.hp")
        nsm_id, nsm_dev = engine.register_nsm("nsm", queue_sets=1)
        vm_id, _ = engine.register_vm("vm", queue_sets=1, hugepages=region)
        engine.assign_vm(vm_id, nsm_id)

        # The NSM has produced a data event for the VM...
        buffer = region.alloc(4096)
        buffer.write(b"d" * 4096)
        _, receive_ring = nsm_dev.produce_rings(nsm_dev.queue_sets[0])
        receive_ring.push(
            Nqe(NqeOp.DATA_ARRIVED, vm_id, 0, 1,
                data_ptr=buffer.buffer_id, size=4096),
            owner="servicelib")
        # ...but the VM shuts down before CoreEngine switches it.
        engine.deregister(vm_id)
        nsm_dev.ring_doorbell()
        sim.run(until=0.01)

        assert engine.stats()["nqes_dropped"] == 1
        assert buffer.freed
        # The NQE was built directly, not taken from the pool, so only
        # the census's hugepage check applies.
        assert census(engine, NQE_POOL.outstanding).hugepages == []

    def test_drop_without_payload_only_counts(self):
        from repro.core.nqe import Nqe, NqeOp
        from repro.core.sharding import ShardedCoreEngine
        from repro.cpu.core import Core

        sim = Simulator()
        engine = ShardedCoreEngine(sim, [Core(sim)])
        nsm_id, nsm_dev = engine.register_nsm("nsm", queue_sets=1)
        vm_id, _ = engine.register_vm("vm", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)

        completion_ring, _ = nsm_dev.produce_rings(nsm_dev.queue_sets[0])
        completion_ring.push(
            Nqe(NqeOp.OP_RESULT, vm_id, 0, 1), owner="servicelib")
        engine.deregister(vm_id)
        nsm_dev.ring_doorbell()
        sim.run(until=0.01)

        assert engine.stats()["nqes_dropped"] == 1
