"""Determinism: identical configurations must produce identical runs.

Reproducibility of experiments depends on the simulator being fully
deterministic (heap ties broken by insertion order, all randomness
seeded).
"""

from repro.core.host import NetKernelHost
from repro.experiments.fig09_fairness import _run_one
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.trace.ag_trace import generate_fleet
from repro.units import gbps, usec


def run_transfer_fingerprint():
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))
    nsm = host.add_nsm("nsm0", vcpus=2, stack="kernel")
    server_vm = host.add_vm("srv", vcpus=2, nsm=nsm)
    client_vm = host.add_vm("cli", vcpus=1, nsm=nsm)
    api_s, api_c = host.socket_api(server_vm), host.socket_api(client_vm)
    trace = []

    def server():
        listener = yield from api_s.socket()
        yield from api_s.bind(listener, 80)
        yield from api_s.listen(listener)
        conn = yield from api_s.accept(listener)
        while True:
            data = yield from api_s.recv(conn, 65536)
            if not data:
                break
            trace.append((round(sim.now, 9), len(data)))

    def client():
        yield sim.timeout(0.001)
        sock = yield from api_c.socket()
        yield from api_c.connect(sock, ("nsm0", 80))
        yield from api_c.send(sock, b"m" * 150_000)
        yield from api_c.close(sock)

    server_vm.spawn(server())
    client_vm.spawn(client())
    sim.run(until=5.0)
    stats = host.coreengine.stats()
    return (tuple(trace), stats["nqes_switched"], stats["batches"],
            round(host.ce_cores[0].busy_cycles, 3))


class TestDeterminism:
    def test_netkernel_run_is_reproducible(self):
        assert run_transfer_fingerprint() == run_transfer_fingerprint()

    def test_fairness_run_is_reproducible(self):
        first = _run_one(16, vm_level_cc=True, duration=0.3)
        second = _run_one(16, vm_level_cc=True, duration=0.3)
        assert first == second

    def test_trace_generation_is_reproducible(self):
        fleet_a = generate_fleet(30, seed=11)
        fleet_b = generate_fleet(30, seed=11)
        assert all(a.values == b.values for a, b in zip(fleet_a, fleet_b))
