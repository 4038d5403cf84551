"""Configuration validation and assembly tests for hosts, VMs, NSMs."""

import inspect

import pytest

from repro.core.host import NetKernelHost
from repro.core.sockets import SocketApi
from repro.core.nsm import NetworkStackModule
from repro.core.vm import GuestVM
from repro.errors import ConfigurationError
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec


@pytest.fixture
def host():
    sim = Simulator()
    return NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))


class TestHostValidation:
    def test_duplicate_nsm_rejected(self, host):
        host.add_nsm("n", vcpus=1)
        with pytest.raises(ConfigurationError):
            host.add_nsm("n", vcpus=1)

    def test_duplicate_vm_rejected(self, host):
        nsm = host.add_nsm("n", vcpus=1)
        host.add_vm("v", vcpus=1, nsm=nsm)
        with pytest.raises(ConfigurationError):
            host.add_vm("v", vcpus=1, nsm=nsm)

    def test_unknown_stack_flavour_rejected(self, host):
        with pytest.raises(ConfigurationError):
            host.add_nsm("n", vcpus=1, stack="quantum")

    def test_vm_without_any_nsm_rejected(self, host):
        with pytest.raises(ConfigurationError):
            host.add_vm("v", vcpus=1)  # no NSM registered at all

    def test_stack_flavours_constant_is_accurate(self, host):
        for index, flavour in enumerate(NetKernelHost.STACK_FLAVOURS):
            nsm = host.add_nsm(f"n{index}", vcpus=1, stack=flavour)
            assert nsm.stack.name in ("kernel", "mtcp", "shm")

    def test_default_network_created_when_absent(self):
        sim = Simulator()
        host = NetKernelHost(sim)
        assert host.network is not None

    def test_cycles_by_role_empty_host(self, host):
        cycles = host.cycles_by_role()
        assert cycles["vms"] == 0.0
        assert cycles["nsms"] == 0.0
        # Registration costs may already be charged to CoreEngine.
        assert cycles["coreengine"] >= 0.0


class TestGuestVm:
    def test_needs_a_vcpu(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            GuestVM(sim, "v", vcpus=0)

    def test_cores_named_after_vm(self):
        sim = Simulator()
        vm = GuestVM(sim, "tenant-7", vcpus=2)
        assert vm.cores[0].name == "tenant-7.cpu0"
        assert vm.cores[1].name == "tenant-7.cpu1"
        assert vm.vcpus == 2

    def test_total_cycles_sums_cores(self):
        sim = Simulator()
        vm = GuestVM(sim, "v", vcpus=2)
        vm.cores[0].charge(100)
        vm.cores[1].charge(50)
        assert vm.total_cycles() == 150

    def test_socket_api_is_the_guestlib(self, host):
        # Applications call GuestLib directly, so it must offer every
        # SocketApi call with the same parameters.
        vm = host.add_vm("v", vcpus=1, nsm=host.add_nsm("n", vcpus=1))
        api = host.socket_api(vm)
        assert api is vm.guestlib
        for name, method in vars(SocketApi).items():
            if callable(method):
                assert (inspect.signature(getattr(api, name)).parameters
                        .keys() == inspect.signature(method).parameters
                        .keys() - {"self"}), name


class TestNsm:
    def test_needs_a_vcpu(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            NetworkStackModule(sim, "n", vcpus=0)

    def test_stack_name_before_assignment(self):
        sim = Simulator()
        nsm = NetworkStackModule(sim, "n", vcpus=1)
        assert nsm.stack_name == "unassigned"

    def test_nsm_with_vf_cap_is_reachable(self, host):
        """An SR-IOV-capped NSM still serves its VMs end to end."""
        sim = host.sim
        nsm = host.add_nsm("capped", vcpus=1, stack="kernel",
                           nic_rate_bps=gbps(1))
        vm_a = host.add_vm("a", vcpus=1, nsm=nsm)
        vm_b = host.add_vm("b", vcpus=1, nsm=nsm)
        api_a, api_b = host.socket_api(vm_a), host.socket_api(vm_b)
        result = {}

        def server():
            listener = yield from api_a.socket()
            yield from api_a.bind(listener, 80)
            yield from api_a.listen(listener)
            conn = yield from api_a.accept(listener)
            result["got"] = yield from api_a.recv(conn, 1024)

        def client():
            yield sim.timeout(0.001)
            sock = yield from api_b.socket()
            yield from api_b.connect(sock, ("capped", 80))
            yield from api_b.send(sock, b"through the VF")

        vm_a.spawn(server())
        vm_b.spawn(client())
        sim.run(until=5.0)
        assert result["got"] == b"through the VF"
