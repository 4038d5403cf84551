"""BaselineHost: today's architecture — every VM carries its own stack.

Each VM's stack registers directly on the fabric under the VM's name (its
vNIC), and applications use :class:`BaselineSocketApi`.  Stack work and
application work share the same vCPUs, which is exactly the coupling
NetKernel removes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.baseline.sockets import BaselineSocketApi
from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError
from repro.net.fabric import Network
from repro.net.link import Link
from repro.stack.kernel_stack import KernelStack
from repro.stack.mtcp_stack import MtcpStack


class BaselineVM:
    """A VM with its network stack inside the guest (Fig. 1a)."""

    def __init__(self, sim, name: str, vcpus: int, user: str,
                 cost_model: CostModel):
        if vcpus < 1:
            raise ConfigurationError(f"VM needs >=1 vCPU, got {vcpus}")
        self.sim = sim
        self.name = name
        self.user = user
        self.cores: List[Core] = [
            Core(sim, name=f"{name}.cpu{i}", hz=cost_model.core_hz)
            for i in range(vcpus)
        ]
        self.cost = cost_model
        self.stack = None  # installed by BaselineHost.add_vm

    @property
    def vcpus(self) -> int:
        return len(self.cores)

    def spawn(self, app_generator) -> object:
        return self.sim.process(app_generator)

    def total_cycles(self) -> float:
        return sum(core.busy_cycles for core in self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BaselineVM {self.name} vcpus={self.vcpus}>"


class BaselineHost:
    """One physical host running the current architecture."""

    def __init__(self, sim, network: Optional[Network] = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 name: str = "host"):
        self.sim = sim
        self.name = name
        self.cost = cost_model
        self.network = network if network is not None else Network(sim)
        self.vms: Dict[str, BaselineVM] = {}

    def add_vm(self, name: str, vcpus: int = 1, stack: str = "kernel",
               user: str = "tenant", cc_factory: Optional[Callable] = None,
               nic_rate_bps: Optional[float] = None,
               stack_kwargs: Optional[dict] = None) -> BaselineVM:
        """Boot a VM whose guest kernel runs the chosen stack."""
        if name in self.vms:
            raise ConfigurationError(f"VM {name} already exists")
        vm = BaselineVM(self.sim, name, vcpus, user, self.cost)
        kwargs = dict(stack_kwargs or {})
        uplink = downlink = None
        if nic_rate_bps is not None:
            uplink = Link(self.sim, nic_rate_bps,
                          self.network.default_delay_sec, name=f"{name}.up")
            downlink = Link(self.sim, nic_rate_bps,
                            self.network.default_delay_sec, name=f"{name}.down")

        network = self.network

        class _Fabric:
            def add_endpoint(self, host_id, handler):
                network.add_endpoint(host_id, handler,
                                     uplink=uplink, downlink=downlink)

            def send(self, packet):
                return network.send(packet)

        stack_cls = {"kernel": KernelStack, "mtcp": MtcpStack}.get(stack)
        if stack_cls is None:
            raise ConfigurationError(f"unknown baseline stack {stack!r}")
        vm.stack = stack_cls(self.sim, _Fabric(), name, vm.cores, self.cost,
                             cc_factory=cc_factory, **kwargs)
        self.vms[name] = vm
        return vm

    def socket_api(self, vm: BaselineVM) -> BaselineSocketApi:
        return BaselineSocketApi(self.sim, vm.stack, vm.cores, self.cost)

    def cycles_by_role(self) -> Dict[str, float]:
        return {
            "vms": sum(vm.total_cycles() for vm in self.vms.values()),
            "nsms": 0.0,
            "coreengine": 0.0,
        }
