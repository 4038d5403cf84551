"""The guest VM: vCPUs, the GuestLib instance, and application hosting."""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError


class GuestVM:
    """A tenant VM under NetKernel: no network stack inside, only GuestLib.

    Applications run as generator processes pinned to vCPUs; they talk to
    the network exclusively through GuestLib's BSD socket calls (see
    :mod:`repro.core.sockets`).
    """

    def __init__(self, sim, name: str, vcpus: int = 1, user: str = "tenant",
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 core_hz: Optional[float] = None):
        if vcpus < 1:
            raise ConfigurationError(f"VM needs >=1 vCPU, got {vcpus}")
        self.sim = sim
        self.name = name
        self.user = user
        hz = core_hz or cost_model.core_hz
        self.cores: List[Core] = [
            Core(sim, name=f"{name}.cpu{i}", hz=hz) for i in range(vcpus)
        ]
        self.cost = cost_model
        # Installed by NetKernelHost.add_vm().
        self.vm_id: Optional[int] = None
        self.guestlib = None

    @property
    def vcpus(self) -> int:
        return len(self.cores)

    def spawn(self, app_generator) -> object:
        """Run an application coroutine inside this VM."""
        return self.sim.process(app_generator)

    def total_cycles(self) -> float:
        return sum(core.busy_cycles for core in self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GuestVM {self.name} vcpus={self.vcpus} user={self.user}>"
