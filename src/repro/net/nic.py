"""NICs: the physical NIC of a host and the virtual NIC of a VM.

Functionally a NIC is a named attachment point with an RX handler; its
multi-queue structure matters for the cost model (per-core queues avoid
contention) and is tracked as metadata rather than simulated per-queue.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.units import gbps

RxHandler = Callable[[Packet], None]


class Nic:
    """A physical NIC: 100G by default, multi-queue, owned by a host."""

    def __init__(self, host_id: str, rate_bps: float = gbps(100),
                 queues: int = 16):
        if queues < 1:
            raise ConfigurationError(f"NIC needs >=1 queue, got {queues}")
        if rate_bps <= 0:
            raise ConfigurationError(f"NIC rate must be positive: {rate_bps}")
        self.host_id = host_id
        self.rate_bps = rate_bps
        self.queues = queues
        self._rx_handler: Optional[RxHandler] = None
        self.rx_packets = 0
        self.rx_bytes = 0

    def on_receive(self, handler: RxHandler) -> None:
        """Install the RX handler (the host's network stack entry point)."""
        self._rx_handler = handler

    def receive(self, packet: Packet) -> None:
        """Deliver a packet arriving from the wire."""
        if self._rx_handler is None:
            raise ConfigurationError(
                f"NIC of {self.host_id} has no RX handler installed"
            )
        self.rx_packets += 1
        self.rx_bytes += packet.size
        self._rx_handler(packet)


class VNic(Nic):
    """A virtual NIC presented to a VM; attaches to the host's vSwitch.

    With SR-IOV a VNic is a VF with a hardware rate cap — modelled by
    ``rate_bps`` exactly like a physical port.
    """

    def __init__(self, vm_id: str, rate_bps: float = gbps(100)):
        super().__init__(vm_id, rate_bps=rate_bps, queues=1)
        self.vm_id = vm_id
