"""The per-host vSwitch.

Routes packets between local attachments (VMs/NSMs on the same host) and
the external fabric.  Local delivery still pays a serialization + hop cost
through an internal link so colocated-VM traffic has realistic timing —
this is the path the shared-memory NSM (use case 4) short-circuits.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.units import gbps, usec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

RxHandler = Callable[[Packet], None]


class VSwitch:
    """Software (or SR-IOV embedded) switch on one physical host."""

    def __init__(self, sim: "Simulator", host_id: str,
                 internal_rate_bps: float = gbps(100),
                 uplink: Optional[Link] = None):
        self.sim = sim
        self.host_id = host_id
        self._ports: Dict[str, RxHandler] = {}
        self._internal = Link(sim, internal_rate_bps, delay_sec=usec(5),
                              queue_bytes=4 * 1024 * 1024,
                              name=f"{host_id}.vswitch")
        self._uplink_handler: Optional[Callable[[Packet], None]] = None
        self.local_packets = 0
        self.uplink_packets = 0

    def attach(self, port_id: str, handler: RxHandler) -> None:
        """Attach a local endpoint (a VM or NSM vNIC RX handler)."""
        if port_id in self._ports:
            raise ConfigurationError(
                f"port {port_id} already attached to vswitch {self.host_id}"
            )
        self._ports[port_id] = handler

    def set_uplink(self, handler: Callable[[Packet], None]) -> None:
        """Install the path toward the external fabric."""
        self._uplink_handler = handler

    def forward(self, packet: Packet) -> None:
        """Route one packet: to a local port if attached, else the uplink."""
        handler = self._ports.get(packet.dst_host)
        if handler is not None:
            self.local_packets += 1
            self._internal.transmit(packet, handler)
            return
        if self._uplink_handler is None:
            raise ConfigurationError(
                f"vswitch {self.host_id}: no route to {packet.dst_host} "
                "(not local, no uplink)"
            )
        self.uplink_packets += 1
        self._uplink_handler(packet)
