"""The network fabric connecting endpoints.

Each endpoint (a VM's stack in the baseline, or an NSM's stack under
NetKernel, or a remote traffic sink) registers under a host id with an RX
handler and an uplink/downlink pair.  Routing is destination-based; an
optional shared *bottleneck* link lets fairness experiments create the
many-flows-one-pipe scenario of Fig. 9.
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


class _Endpoint:
    def __init__(self, uplink: Link, downlink: Link, handler: RxHandler):
        self.uplink = uplink
        self.downlink = downlink
        self.handler = handler
        #: Bound once: every packet to this endpoint is handed off through
        #: the same callable instead of a closure of its own.
        self.deliver = self._deliver

    def _deliver(self, packet: Packet) -> None:
        """Last hop: the downlink, then the RX handler."""
        self.downlink.transmit(packet, self.handler)


class Network:
    """Destination-routed fabric with optional shared bottleneck."""

    def __init__(self, sim: "Simulator", default_rate_bps: float = gbps(100),
                 default_delay_sec: float = usec(25)):
        self.sim = sim
        self.default_rate_bps = default_rate_bps
        self.default_delay_sec = default_delay_sec
        self._endpoints: Dict[str, _Endpoint] = {}
        self._bottleneck: Optional[Link] = None

    def add_endpoint(self, host_id: str, handler: RxHandler,
                     uplink: Optional[Link] = None,
                     downlink: Optional[Link] = None) -> None:
        """Register a host with its RX handler and access links."""
        if host_id in self._endpoints:
            raise ConfigurationError(f"endpoint {host_id} already registered")
        uplink = uplink or Link(
            self.sim, self.default_rate_bps, self.default_delay_sec,
            name=f"{host_id}.up")
        downlink = downlink or Link(
            self.sim, self.default_rate_bps, self.default_delay_sec,
            name=f"{host_id}.down")
        self._endpoints[host_id] = _Endpoint(uplink, downlink, handler)

    def set_bottleneck(self, link: Link) -> None:
        """Insert a shared link every flow traverses (Fig. 9's scenario)."""
        self._bottleneck = link

    @property
    def bottleneck(self) -> Optional[Link]:
        return self._bottleneck

    def send(self, packet: Packet) -> bool:
        """Route ``packet`` from its source to its destination endpoint.

        Returns False if it was dropped anywhere along the path.
        """
        endpoints = self._endpoints
        src = endpoints.get(packet.src[0])
        dst = endpoints.get(packet.dst[0])
        if src is None:
            raise ConfigurationError(f"unknown source host {packet.src_host}")
        if dst is None:
            raise ConfigurationError(f"unknown dest host {packet.dst_host}")
        bottleneck = self._bottleneck
        if bottleneck is not None:
            deliver = dst.deliver
            return src.uplink.transmit(
                packet, lambda pkt: bottleneck.transmit(pkt, deliver))
        return src.uplink.transmit(packet, dst.deliver)
