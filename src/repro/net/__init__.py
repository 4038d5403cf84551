"""Simulated physical network: packets, rate/delay links, and a fabric
that routes between hosts."""

from repro.net.packet import Packet
from repro.net.link import Link
from repro.net.fabric import Network

__all__ = ["Packet", "Link", "Network"]
