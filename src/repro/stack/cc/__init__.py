"""Congestion control algorithms, pluggable into the TCP engine."""

from repro.stack.cc.base import CongestionControl
from repro.stack.cc.cubic import CubicCC
from repro.stack.cc.dctcp import DctcpCC
from repro.stack.cc.vmcc import VmSharedWindow, VmCC

__all__ = [
    "CongestionControl",
    "CubicCC",
    "DctcpCC",
    "VmSharedWindow",
    "VmCC",
]
