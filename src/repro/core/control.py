"""CoreEngine's control-plane wire protocol (§5).

"One thread listens on a pre-defined port to handle NK device
(de)allocation requests, namely 8-byte network messages of the tuples
⟨ce_op, ce_data⟩.  When a VM (or NSM) starts (or terminates), it sends a
request to CoreEngine for registering (or deregistering) a NK device.
If the request is successfully handled, CoreEngine responds in the same
message format.  Otherwise, an error code is returned."

This module implements that exact 8-byte format (2-byte op, 2-byte
flags/queue-set count, 4-byte data) and a dispatcher that drives the
CoreEngine registration API, so the control plane is exercised through
its wire representation and not only through direct method calls.
"""

from __future__ import annotations

import enum
import struct
from typing import Tuple

from repro.core.sharding import ShardedCoreEngine
from repro.errors import ConfigurationError

#: The §5 message size.
CONTROL_MESSAGE_SIZE = 8

_STRUCT = struct.Struct("<HHi")
assert _STRUCT.size == CONTROL_MESSAGE_SIZE


class CeOp(enum.IntEnum):
    """Control operations (the ce_op field)."""

    REGISTER_VM = 1
    REGISTER_NSM = 2
    DEREGISTER = 3
    ASSIGN_VM = 4
    # Responses.
    OK = 100
    ERROR = 101


class CeError(enum.IntEnum):
    """Error codes carried in ce_data of ERROR responses."""

    BAD_REQUEST = 1
    UNKNOWN_ID = 2
    NO_NSM = 3


def encode(op: CeOp, arg: int = 0, data: int = 0) -> bytes:
    """Pack one ⟨ce_op, ce_data⟩ message into its 8 bytes."""
    return _STRUCT.pack(int(op), arg, data)


def decode(raw: bytes) -> Tuple[CeOp, int, int]:
    """Unpack an 8-byte control message; raises ValueError when malformed."""
    if len(raw) != CONTROL_MESSAGE_SIZE:
        raise ValueError(
            f"control message must be {CONTROL_MESSAGE_SIZE} bytes, "
            f"got {len(raw)}")
    op, arg, data = _STRUCT.unpack(raw)
    return CeOp(op), arg, data


class ControlPlane:
    """The listener thread of §5: decodes requests, drives CoreEngine.

    ``handle(raw) -> raw`` mirrors the real daemon's request/response
    loop.  Registration responses carry the allocated numeric id in
    ce_data; errors return ``ERROR`` with a :class:`CeError` code.
    """

    def __init__(self, engine: ShardedCoreEngine):
        self.engine = engine
        self.requests_handled = 0
        self.errors_returned = 0

    def handle(self, raw: bytes) -> bytes:
        """Process one 8-byte request; returns the 8-byte response."""
        try:
            op, arg, data = decode(raw)
        except ValueError:
            return self._error(CeError.BAD_REQUEST)
        try:
            if op == CeOp.REGISTER_VM:
                numeric_id, _device = self.engine.register_vm(
                    f"vm-{data}", queue_sets=max(1, arg))
                return self._ok(numeric_id)
            if op == CeOp.REGISTER_NSM:
                numeric_id, _device = self.engine.register_nsm(
                    f"nsm-{data}", queue_sets=max(1, arg))
                return self._ok(numeric_id)
            if op == CeOp.DEREGISTER:
                self.engine.deregister(data)
                return self._ok(0)
            if op == CeOp.ASSIGN_VM:
                # arg selects the NSM id; data the VM id.
                self.engine.assign_vm(data, arg)
                return self._ok(0)
        except ConfigurationError:
            return self._error(CeError.UNKNOWN_ID)
        return self._error(CeError.BAD_REQUEST)

    def _ok(self, data: int) -> bytes:
        self.requests_handled += 1
        return encode(CeOp.OK, 0, data)

    def _error(self, code: CeError) -> bytes:
        self.errors_returned += 1
        return encode(CeOp.ERROR, 0, int(code))
