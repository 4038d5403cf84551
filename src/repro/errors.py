"""Exception hierarchy for the NetKernel reproduction.

Socket-level failures mirror POSIX errno semantics so that application
models written against the BSD socket facade can handle errors the way a
real application would.
"""

from __future__ import annotations


class NetKernelError(Exception):
    """Base class for every error raised by this package."""


class SimulationError(NetKernelError):
    """The discrete-event engine was used incorrectly."""


class ResourceError(NetKernelError):
    """A simulated resource (core, ring, hugepage region) was misused."""


class RingFullError(ResourceError):
    """An SPSC ring has no free slot for the produced element."""


class RingEmptyError(ResourceError):
    """An SPSC ring has no element to consume."""


class HugepageExhaustedError(ResourceError):
    """The hugepage region cannot satisfy an allocation."""


class ConfigurationError(NetKernelError):
    """A host, VM, or NSM was assembled with inconsistent parameters."""


class ControlPlaneError(NetKernelError):
    """Base class for control-plane (repro.ctrl) failures."""


class JobValidationError(ControlPlaneError):
    """A JobSpec names an unknown kind, experiment, or parameter."""

    exit_name = "usage"


class UnknownJobError(ControlPlaneError):
    """A job id does not exist in the RunStore."""

    exit_name = "usage"


class SocketError(NetKernelError):
    """Base class for BSD-socket-level failures; carries an errno name."""

    errno_name = "EIO"

    def __init__(self, message: str = ""):
        super().__init__(message or self.errno_name)


class BadFileDescriptorError(SocketError):
    """EBADF: the fd does not name an open socket."""

    errno_name = "EBADF"


class AddressInUseError(SocketError):
    """EADDRINUSE: bind() to an address already bound."""

    errno_name = "EADDRINUSE"


class ConnectionRefusedError_(SocketError):
    """ECONNREFUSED: no listener at the destination."""

    errno_name = "ECONNREFUSED"


class ConnectionResetError_(SocketError):
    """ECONNRESET: the peer aborted the connection."""

    errno_name = "ECONNRESET"


class NotConnectedError(SocketError):
    """ENOTCONN: operation requires an established connection."""

    errno_name = "ENOTCONN"


class AlreadyConnectedError(SocketError):
    """EISCONN: connect() on an already-connected socket."""

    errno_name = "EISCONN"


class InvalidSocketStateError(SocketError):
    """EINVAL: operation invalid for the socket's current state."""

    errno_name = "EINVAL"


class OperationWouldBlockError(SocketError):
    """EWOULDBLOCK: non-blocking operation cannot complete now."""

    errno_name = "EWOULDBLOCK"


class TryAgainError(SocketError):
    """EAGAIN: the host shed this operation under overload.

    Distinct from :class:`TimedOutError` — an EAGAIN is an *admission*
    decision taken before (or at) the switch, so the guest knows its op
    never reached the NSM and may safely retry after backing off.  A
    deadline expiry stays ETIMEDOUT because the op's fate is unknown.
    """

    errno_name = "EAGAIN"


class TimedOutError(SocketError):
    """ETIMEDOUT: the operation (connect, or a deadlined NQE op whose
    NSM never answered) timed out."""

    errno_name = "ETIMEDOUT"


#: Historical alias kept for callers written against the old name.
TimeoutError_ = TimedOutError


class MessageTooLargeError(SocketError):
    """EMSGSIZE: datagram larger than the allowed maximum."""

    errno_name = "EMSGSIZE"


#: The single errno-name → exception-class map.  Trailing-underscore
#: classes (ConnectionRefusedError_, ConnectionResetError_) exist only to
#: dodge the Python builtins of the same name; this table is the one
#: place that knows about the aliasing, so call sites raise via
#: :func:`socket_error_for` instead of hand-assembling SocketError
#: instances with a patched ``errno_name``.
ERRNO_EXCEPTIONS = {
    cls.errno_name: cls
    for cls in (
        BadFileDescriptorError,
        AddressInUseError,
        ConnectionRefusedError_,
        ConnectionResetError_,
        NotConnectedError,
        AlreadyConnectedError,
        InvalidSocketStateError,
        OperationWouldBlockError,
        TryAgainError,
        TimedOutError,
        MessageTooLargeError,
    )
}


#: The single CLI/service exit-code table.  Every ``repro`` subcommand
#: and the control-plane job runner draw their process exit codes from
#: here (satellite of ISSUE 7): ``ok`` is success, ``usage`` is a bad
#: invocation (unknown experiment/parameter/job), and the rest name the
#: specific check that failed so CI logs are self-describing.
EXIT_CODES = {
    "ok": 0,
    "failure": 1,       # generic runtime failure
    "usage": 2,         # unknown id / unknown parameter / bad spec
    "divergence": 3,    # --verify fingerprint mismatch between runs
    "leak": 4,          # resource leak (hugepages, NQE pool, forwards)
    "disruption": 5,    # guest-visible resets/timeouts/mismatches
    "invariant": 6,     # assignment violation / graceless degradation
    "job-failed": 8,    # control-plane job ended in state "failed"
}


def exit_code(name: str) -> int:
    """The numeric exit code for a named outcome (1 for unknowns)."""
    return EXIT_CODES.get(name, EXIT_CODES["failure"])


def socket_error_for(errno_name: str, message: str = "") -> SocketError:
    """The typed SocketError for an errno name (generic for unknowns)."""
    cls = ERRNO_EXCEPTIONS.get(errno_name)
    if cls is not None:
        return cls(message)
    error = SocketError(message or errno_name)
    error.errno_name = errno_name
    return error


__all__ = [
    "NetKernelError",
    "SimulationError",
    "ResourceError",
    "RingFullError",
    "RingEmptyError",
    "HugepageExhaustedError",
    "ConfigurationError",
    "ControlPlaneError",
    "JobValidationError",
    "UnknownJobError",
    "EXIT_CODES",
    "exit_code",
    "SocketError",
    "BadFileDescriptorError",
    "AddressInUseError",
    "ConnectionRefusedError_",
    "ConnectionResetError_",
    "NotConnectedError",
    "AlreadyConnectedError",
    "InvalidSocketStateError",
    "OperationWouldBlockError",
    "TryAgainError",
    "TimedOutError",
    "TimeoutError_",
    "MessageTooLargeError",
    "ERRNO_EXCEPTIONS",
    "socket_error_for",
]
