"""The BSD socket surface applications program against.

The whole point of NetKernel is that applications keep the BSD socket API
(§1): the same application coroutine runs unmodified against

* :class:`~repro.core.guestlib.GuestLib` itself — each socket call
  becomes an NQE served by an NSM (``NetKernelHost.socket_api(vm)``
  returns the VM's GuestLib), or
* ``BaselineSocketApi`` (:mod:`repro.baseline.sockets`) — backed by a
  network stack inside the VM, today's architecture.

:class:`SocketApi` documents that surface; ``BaselineSocketApi``
implements it and GuestLib provides the same methods.  All potentially
blocking calls are generator coroutines (``yield from`` them inside an
application process).  Constants EPOLLIN/EPOLLOUT mirror the kernel's.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.guestlib import EPOLLIN, EPOLLOUT

__all__ = ["SocketApi", "EPOLLIN", "EPOLLOUT"]


class SocketApi:
    """Abstract BSD socket surface (Table 1's operations)."""

    def socket(self, vcpu: int = 0, sock_type: str = "stream"):
        raise NotImplementedError

    def bind(self, sock, port: int, vcpu: int = 0):
        raise NotImplementedError

    def sendto(self, sock, data: bytes, dest: Tuple[str, int],
               vcpu: int = 0):
        raise NotImplementedError

    def recvfrom(self, sock, max_bytes: int, vcpu: int = 0):
        raise NotImplementedError

    def listen(self, sock, backlog: int = 128, vcpu: int = 0):
        raise NotImplementedError

    def connect(self, sock, remote: Tuple[str, int], vcpu: int = 0):
        raise NotImplementedError

    def accept(self, listener, vcpu: int = 0):
        raise NotImplementedError

    def accept_nonblocking(self, listener):
        raise NotImplementedError

    def send(self, sock, data: bytes, vcpu: int = 0):
        raise NotImplementedError

    def recv(self, sock, max_bytes: int, vcpu: int = 0):
        raise NotImplementedError

    def recv_nonblocking(self, sock, max_bytes: int):
        raise NotImplementedError

    def close(self, sock, vcpu: int = 0):
        raise NotImplementedError

    def setsockopt(self, sock, option: str, value: int, vcpu: int = 0):
        raise NotImplementedError

    def getsockopt(self, sock, option: str, vcpu: int = 0):
        raise NotImplementedError

    def shutdown(self, sock, vcpu: int = 0):
        raise NotImplementedError

    def epoll_create(self):
        raise NotImplementedError

    def epoll_ctl(self, epoll, sock, mask: int) -> None:
        raise NotImplementedError

    def epoll_wait(self, epoll, max_events: int = 64,
                   timeout: Optional[float] = None, vcpu: int = 0):
        raise NotImplementedError
