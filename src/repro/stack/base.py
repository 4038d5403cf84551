"""The network-stack interface NSMs and the baseline host program against.

A :class:`NetworkStack` owns a TCP engine (or another transport), a set of
cores it charges work to, and exposes the socket operations ServiceLib
translates NQEs into.  :class:`StackSocket` documents the duck type all
stack-level sockets satisfy (``TcpConnection`` does natively; the
shared-memory stack provides its own channel type).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError
from repro.stack.tcp.engine import CcFactory, TcpConnection, TcpEngine
from repro.stack.tcp.tcb import Address, tcb_manifest
from repro.stack.udp import UdpLayer, UdpSocket


class StackSocket:
    """Documentation type: the attributes stack sockets expose.

    ``TcpConnection`` satisfies this protocol; so does ``ShmChannel``.
    Callbacks: on_readable, on_writable, on_accept_ready, on_connected,
    on_error, on_closed.  Properties: readable_bytes, eof.
    """


class NetworkStack:
    """Base class wiring a TCP engine to cores and a cost model."""

    name = "generic"

    def __init__(self, sim, network, host_id: str,
                 cores: Sequence[Core],
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 cc_factory: Optional[CcFactory] = None,
                 mss: int = 1448, **engine_kwargs):
        if not cores:
            raise ConfigurationError(f"stack {self.name} needs >=1 core")
        self.sim = sim
        self.host_id = host_id
        self.cores: List[Core] = list(cores)
        self.cost = cost_model
        self._rr = 0
        #: "{name}.{component}" ledger labels, formatted once each.
        self._labels: Dict[str, str] = {}
        self.engine = TcpEngine(
            sim, network, host_id, mss=mss, cc_factory=cc_factory,
            on_cpu=self._charge,
            tx_cycles_fn=self._segment_tx_cycles,
            rx_cycles_fn=self._segment_rx_cycles,
            conn_setup_cycles=self._conn_setup_cycles(),
            conn_teardown_cycles=self._conn_teardown_cycles(),
            **engine_kwargs)
        self.udp = UdpLayer(self.engine)

    # -- CPU charging ---------------------------------------------------------

    def _charge(self, cycles: float, component: str) -> None:
        """Occupy core time with stack work, round-robin over cores.

        Using :meth:`Core.execute` (not just the ledger) means stack work
        delays whatever shares the core — ServiceLib's pollers under
        NetKernel, the application's syscalls in the baseline — so
        CPU-limited capacity and queueing-driven latency tails emerge in
        the functional simulation.
        """
        cores = self.cores
        core = cores[self._rr % len(cores)]
        self._rr += 1
        label = self._labels.get(component)
        if label is None:
            label = self._labels[component] = f"{self.name}.{component}"
        core.execute_nowait(cycles, label)

    def _segment_tx_cycles(self, payload_bytes: int) -> float:
        return 0.0

    def _segment_rx_cycles(self, payload_bytes: int) -> float:
        return 0.0

    def _conn_setup_cycles(self) -> float:
        return 0.0

    def _conn_teardown_cycles(self) -> float:
        return 0.0

    # -- socket API (ServiceLib's target) --------------------------------------

    def socket(self) -> TcpConnection:
        return self.engine.socket()

    def bind(self, sock: TcpConnection, port: int) -> None:
        self.engine.bind(sock, port)

    def listen(self, sock: TcpConnection, backlog: int = 128) -> None:
        self.engine.listen(sock, backlog)

    def connect(self, sock: TcpConnection, remote: Address) -> None:
        self.engine.connect(sock, remote)

    def accept(self, listener: TcpConnection) -> Optional[TcpConnection]:
        return self.engine.accept(listener)

    def send(self, sock: TcpConnection, data: bytes) -> int:
        return self.engine.send(sock, data)

    def recv(self, sock: TcpConnection, max_bytes: int) -> bytes:
        return self.engine.recv(sock, max_bytes)

    def close(self, sock: TcpConnection) -> None:
        self.engine.close(sock)

    def abort(self, sock: TcpConnection) -> None:
        self.engine.abort(sock)

    # -- live migration ----------------------------------------------------------

    def supports_migration(self) -> bool:
        """Engine-backed stacks can export/import live TCBs."""
        return isinstance(getattr(self, "engine", None), TcpEngine)

    def migrate_socket(self, sock: TcpConnection, target_stack) -> dict:
        """Move one live socket to ``target_stack``'s engine.

        Returns the socket's TCB manifest (the serialized view of what
        travelled) for observability and verification.
        """
        manifest = tcb_manifest(sock)
        self.engine.migrate_connection(sock, target_stack.engine)
        return manifest

    # -- UDP (SOCK_DGRAM, Table 1) -----------------------------------------------

    def udp_socket(self) -> UdpSocket:
        return self.udp.socket()

    def udp_bind(self, sock: UdpSocket, port: int) -> None:
        self.udp.bind(sock, port)

    def udp_sendto(self, sock: UdpSocket, data: bytes, dest: Address) -> int:
        return self.udp.sendto(sock, data, dest)

    def udp_recvfrom(self, sock: UdpSocket, max_bytes: int):
        return self.udp.recvfrom(sock, max_bytes)

    def udp_close(self, sock: UdpSocket) -> None:
        self.udp.close(sock)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} host={self.host_id} cores={len(self.cores)}>"
