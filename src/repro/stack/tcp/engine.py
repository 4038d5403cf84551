"""The functional TCP engine.

Implements enough of TCP to reproduce the paper's transport-level
behaviour: three-way handshake with listener backlog, MSS segmentation,
cumulative ACKs with out-of-order reassembly, flow control with zero-window
probing, RTT estimation (Jacobson) with exponential-backoff RTO, fast
retransmit on three duplicate ACKs, pluggable congestion control (CUBIC,
DCTCP, VM-level), ECN echo, and FIN/RST teardown.

Deliberate simplifications (documented in DESIGN.md): no SACK, no delayed
ACKs, no Nagle, timestamps modelled as a float echo rather than an option
encoding.  None of these change who wins in the paper's experiments.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Deque, Dict, List, Optional, Tuple
from collections import deque

from repro.errors import (
    AddressInUseError,
    ConfigurationError,
    InvalidSocketStateError,
    NotConnectedError,
)
from repro.net.packet import Packet
from repro.sim.event import Call
from repro.stack.cc.base import CongestionControl
from repro.stack.cc.cubic import CubicCC
from repro.stack.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.stack.tcp.tcb import Address, Segment, TcpState

CcFactory = Callable[[int], CongestionControl]

#: First ephemeral port handed out by an engine.
EPHEMERAL_BASE = 20000

_conn_ids = itertools.count(1)

#: States in which :meth:`TcpEngine._pump` may transmit.
_PUMP_STATES = (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                TcpState.FIN_WAIT, TcpState.LAST_ACK)


class RetransmitTimer:
    """A connection's one retransmission timer (RFC 6298 §5).

    Re-arming only moves ``deadline``, so an ACK that advances SND.UNA
    costs a float store, not a heap entry.  The heap holds at most one
    live entry per timer: an entry that comes due before the deadline
    re-pushes once for it, one that comes due disarmed does nothing, and
    only a deadline earlier than the pending entry (the RTO shrank)
    cancels it for a new one.  The due time is always the stored deadline
    float, so the timer fires at the instant its last arm asked for.

    The timer holds its connection weakly, so a closed connection is
    freed at once, not when its pending entry comes due.  Expiry runs on
    ``conn.engine``: after live migration, the target engine's.
    """

    __slots__ = ("_conn", "deadline", "_due", "_entry")

    def __init__(self, conn: "TcpConnection"):
        self._conn = weakref.ref(conn)
        #: Absolute expiry time; None while disarmed.
        self.deadline: Optional[float] = None
        self._due = 0.0
        self._entry: Optional[Call] = None

    def push(self, sim, due: float) -> None:
        """Queue the heap entry for ``due``, cancelling a pending one."""
        if self._entry is not None:
            self._entry.cancel()
        self._due = due
        self._entry = sim.call_due(due, self._expire)

    def _expire(self) -> None:
        self._entry = None
        deadline = self.deadline
        conn = self._conn()
        if deadline is None or conn is None:
            return
        engine = conn.engine
        if deadline > self._due:
            self.push(engine.sim, deadline)
            return
        self.deadline = None
        engine._on_rtx_timer(conn)


class TcpConnection:
    """One TCP endpoint (a stack-level socket)."""

    def __init__(self, engine: "TcpEngine"):
        self.engine = engine
        self.conn_id = next(_conn_ids)
        self.state = TcpState.CLOSED
        self.local_port: Optional[int] = None
        #: Fabric address this endpoint answers to.  Stays None (meaning
        #: "the owning engine's host id") until live migration pins it, so
        #: a migrated connection keeps emitting from its original address.
        self.local_host: Optional[str] = None
        self.remote: Optional[Address] = None

        # Engines still holding a live-migration forward that points at
        # this endpoint (back-references, so every forward is reclaimed
        # when the endpoint dies and collapsed when it moves again).
        self._forwarders: List["TcpEngine"] = []
        self._port_forwarders: List["TcpEngine"] = []

        self.send_buf = SendBuffer(engine.send_buf_bytes)
        self.recv_buf = ReceiveBuffer(engine.recv_buf_bytes)

        # Sequence space (absolute; SYN and FIN each occupy one number).
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.irs = 0

        self.cc: CongestionControl = engine.cc_factory(engine.mss)
        self.rwnd = 65535
        self.dup_acks = 0
        self.recovery_point: Optional[int] = None

        # RTT estimation / retransmission state.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = engine.rto_initial
        self.retries = 0
        self._rtx_timer: Optional[RetransmitTimer] = None  # made on first arm
        self._persist_armed = False

        # FIN bookkeeping.
        self.fin_pending = False
        self.fin_seq: Optional[int] = None
        self.peer_fin_received = False

        # Listener state.
        self.backlog = 0
        self.accept_queue: Deque["TcpConnection"] = deque()

        # Callbacks (installed by ServiceLib / baseline socket layer).
        self.on_readable: Optional[Callable[["TcpConnection"], None]] = None
        self.on_writable: Optional[Callable[["TcpConnection"], None]] = None
        self.on_accept_ready: Optional[Callable[["TcpConnection"], None]] = None
        self.on_connected: Optional[Callable[["TcpConnection"], None]] = None
        self.on_error: Optional[Callable[["TcpConnection", str], None]] = None
        self.on_closed: Optional[Callable[["TcpConnection"], None]] = None

        # Statistics.
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.retransmissions = 0

    # -- convenience -----------------------------------------------------------

    @property
    def local_addr(self) -> Address:
        return (self.local_host or self.engine.host_id, self.local_port or 0)

    @property
    def readable_bytes(self) -> int:
        return len(self.recv_buf)

    @property
    def eof(self) -> bool:
        """Peer closed and everything it sent has been read."""
        return self.peer_fin_received and len(self.recv_buf) == 0

    @property
    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TcpConnection #{self.conn_id} {self.state.value} "
                f"{self.local_addr}->{self.remote}>")


class TcpEngine:
    """A TCP/IP stack instance attached to one fabric endpoint."""

    def __init__(self, sim, network, host_id: str, mss: int = 1448,
                 cc_factory: Optional[CcFactory] = None,
                 send_buf_bytes: int = 4 * 1024 * 1024,
                 recv_buf_bytes: int = 4 * 1024 * 1024,
                 rto_initial: float = 0.2, rto_min: float = 0.01,
                 rto_max: float = 60.0, max_retries: int = 8,
                 time_wait_sec: float = 0.005,
                 on_cpu: Optional[Callable[[float, str], None]] = None,
                 tx_cycles_fn: Optional[Callable[[int], float]] = None,
                 rx_cycles_fn: Optional[Callable[[int], float]] = None,
                 conn_setup_cycles: float = 0.0,
                 conn_teardown_cycles: float = 0.0,
                 register_endpoint: bool = True):
        if mss < 64:
            raise ConfigurationError(f"mss too small: {mss}")
        self.sim = sim
        self.network = network
        self.host_id = host_id
        self.mss = mss
        self.cc_factory = cc_factory or (
            lambda m: CubicCC(m, clock=lambda: sim._now))
        self.send_buf_bytes = send_buf_bytes
        self.recv_buf_bytes = recv_buf_bytes
        self.rto_initial = rto_initial
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.max_retries = max_retries
        self.time_wait_sec = time_wait_sec
        self.on_cpu = on_cpu
        self._tx_cycles_fn = tx_cycles_fn
        self._rx_cycles_fn = rx_cycles_fn
        self.conn_setup_cycles = conn_setup_cycles
        self.conn_teardown_cycles = conn_teardown_cycles

        self._conns: Dict[Tuple[int, Address], TcpConnection] = {}
        self._listeners: Dict[int, TcpConnection] = {}
        self._next_port = EPHEMERAL_BASE
        self._isn = 1000  # deterministic initial sequence numbers

        # Live-migration forwarding: packets for a connection (or listener
        # port) that moved to another engine are handed to that engine, so
        # the fabric address stays valid across the move (no RST storms).
        self._forwards: Dict[Tuple[int, Address], "TcpEngine"] = {}
        self._port_forwards: Dict[int, "TcpEngine"] = {}

        # Statistics.
        self.segments_sent = 0
        self.segments_received = 0
        self.segments_forwarded = 0
        self.resets_sent = 0

        if register_endpoint:
            network.add_endpoint(host_id, self.handle_packet)

    # ------------------------------------------------------------------ API --

    def socket(self) -> TcpConnection:
        """A fresh CLOSED connection object."""
        return TcpConnection(self)

    def bind(self, conn: TcpConnection, port: int) -> None:
        """Bind to an explicit local port."""
        if port in self._listeners:
            raise AddressInUseError(f"port {port} already listening")
        if conn.local_port is not None:
            raise InvalidSocketStateError("socket already bound")
        conn.local_port = port

    def listen(self, conn: TcpConnection, backlog: int = 128) -> None:
        """Turn a bound socket into a listener."""
        if conn.local_port is None:
            raise InvalidSocketStateError("listen() before bind()")
        if conn.state != TcpState.CLOSED:
            raise InvalidSocketStateError(f"listen() in state {conn.state}")
        if conn.local_port in self._listeners:
            raise AddressInUseError(f"port {conn.local_port} already listening")
        conn.state = TcpState.LISTEN
        conn.backlog = max(1, backlog)
        self._listeners[conn.local_port] = conn

    def connect(self, conn: TcpConnection, remote: Address) -> None:
        """Begin the three-way handshake toward ``remote``."""
        if conn.state != TcpState.CLOSED:
            raise InvalidSocketStateError(f"connect() in state {conn.state}")
        if conn.local_port is None:
            conn.local_port = self._alloc_port()
        conn.remote = remote
        key = (conn.local_port, remote)
        if key in self._conns:
            raise AddressInUseError(f"4-tuple in use: {key}")
        self._conns[key] = conn

        conn.iss = self._next_isn()
        conn.snd_una = conn.iss
        conn.snd_nxt = conn.iss + 1
        conn.state = TcpState.SYN_SENT
        self._charge(self.conn_setup_cycles, "tcp_conn_setup")
        self._emit(conn, Segment(seq=conn.iss, syn=True,
                                 window=conn.recv_buf.window))
        self._arm_rtx(conn)

    def accept(self, listener: TcpConnection) -> Optional[TcpConnection]:
        """Pop one established connection, or None if the queue is empty."""
        if listener.state != TcpState.LISTEN:
            raise InvalidSocketStateError("accept() on a non-listener")
        if listener.accept_queue:
            return listener.accept_queue.popleft()
        return None

    def send(self, conn: TcpConnection, data: bytes) -> int:
        """Buffer outbound bytes; returns how many were accepted."""
        if conn.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise NotConnectedError(f"send() in state {conn.state}")
        if conn.fin_pending:
            raise InvalidSocketStateError("send() after close()")
        accepted = conn.send_buf.write(data)
        if accepted:
            self._pump(conn)
        return accepted

    def recv(self, conn: TcpConnection, max_bytes: int) -> bytes:
        """Read up to ``max_bytes`` of in-order received data."""
        window_was_zero = conn.recv_buf.window == 0
        data = conn.recv_buf.read(max_bytes)
        if data and window_was_zero and conn.recv_buf.window > 0:
            # Reopen the window so the sender's zero-window probe succeeds.
            if conn.state in (TcpState.ESTABLISHED, TcpState.FIN_WAIT,
                              TcpState.CLOSE_WAIT):
                self._send_ack(conn)
        return data

    def close(self, conn: TcpConnection) -> None:
        """Graceful close: FIN once the send buffer drains."""
        if conn.state == TcpState.LISTEN:
            del self._listeners[conn.local_port]
            # The listener is gone everywhere: engines that forwarded its
            # port here must stop, or they would forward toward a port
            # that now answers with RSTs (and leak the entry forever).
            for engine in conn._port_forwarders:
                engine._port_forwards.pop(conn.local_port, None)
            conn._port_forwarders.clear()
            conn.state = TcpState.CLOSED
            self._notify_closed(conn)
            return
        if conn.state == TcpState.CLOSED:
            return
        if conn.state == TcpState.SYN_SENT:
            self._destroy(conn)
            return
        if conn.fin_pending or conn.fin_seq is not None:
            return  # already closing
        conn.fin_pending = True
        self._pump(conn)

    def abort(self, conn: TcpConnection) -> None:
        """Hard close: RST to the peer, drop all state."""
        if conn.state in (TcpState.CLOSED, TcpState.LISTEN):
            self.close(conn)
            return
        self._emit(conn, Segment(seq=conn.snd_nxt, rst=True))
        self.resets_sent += 1
        self._destroy(conn)

    # --------------------------------------------------------------- ingress --

    def handle_packet(self, packet: Packet) -> None:
        """Entry point installed as the fabric endpoint RX handler."""
        segment = packet.segment
        if segment is None:
            return
        if not isinstance(segment, Segment):
            # Datagram traffic: hand to the UDP layer if one is attached.
            udp = getattr(self, "udp", None)
            if udp is not None:
                udp.handle_packet(packet)
            return
        self.segments_received += 1
        on_cpu = self.on_cpu
        if on_cpu is not None:  # charged inline: once per segment
            rx_cycles = self._rx_cycles_fn
            on_cpu(rx_cycles(len(segment.payload)) if rx_cycles else 0.0,
                   "tcp_rx")

        local_port = packet.dst[1]
        key = (local_port, packet.src)
        conn = self._conns.get(key)
        if conn is not None:
            self._handle_for_conn(conn, packet, segment)
            return

        target = self._forwards.get(key)
        if target is not None:
            self.segments_forwarded += 1
            target.handle_packet(packet)
            return

        listener = self._listeners.get(local_port)
        if listener is not None and segment.syn and not segment.is_ack:
            self._handle_syn(listener, packet, segment)
            return

        target = self._port_forwards.get(local_port)
        if target is not None:
            self.segments_forwarded += 1
            target.handle_packet(packet)
            return

        # No socket: refuse politely (RST) unless this is itself an RST.
        if not segment.rst:
            self._send_raw_rst(packet)

    # -- handshake --------------------------------------------------------------

    def _handle_syn(self, listener: TcpConnection, packet: Packet,
                    segment: Segment) -> None:
        pending = sum(1 for c in self._conns.values()
                      if c.state == TcpState.SYN_RCVD)
        if len(listener.accept_queue) + pending >= listener.backlog:
            return  # backlog full: drop the SYN; client will retry on RTO
        child = self.socket()
        child.local_port = listener.local_port
        child.local_host = listener.local_host
        child.remote = packet.src
        key = (child.local_port, child.remote)
        if key in self._conns:
            return  # duplicate SYN for an in-progress handshake
        self._conns[key] = child
        child.irs = segment.seq
        child.recv_buf.rcv_nxt = segment.seq + 1
        child.rwnd = segment.window
        child.iss = self._next_isn()
        child.snd_una = child.iss
        child.snd_nxt = child.iss + 1
        child.state = TcpState.SYN_RCVD
        child._listener = listener  # type: ignore[attr-defined]
        self._charge(self.conn_setup_cycles, "tcp_conn_setup")
        self._emit(child, Segment(seq=child.iss, ack=child.recv_buf.rcv_nxt,
                                  syn=True, is_ack=True,
                                  window=child.recv_buf.window,
                                  ts_echo=segment.ts))
        self._arm_rtx(child)

    def _handle_for_conn(self, conn: TcpConnection, packet: Packet,
                         segment: Segment) -> None:
        if segment.rst:
            self._on_reset(conn)
            return

        if conn.state == TcpState.SYN_SENT:
            if segment.syn and segment.is_ack and segment.ack == conn.snd_nxt:
                conn.irs = segment.seq
                conn.recv_buf.rcv_nxt = segment.seq + 1
                conn.rwnd = segment.window
                conn.snd_una = segment.ack
                conn.state = TcpState.ESTABLISHED
                conn.retries = 0
                self._sample_rtt(conn, segment)
                self._cancel_rtx(conn)
                self._send_ack(conn, ts_echo=segment.ts)
                if conn.on_connected:
                    conn.on_connected(conn)
                self._pump(conn)
            return

        if conn.state == TcpState.SYN_RCVD:
            if segment.is_ack and segment.ack == conn.snd_nxt:
                conn.snd_una = segment.ack
                conn.rwnd = segment.window
                conn.state = TcpState.ESTABLISHED
                conn.retries = 0
                self._sample_rtt(conn, segment)
                self._cancel_rtx(conn)
                listener = getattr(conn, "_listener", None)
                if listener is not None and listener.state == TcpState.LISTEN:
                    listener.accept_queue.append(conn)
                    if listener.on_accept_ready:
                        listener.on_accept_ready(listener)
            # Data may ride on the final ACK; fall through.
            if not segment.payload and not segment.fin:
                return

        self._process_ack(conn, segment)
        if segment.payload:
            self._process_data(conn, packet, segment)
        if segment.fin:
            self._process_fin(conn, segment)

    # -- ACK processing -----------------------------------------------------------

    def _process_ack(self, conn: TcpConnection, segment: Segment) -> None:
        if not segment.is_ack:
            return
        conn.rwnd = segment.window
        ack = segment.ack

        if ack > conn.snd_nxt:
            return  # acks data we never sent; ignore

        if ack > conn.snd_una:
            delta = ack - conn.snd_una
            data_acked = self._account_ack(conn, ack, delta)
            conn.snd_una = ack
            conn.dup_acks = 0
            conn.retries = 0
            conn.bytes_acked += data_acked
            self._sample_rtt(conn, segment)
            conn.cc.on_ack(data_acked if data_acked else delta,
                           rtt=conn.srtt, ecn_echo=segment.ecn_echo)

            if conn.recovery_point is not None:
                if ack >= conn.recovery_point:
                    conn.recovery_point = None
                else:
                    self._retransmit_one(conn)  # NewReno partial ack

            if conn.snd_nxt == conn.snd_una:  # nothing in flight
                self._cancel_rtx(conn)
                self._check_fin_acked(conn)
            else:
                self._arm_rtx(conn)

            if conn.on_writable and conn.send_buf.free_space > 0:
                conn.on_writable(conn)
        elif (ack == conn.snd_una and conn.snd_nxt > ack
              and not segment.payload and not segment.syn and not segment.fin):
            conn.dup_acks += 1
            if conn.dup_acks == 3 and conn.recovery_point is None:
                conn.recovery_point = conn.snd_nxt
                conn.cc.on_fast_retransmit()
                self._retransmit_one(conn)

        if len(conn.send_buf) or conn.fin_pending:
            # With nothing buffered and no FIN pending, _pump would send
            # nothing and arm nothing (the persist timer needs buffered
            # bytes): a pure receiver's data segments skip the call.
            self._pump(conn)

    def _account_ack(self, conn: TcpConnection, ack: int, delta: int) -> int:
        """Split an ACK advance into SYN/FIN/data parts; trims send_buf."""
        data_acked = delta
        if conn.snd_una == conn.iss:
            data_acked -= 1  # our SYN
        if conn.fin_seq is not None and ack > conn.fin_seq:
            data_acked -= 1  # our FIN
        if data_acked > 0:
            conn.send_buf.advance(data_acked)
        return max(0, data_acked)

    def _check_fin_acked(self, conn: TcpConnection) -> None:
        fin_acked = (conn.fin_seq is not None
                     and conn.snd_una > conn.fin_seq)
        if not fin_acked:
            return
        if conn.state == TcpState.FIN_WAIT and conn.peer_fin_received:
            self._enter_time_wait(conn)
        elif conn.state == TcpState.LAST_ACK:
            self._destroy(conn)

    # -- data & FIN -----------------------------------------------------------------

    def _process_data(self, conn: TcpConnection, packet: Packet,
                      segment: Segment) -> None:
        if conn.state not in (TcpState.ESTABLISHED, TcpState.FIN_WAIT):
            # Peer keeps sending after our close: still ACK to be correct.
            self._send_ack(conn, ts_echo=None)
            return
        ready = conn.recv_buf.deliver(segment.seq, segment.payload)
        conn.bytes_received += ready
        ecn_echo = packet.ecn_marked
        self._send_ack(conn, ts_echo=segment.ts, ecn_echo=ecn_echo)
        if ready and conn.on_readable:
            conn.on_readable(conn)

    def _process_fin(self, conn: TcpConnection, segment: Segment) -> None:
        fin_seq = segment.seq + len(segment.payload)
        if fin_seq != conn.recv_buf.rcv_nxt or conn.peer_fin_received:
            # Out-of-order FIN: ack what we have; peer retransmits.
            self._send_ack(conn)
            return
        conn.recv_buf.rcv_nxt += 1
        conn.peer_fin_received = True
        self._send_ack(conn, ts_echo=segment.ts)

        if conn.state == TcpState.ESTABLISHED:
            conn.state = TcpState.CLOSE_WAIT
        elif conn.state == TcpState.FIN_WAIT:
            fin_acked = (conn.fin_seq is not None
                         and conn.snd_una > conn.fin_seq)
            if fin_acked:
                self._enter_time_wait(conn)
        if conn.on_readable:
            conn.on_readable(conn)  # EOF is a readable event

    # -- egress ------------------------------------------------------------------------

    def _data_inflight(self, conn: TcpConnection) -> int:
        """Unacked *data* bytes (in-flight sequence space minus the FIN).

        The send buffer's front is the first unacked data byte, so this is
        also the buffer offset of the first unsent byte.
        """
        return conn.inflight - self._fin_adjust(conn)

    def _pump(self, conn: TcpConnection) -> None:
        """Transmit whatever the congestion/flow windows currently allow."""
        if conn.state not in _PUMP_STATES:
            return
        sent_any = False
        send_buf = conn.send_buf
        buffered = len(send_buf)
        snd_nxt = conn.snd_nxt
        inflight = snd_nxt - conn.snd_una
        if conn.fin_seq is None:  # no data may follow the FIN
            # With no FIN sent, everything in flight is data, so inflight
            # is also the send-buffer offset of the first unsent byte.
            # Emitting only schedules packets: the windows and the
            # receive side stay as read here for the whole burst.
            mss = self.mss
            room = min(conn.cc.window_bytes, conn.rwnd) - inflight
            chunk = min(mss, buffered - inflight, room)
            if chunk > 0:
                recv_buf = conn.recv_buf
                ack = recv_buf.rcv_nxt
                window = recv_buf.window
                emit = self._emit
                while chunk > 0:
                    emit(conn, Segment(
                        seq=snd_nxt, ack=ack, is_ack=True, window=window,
                        payload=send_buf.peek(inflight, chunk)))
                    snd_nxt += chunk
                    inflight += chunk
                    room -= chunk
                    conn.snd_nxt = snd_nxt
                    conn.bytes_sent += chunk
                    chunk = min(mss, buffered - inflight, room)
                sent_any = True

        # FIN goes out once every buffered byte has been transmitted.
        if (conn.fin_pending and conn.fin_seq is None
                and inflight >= buffered):
            conn.fin_seq = conn.snd_nxt
            self._emit(conn, Segment(
                seq=conn.snd_nxt, ack=conn.recv_buf.rcv_nxt, is_ack=True,
                fin=True, window=conn.recv_buf.window))
            conn.snd_nxt += 1
            conn.fin_pending = False
            if conn.state in (TcpState.ESTABLISHED,):
                conn.state = TcpState.FIN_WAIT
            elif conn.state == TcpState.CLOSE_WAIT:
                conn.state = TcpState.LAST_ACK
            sent_any = True

        if sent_any:
            self._arm_rtx(conn)
        elif (conn.rwnd == 0 and conn.inflight == 0
              and len(conn.send_buf) > 0 and not conn._persist_armed):
            self._arm_persist(conn)

    def _fin_adjust(self, conn: TcpConnection) -> int:
        """snd_nxt includes the FIN's sequence slot once sent."""
        return 1 if (conn.fin_seq is not None
                     and conn.snd_nxt > conn.fin_seq) else 0

    # -- retransmission ----------------------------------------------------------------

    def _retransmit_one(self, conn: TcpConnection) -> None:
        """Retransmit the segment starting at SND.UNA."""
        conn.retransmissions += 1
        if conn.snd_una == conn.iss:
            flags = Segment(seq=conn.iss, syn=True,
                            window=conn.recv_buf.window)
            if conn.state == TcpState.SYN_RCVD:
                flags.is_ack = True
                flags.ack = conn.recv_buf.rcv_nxt
            self._emit(conn, flags)
            return
        if conn.fin_seq is not None and conn.snd_una == conn.fin_seq:
            self._emit(conn, Segment(
                seq=conn.fin_seq, ack=conn.recv_buf.rcv_nxt, is_ack=True,
                fin=True, window=conn.recv_buf.window))
            return
        # The buffer's front is SND.UNA's data byte: retransmit from offset 0.
        length = min(self.mss, self._data_inflight(conn), len(conn.send_buf))
        if length <= 0:
            return
        payload = conn.send_buf.peek(0, length)
        self._emit(conn, Segment(
            seq=conn.snd_una, ack=conn.recv_buf.rcv_nxt, is_ack=True,
            window=conn.recv_buf.window, payload=payload))

    def _arm_rtx(self, conn: TcpConnection) -> None:
        """(Re)start ``conn``'s retransmission timer, one RTO from now,
        while anything is in flight."""
        if conn.snd_nxt == conn.snd_una:
            return
        timer = conn._rtx_timer
        if timer is None:
            timer = conn._rtx_timer = RetransmitTimer(conn)
        sim = self.sim
        timer.deadline = deadline = sim._now + conn.rto
        if timer._entry is None or deadline < timer._due:
            timer.push(sim, deadline)

    def _cancel_rtx(self, conn: TcpConnection) -> None:
        timer = conn._rtx_timer
        if timer is not None:
            timer.deadline = None

    def _on_rtx_timer(self, conn: TcpConnection) -> None:
        if conn.inflight == 0:
            return
        conn.retries += 1
        if conn.retries > self.max_retries:
            self._on_timeout_giveup(conn)
            return
        conn.cc.on_timeout()
        conn.dup_acks = 0
        conn.recovery_point = None
        conn.rto = min(self.rto_max, conn.rto * 2)
        self._retransmit_one(conn)
        self._arm_rtx(conn)

    def _on_timeout_giveup(self, conn: TcpConnection) -> None:
        if conn.on_error:
            conn.on_error(conn, "ETIMEDOUT")
        self._destroy(conn)

    def _arm_persist(self, conn: TcpConnection) -> None:
        conn._persist_armed = True

        def probe() -> None:
            if conn.engine is not self:
                return  # conn migrated away; the new engine owns the timer
            conn._persist_armed = False
            if (conn.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)
                    and conn.rwnd == 0 and len(conn.send_buf) > 0):
                # One-byte window probe.
                offset = self._data_inflight(conn)
                if offset < len(conn.send_buf):
                    payload = conn.send_buf.peek(offset, 1)
                    self._emit(conn, Segment(
                        seq=conn.snd_nxt, ack=conn.recv_buf.rcv_nxt,
                        is_ack=True, window=conn.recv_buf.window,
                        payload=payload))
                    conn.snd_nxt += 1
                    conn.bytes_sent += 1
                    self._arm_rtx(conn)
                else:
                    self._arm_persist(conn)

        self.sim.call_later(max(conn.rto, 0.05), probe)

    # -- RTT -----------------------------------------------------------------------------

    def _sample_rtt(self, conn: TcpConnection, segment: Segment) -> None:
        if segment.ts_echo is None:
            return
        sample = self.sim._now - segment.ts_echo
        if sample < 0:
            return
        if conn.srtt is None:
            conn.srtt = sample
            conn.rttvar = sample / 2
        else:
            conn.rttvar = 0.75 * conn.rttvar + 0.25 * abs(conn.srtt - sample)
            conn.srtt = 0.875 * conn.srtt + 0.125 * sample
        conn.rto = min(self.rto_max,
                       max(self.rto_min, conn.srtt + 4 * conn.rttvar))

    # -- teardown ----------------------------------------------------------------------

    def _enter_time_wait(self, conn: TcpConnection) -> None:
        conn.state = TcpState.TIME_WAIT
        self.sim.call_later(self.time_wait_sec, lambda: self._destroy(conn))

    def _on_reset(self, conn: TcpConnection) -> None:
        if conn.on_error:
            errno = ("ECONNREFUSED" if conn.state == TcpState.SYN_SENT
                     else "ECONNRESET")
            conn.on_error(conn, errno)
        self._destroy(conn)

    def _destroy(self, conn: TcpConnection) -> None:
        if conn.engine is not self:
            # A timer armed before migration fired on the old engine
            # (e.g. TIME_WAIT's 2MSL destroy): tear down where it lives.
            conn.engine._destroy(conn)
            return
        if conn.state == TcpState.CLOSED:
            return
        conn.state = TcpState.CLOSED
        conn.cc.on_connection_close()
        self._charge(self.conn_teardown_cycles, "tcp_conn_teardown")
        self._cancel_rtx(conn)
        if conn.local_port is not None and conn.remote is not None:
            key = (conn.local_port, conn.remote)
            self._conns.pop(key, None)
            # Reclaim every forward left behind by migrations: the
            # 4-tuple is dead, and a stale entry would hijack a future
            # connection that reuses it (and leak one dict slot per
            # migrate/close cycle forever).
            for engine in conn._forwarders:
                engine._forwards.pop(key, None)
            conn._forwarders.clear()
        self._notify_closed(conn)
        # The callbacks close over the socket layer's context, which holds
        # this connection: without this, only a cyclic GC pass would free
        # a closed connection and its buffers.
        conn.on_readable = conn.on_writable = conn.on_accept_ready = None
        conn.on_connected = conn.on_error = conn.on_closed = None

    def _notify_closed(self, conn: TcpConnection) -> None:
        if conn.on_closed:
            conn.on_closed(conn)

    # -- helpers -----------------------------------------------------------------------

    def _send_ack(self, conn: TcpConnection, ts_echo: Optional[float] = None,
                  ecn_echo: bool = False) -> None:
        self._emit(conn, Segment(
            seq=conn.snd_nxt, ack=conn.recv_buf.rcv_nxt, is_ack=True,
            window=conn.recv_buf.window, ecn_echo=ecn_echo,
            ts_echo=ts_echo))

    def _emit(self, conn: TcpConnection, segment: Segment) -> None:
        remote = conn.remote
        if remote is None:
            raise NotConnectedError("emit without remote")
        segment.ts = self.sim._now
        cc = conn.cc
        wants_ecn = getattr(cc, "wants_ecn", None)
        if wants_ecn is None:
            wants_ecn = cc.name == "dctcp"
        payload_bytes = len(segment.payload)
        packet = Packet((conn.local_host or self.host_id,
                         conn.local_port or 0),
                        remote, payload_bytes, segment, wants_ecn)
        self.segments_sent += 1
        on_cpu = self.on_cpu
        if on_cpu is not None:  # charged inline: once per segment
            tx_cycles = self._tx_cycles_fn
            on_cpu(tx_cycles(payload_bytes) if tx_cycles else 0.0, "tcp_tx")
        self.network.send(packet)

    def _send_raw_rst(self, packet: Packet) -> None:
        segment: Segment = packet.segment
        rst = Segment(seq=segment.ack, ack=segment.seq + segment.seq_space,
                      rst=True, is_ack=True)
        self.resets_sent += 1
        self.network.send(Packet(src=packet.dst, dst=packet.src,
                                 payload_bytes=0, segment=rst))

    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def _next_isn(self) -> int:
        self._isn += 64000
        return self._isn

    def _charge(self, cycles: float, component: str) -> None:
        if self.on_cpu is not None:
            self.on_cpu(cycles, component)

    # -- live migration -----------------------------------------------------------------

    def migrate_connection(self, conn: TcpConnection,
                           target: "TcpEngine") -> None:
        """Move one endpoint (and, for a listener, its whole port) to
        ``target``, leaving a forward behind so in-flight packets and
        future SYNs still reach it.

        The connection object itself travels — sequence space, congestion
        window, RTT estimate, buffered bytes all move untouched.  Timers
        armed on this engine are cancelled and re-armed on the target.
        """
        if target is self:
            raise ConfigurationError("cannot migrate a connection onto "
                                     "its own engine")
        if conn.local_host is None:
            # Pin the fabric address before the move so peers keep a
            # stable destination regardless of which engine owns us.
            conn.local_host = self.host_id

        if conn.state == TcpState.LISTEN:
            port = conn.local_port
            if self._listeners.get(port) is not conn:
                raise ConfigurationError(
                    f"listener on port {port} is not owned by this engine")
            if port in target._listeners:
                raise AddressInUseError(
                    f"target engine already listens on port {port}")
            del self._listeners[port]
            target._listeners[port] = conn
            conn.engine = target
            # Collapse the forwarding chain: every engine that ever
            # hosted this listener forwards straight to the new owner
            # (one hop max); the new owner's own stale entry — the
            # A→B→A round trip — is reclaimed, not left to shadow it.
            self._port_forwards[port] = target
            if self not in conn._port_forwarders:
                conn._port_forwarders.append(self)
            for engine in conn._port_forwarders:
                engine._port_forwards[port] = target
            if target in conn._port_forwarders:
                conn._port_forwarders.remove(target)
                target._port_forwards.pop(port, None)
            # Children (established, handshaking, accept-queued) share the
            # listener's port; move every one of them with it.
            for key, child in sorted(self._conns.items()):
                if key[0] == port:
                    self._move_conn(child, target)
            return

        self._move_conn(conn, target)

    def _move_conn(self, conn: TcpConnection, target: "TcpEngine") -> None:
        key = (conn.local_port, conn.remote)
        if target._conns.get(key) is conn:
            return  # already moved (listener bulk-move got here first)
        if conn.state == TcpState.CLOSED:
            # Destroyed while quiesced (peer RST / timeout): nothing lives
            # in the connection maps, just hand over object ownership.
            conn.engine = target
            return
        if self._conns.get(key) is not conn:
            raise ConfigurationError(f"connection {key} is not owned by "
                                     "this engine")
        if key in target._conns:
            raise AddressInUseError(f"4-tuple in use on target: {key}")
        if conn.local_host is None:
            conn.local_host = self.host_id
        persist_was_armed = conn._persist_armed
        conn._persist_armed = False
        self._cancel_rtx(conn)
        del self._conns[key]
        conn.engine = target
        target._conns[key] = conn
        # Collapse the forwarding chain (see the listener branch above):
        # all previous hosts point at the new owner, and the new owner's
        # own stale entry from an earlier hop is reclaimed.
        self._forwards[key] = target
        if self not in conn._forwarders:
            conn._forwarders.append(self)
        for engine in conn._forwarders:
            engine._forwards[key] = target
        if target in conn._forwarders:
            conn._forwarders.remove(target)
            target._forwards.pop(key, None)
        # Keep the target's ephemeral allocator clear of imported ports.
        if (conn.local_port is not None
                and conn.local_port >= target._next_port):
            target._next_port = conn.local_port + 1
        if conn.inflight > 0 and conn.state not in (TcpState.CLOSED,
                                                    TcpState.TIME_WAIT):
            target._arm_rtx(conn)
        elif persist_was_armed:
            target._arm_persist(conn)

    # -- introspection ------------------------------------------------------------------

    @property
    def active_connections(self) -> int:
        return len(self._conns)
