"""ServiceLib: the NSM-side peer of GuestLib (§4.5, §5).

One poller per queue set (per NSM vCPU) consumes job/send NQEs, invokes
the NSM's network stack, and produces completion/receive NQEs.  Payloads
travel through the hugepage region shared with the VM: sends are read out
of hugepages into the stack, received data is copied into hugepages and
announced with DATA_ARRIVED events.

Accept and send are pipelined as in §4.6: the NSM accepts connections the
moment the stack surfaces them (before the guest application calls
``accept()``), and send results flow back asynchronously as send-buffer
credit.

Receive-side flow control mirrors the paper's per-connection "receive
buffer usage": ServiceLib stops draining the stack (letting TCP flow
control push back on the sender) once a connection has
``recv_window_bytes`` in flight toward the guest, and resumes when
RECV_CREDIT NQEs report consumption.

Failure handling (§8): a ServiceLib can be crashed (fault injection or a
real NSM death in the model) via :meth:`ServiceLib.crash` — pollers stop,
stack callbacks turn into no-ops and every emission path drops its NQE
(freeing hugepage payloads), so a dead NSM neither answers heartbeats nor
leaks resources.  :meth:`ServiceLib.stall` models a slow/overloaded NSM:
pollers sleep until the stall expires, which delays heartbeat ACKs and can
trip CoreEngine's failure detector exactly like a crash would.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.nk_device import NKDevice
from repro.core.nqe import NQE_POOL, Nqe, NqeOp, RESULT_ERRNO
from repro.core.overload import LEVEL_PRESSURED, governor_for_device
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError, SocketError
from repro.stack.tcp.tcb import tcb_manifest

VmTuple = Tuple[int, int, int]

#: Largest chunk copied into one hugepage buffer / one DATA_ARRIVED NQE.
RX_CHUNK = 64 * 1024


class _SocketContext:
    """ServiceLib's per-connection state."""

    _ids = itertools.count(1)

    def __init__(self, stack_sock, qset: int, kind: str = "stream",
                 lib: Optional["ServiceLib"] = None):
        self.nsm_sock_id = next(self._ids)
        self.stack_sock = stack_sock
        self.qset = qset
        self.kind = kind
        #: The ServiceLib that currently owns this context.  Live
        #: migration re-homes contexts; stale scheduled closures on the
        #: old NSM check this before touching the socket.
        self.lib = lib
        self.vm_tuple: Optional[VmTuple] = None
        self.is_listener = False
        self.listener_ctx: Optional["_SocketContext"] = None
        #: Outbound bytes taken from hugepages but not yet in the stack.
        self.pending_tx: Deque[bytes] = deque()
        self.pending_tx_bytes = 0
        #: Bytes announced to the guest and not yet credited back.
        self.rx_window_used = 0
        self.closing = False
        self.peer_closed_sent = False
        self.connect_token: Optional[Nqe] = None
        #: setsockopt values recorded for getsockopt round-trips.
        self.options: Dict[str, int] = {}


class ServiceLib:
    """Translates NQEs to stack calls inside one NSM."""

    def __init__(self, sim, nsm_id: int, device: NKDevice, stack, cores,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 recv_window_bytes: int = 256 * 1024):
        self.sim = sim
        self.nsm_id = nsm_id
        self.device = device
        self.stack = stack
        self.cores = list(cores)
        self.cost = cost_model
        self.recv_window_bytes = recv_window_bytes
        #: Per-VM shared hugepage regions ("a unique set of hugepages are
        #: shared between each VM-NSM tuple", §4): vm_id -> region.
        self._regions: Dict[int, object] = {}

        self._by_vm_tuple: Dict[VmTuple, _SocketContext] = {}
        self._by_nsm_id: Dict[int, _SocketContext] = {}
        #: NQE op -> handler for every op but SEND and SENDTO (the two
        #: that wait, dispatched by the poller); an op in neither
        #: completes with EINVAL.
        self._handlers = {
            NqeOp.SOCKET: self._op_socket,
            NqeOp.BIND: self._op_bind,
            NqeOp.LISTEN: self._op_listen,
            NqeOp.CONNECT: self._op_connect,
            NqeOp.ACCEPT_ATTACH: self._op_accept_attach,
            NqeOp.RECV_CREDIT: self._op_recv_credit,
            NqeOp.CLOSE: self._op_close,
            NqeOp.SETSOCKOPT: self._op_setsockopt,
            NqeOp.GETSOCKOPT: self._op_getsockopt,
            NqeOp.SHUTDOWN: self._op_shutdown,
            NqeOp.HEARTBEAT: self._op_heartbeat,
        }

        # One poller per queue set, started by the device's first wake.
        device.attach_consumer(self)

        # Statistics.
        self.nqes_processed = 0
        self.nqes_emitted = 0
        self.nqes_dropped_crashed = 0
        #: SEND/SENDTO NQEs dropped because their guest-supplied
        #: ``data_ptr`` named no live buffer in the VM's region, by VM id.
        self.vm_bad_data_ptrs: Dict[int, int] = {}
        #: CONNECT/SENDTO/SETSOCKOPT/GETSOCKOPT NQEs answered EINVAL for
        #: a malformed ``aux``, by VM id.
        self.vm_bad_aux: Dict[int, int] = {}
        #: ACCEPT_ATTACH NQEs naming no unattached child of the VM's
        #: own listeners, answered EINVAL, by VM id.
        self.vm_bad_attaches: Dict[int, int] = {}
        #: Pump passes run with an overload-clamped receive window.
        self.rx_window_clamps = 0
        #: SEND/SENDTO handlers suspended on their copy, the only handlers
        #: that wait (migration waits for zero before exporting, so no
        #: NQE is half-processed across the move).
        self.busy_handlers = 0

        # Failure state (§8): crashed NSMs stop polling and emitting;
        # stalled NSMs sleep until the stall expires.
        self.crashed = False
        self._stall_until = 0.0

        # Observability (repro.obs); None = tracing disabled (default).
        self.obs = None

    def attach_vm_region(self, vm_id: int, region) -> None:
        """Map the hugepage region shared with one served VM."""
        self._regions[vm_id] = region

    def detach_vm_region(self, vm_id: int) -> None:
        """Unmap a VM's hugepage region (the VM migrated away)."""
        self._regions.pop(vm_id, None)

    def _region_for(self, vm_id: int):
        region = self._regions.get(vm_id)
        if region is None:
            raise KeyError(f"no hugepage region attached for VM {vm_id}")
        return region

    # -- failure injection (§8) ---------------------------------------------

    def crash(self) -> None:
        """Kill this NSM's stack processing: pollers exit, callbacks and
        emissions become drops.  Irreversible (a restarted NSM registers
        as a fresh one, as in the paper's failover discussion)."""
        self.crashed = True

    def stall(self, duration: float) -> None:
        """Freeze the pollers for ``duration`` seconds of sim time (an
        overloaded or wedged NSM).  Heartbeat ACKs are delayed with
        everything else, so a long stall looks like a failure to CE."""
        self._stall_until = max(self._stall_until, self.sim.now + duration)

    def _discard(self, nqe: Nqe) -> None:
        """Drop an NQE a crashed NSM would have emitted, freeing any
        hugepage payload it references so nothing leaks."""
        self.nqes_dropped_crashed += 1
        if nqe.data_ptr:
            region = self._regions.get(nqe.vm_id)
            if region is not None:
                buffer = region.lookup(nqe.data_ptr)
                if buffer is not None and not buffer.freed:
                    buffer.free()
        NQE_POOL.release(nqe)

    # -- emission (NSM -> VM) ------------------------------------------------

    def _emit(self, ctx_qset: int, nqe: Nqe, event: bool) -> None:
        """Produce one NQE toward CoreEngine, retrying while the ring is
        full (callback-safe: retries are scheduled, not blocking)."""
        if self.crashed:
            self._discard(nqe)
            return
        qs = self.device.queue_sets[ctx_qset % len(self.device.queue_sets)]
        completion_ring, receive_ring = self.device.produce_rings(qs)
        ring = receive_ring if event else completion_ring
        core = self.cores[ctx_qset % len(self.cores)]
        core.charge(self.cost.servicelib_nqe_prep, "servicelib.prep")
        self._push(ring, nqe)

    def _push(self, ring, nqe: Nqe) -> None:
        """Push ``nqe`` onto ``ring``; while it is full, try again every
        2 µs (a retry is allocated only then)."""
        if self.crashed:
            self._discard(nqe)
        elif ring.try_push(nqe, owner=self):
            self.nqes_emitted += 1
            if self.obs is not None:
                self.obs.tracer.nsm_emit(nqe)
            self.device.ring_doorbell()
        else:
            self.sim.call_later(2e-6, lambda: self._push(ring, nqe))

    def _respond(self, request: Nqe, ctx_qset: int, op_data: int = 0,
                 req_op: Optional[NqeOp] = None, **aux) -> None:
        response = request.response(NqeOp.OP_RESULT, op_data=op_data,
                                    aux={"req_op": req_op or request.op,
                                         **aux})
        self._emit(ctx_qset, response, event=False)

    def _respond_errno(self, request: Nqe, ctx_qset: int,
                       errno_name: str) -> None:
        code = RESULT_ERRNO.get(errno_name, 5)
        self._respond(request, ctx_qset, op_data=-code)

    def _count_bad_aux(self, nqe: Nqe) -> None:
        """Count a malformed guest-supplied ``aux`` against the VM."""
        bad = self.vm_bad_aux
        bad[nqe.vm_id] = bad.get(nqe.vm_id, 0) + 1

    # -- pollers (VM -> NSM) -----------------------------------------------------

    def poller(self, qset_index: int):
        """Drain job/send rings of one queue set; the NK device starts one
        per queue set on its first wake."""
        qs = self.device.queue_sets[qset_index]
        core = self.cores[qset_index % len(self.cores)]
        job_ring, send_ring = self.device.consume_rings(qs)
        # Reusable drain scratch: steady-state passes allocate no lists.
        scratch: list = []
        while not self.crashed:
            if self._stall_until > self.sim._now:
                yield self.sim.timeout(self._stall_until - self.sim._now)
                continue
            n = job_ring.drain_into(scratch, 32, owner=self)
            n += send_ring.drain_into(scratch, 32, owner=self, start=n)
            if not n:
                yield self.device.wait_for_inbound()
                continue
            cycles = n * self.cost.servicelib_nqe_dispatch
            yield core.execute(cycles, "servicelib.dispatch")
            for i in range(n):
                nqe = scratch[i]
                scratch[i] = None
                if self.crashed:
                    # Crash landed mid-batch: drop the rest unprocessed.
                    self._discard(nqe)
                    continue
                self.nqes_processed += 1
                if self.obs is not None:
                    self.obs.tracer.nsm_consume(nqe)
                op = nqe.op
                if op is NqeOp.SEND or op is NqeOp.SENDTO:
                    # The only handlers that wait: each charges the copy
                    # out of hugepages on the core.
                    self.busy_handlers += 1
                    try:
                        if op is NqeOp.SEND:
                            yield from self._op_send(nqe, core)
                        else:
                            yield from self._op_sendto(nqe, core)
                    finally:
                        self.busy_handlers -= 1
                else:
                    handler = self._handlers.get(op)
                    if handler is None:
                        self._respond_errno(nqe, qset_index, "EINVAL")
                    else:
                        handler(nqe, qset_index)
                # ServiceLib is the final consumer of request NQEs; a
                # CONNECT stays live inside the stack's completion
                # callbacks until the connection resolves.
                if op is not NqeOp.CONNECT:
                    NQE_POOL.release(nqe)

    # -- control operations ----------------------------------------------------------

    def _op_socket(self, nqe: Nqe, qset: int):
        """Create the NSM-side socket; op_data of the result carries the
        NSM socket id that completes the connection-table entry.

        op_data of the request selects the family: 0 stream, 1 datagram.
        """
        if nqe.op_data == 1:
            if not hasattr(self.stack, "udp_socket"):
                self._respond_errno(nqe, qset, "EINVAL")
                return
            stack_sock = self.stack.udp_socket()
            ctx = _SocketContext(stack_sock, qset, kind="udp", lib=self)
            ctx.vm_tuple = nqe.vm_tuple
            self._by_vm_tuple[ctx.vm_tuple] = ctx
            self._by_nsm_id[ctx.nsm_sock_id] = ctx
            stack_sock.on_readable = lambda _s: self._pump_udp_rx(ctx)
            self._respond(nqe, qset, op_data=ctx.nsm_sock_id)
            return
        stack_sock = self.stack.socket()
        ctx = _SocketContext(stack_sock, qset, lib=self)
        ctx.vm_tuple = nqe.vm_tuple
        self._by_vm_tuple[ctx.vm_tuple] = ctx
        self._by_nsm_id[ctx.nsm_sock_id] = ctx
        self._install_callbacks(ctx)
        self._respond(nqe, qset, op_data=ctx.nsm_sock_id)

    def _op_bind(self, nqe: Nqe, qset: int):
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is None:
            self._respond_errno(nqe, qset, "EBADF")
            return
        try:
            if ctx.kind == "udp":
                self.stack.udp_bind(ctx.stack_sock, nqe.op_data)
            else:
                self.stack.bind(ctx.stack_sock, nqe.op_data)
            self._respond(nqe, qset, op_data=0)
        except SocketError as error:
            self._respond_errno(nqe, qset, error.errno_name)

    def _op_listen(self, nqe: Nqe, qset: int):
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is None or ctx.kind == "udp":
            self._respond_errno(nqe, qset, "EBADF" if ctx is None else "EINVAL")
            return
        try:
            self.stack.listen(ctx.stack_sock, nqe.op_data or 128)
            ctx.is_listener = True
            self._respond(nqe, qset, op_data=0)
        except SocketError as error:
            self._respond_errno(nqe, qset, error.errno_name)

    def _op_connect(self, nqe: Nqe, qset: int):
        # The poller does not release CONNECT requests (they stay live in
        # the stack's completion callbacks), so every exit from this
        # handler must release the request itself.
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        remote = self._aux_address(nqe, "remote")
        if ctx is None or ctx.kind == "udp" or remote is None:
            self._respond_errno(nqe, qset, "EBADF" if ctx is None else "EINVAL")
            NQE_POOL.release(nqe)
            return
        ctx.connect_token = nqe
        finish = self._arm_connect_resolution(ctx, nqe, qset)
        try:
            self.stack.connect(ctx.stack_sock, remote)
        except SocketError as error:
            finish(error.errno_name)

    def _arm_connect_resolution(self, ctx: _SocketContext, nqe: Nqe,
                                qset: int):
        """Install the callbacks that resolve a pending CONNECT request.

        Factored out of :meth:`_op_connect` because migration must re-arm
        them on the target NSM when a connect is in flight across the
        blackout.  Returns the resolver for synchronous resolution.
        """
        sock = ctx.stack_sock

        def finish(errno_name: Optional[str]) -> None:
            # The stack may fire both on_connected and (later) on_error;
            # the CONNECT request resolves exactly once, after which
            # ServiceLib is its final consumer.
            if ctx.connect_token is not nqe:
                return
            ctx.connect_token = None
            if errno_name is None:
                self._respond(nqe, qset, op_data=0)
                # Post-connect stack errors become ERROR_EVENTs.
                sock.on_error = lambda _s, errno: self._emit_error(ctx, errno)
            else:
                self._respond_errno(nqe, qset, errno_name)
            NQE_POOL.release(nqe)

        sock.on_connected = lambda _s: finish(None)
        sock.on_error = lambda _s, errno_name: finish(errno_name)
        return finish

    def _op_accept_attach(self, nqe: Nqe, qset: int):
        """The guest attached its socket id to an accepted connection.

        Only a child no socket holds yet, accepted on one of the
        attaching VM's own listeners, is attached.  Any other attach is
        counted against the VM and answered with an EINVAL ERROR_EVENT
        (it carries no token for an OP_RESULT), whatever the switch let
        through."""
        ctx = self._by_nsm_id.get(nqe.op_data)
        listener = ctx.listener_ctx if ctx is not None else None
        if (listener is None or ctx.vm_tuple is not None
                or listener.vm_tuple is None
                or listener.vm_tuple[0] != nqe.vm_id):
            bad = self.vm_bad_attaches
            bad[nqe.vm_id] = bad.get(nqe.vm_id, 0) + 1
            self._emit(qset, nqe.response(
                NqeOp.ERROR_EVENT, op_data=-RESULT_ERRNO["EINVAL"]),
                event=True)
            return
        ctx.vm_tuple = nqe.vm_tuple
        ctx.qset = qset
        self._by_vm_tuple[ctx.vm_tuple] = ctx
        # Data may have arrived before the guest attached: flush it now.
        self._pump_rx(ctx)

    def _aux_address(self, nqe: Nqe, key: str):
        """The ``(host, port)`` pair a CONNECT/SENDTO names in
        ``aux[key]``, or None, counted against the sending VM, when the
        guest-supplied ``aux`` is anything else (the caller answers
        EINVAL instead of raising out of the poller)."""
        aux = nqe.aux
        address = aux.get(key) if type(aux) is dict else None
        if (type(address) is tuple and len(address) == 2
                and type(address[0]) is str and type(address[1]) is int):
            return address
        self._count_bad_aux(nqe)
        return None

    def _sockopt_name(self, nqe: Nqe, qset: int):
        """The option a SETSOCKOPT/GETSOCKOPT names, or False once a
        malformed ``aux`` has been answered.

        ``aux`` is guest-supplied: anything but a dict whose ``option``
        is a string (or absent) completes with EINVAL, counted against
        the sending VM, instead of raising out of the poller."""
        aux = nqe.aux or {}
        option = aux.get("option") if type(aux) is dict else False
        if option is None or type(option) is str:
            return option
        self._count_bad_aux(nqe)
        self._respond_errno(nqe, qset, "EINVAL")
        return False

    def _op_setsockopt(self, nqe: Nqe, qset: int):
        # Options are accepted and recorded; the simulated stacks have no
        # tunables that alter behaviour (SO_REUSEPORT is modelled at the
        # capacity level in repro.model).
        option = self._sockopt_name(nqe, qset)
        if option is False:
            return
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is not None and option is not None:
            ctx.options[option] = nqe.op_data
        self._respond(nqe, qset, op_data=0)

    def _op_getsockopt(self, nqe: Nqe, qset: int):
        """Read back a recorded option value (0 for never-set options)."""
        option = self._sockopt_name(nqe, qset)
        if option is False:
            return
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is None:
            self._respond_errno(nqe, qset, "EBADF")
            return
        self._respond(nqe, qset, op_data=ctx.options.get(option, 0))

    def _op_heartbeat(self, nqe: Nqe, qset: int):
        """CoreEngine liveness probe: answer immediately on the completion
        ring.  A crashed/stalled NSM never reaches this handler, which is
        exactly what CE's failure detector keys on."""
        self._emit(qset, nqe.response(NqeOp.HEARTBEAT_ACK), event=False)

    def _abort_pending_connect(self, ctx: _SocketContext, qset: int) -> None:
        """A close raced an in-flight connect.  Once the socket is torn
        down the stack never fires the connect callbacks, so resolve the
        parked CONNECT request here or its NQE is leaked."""
        pending = ctx.connect_token
        if pending is None:
            return
        ctx.connect_token = None
        self._respond_errno(pending, qset, "ECONNRESET")
        NQE_POOL.release(pending)

    def _op_close(self, nqe: Nqe, qset: int):
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is None:
            self._respond(nqe, qset, op_data=0, req_op=NqeOp.CLOSE)
            return
        self._abort_pending_connect(ctx, qset)
        ctx.closing = True
        extra = {}
        if ctx.kind == "udp":
            self.stack.udp_close(ctx.stack_sock)
            self._by_nsm_id.pop(ctx.nsm_sock_id, None)
        else:
            if ctx.is_listener:
                # The switch withdraws the accept offers it made for
                # the children this frees.
                extra["reaped"] = self._reap_listener_backlog(ctx)
            if not ctx.pending_tx:
                self._finish_close(ctx)
        self._respond(nqe, qset, op_data=0, req_op=NqeOp.CLOSE, **extra)
        self._by_vm_tuple.pop(nqe.vm_tuple, None)

    def _op_shutdown(self, nqe: Nqe, qset: int):
        """Half-close (SHUT_WR): FIN the write side, keep receiving.

        The stack sends its FIN once buffered data drains; the context
        stays mapped so inbound data keeps flowing to the guest until the
        peer closes too.
        """
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is None or ctx.kind == "udp":
            self._respond_errno(nqe, qset, "EINVAL")
            return
        if not ctx.pending_tx:
            try:
                self.stack.close(ctx.stack_sock)
            except SocketError as error:
                self._respond_errno(nqe, qset, error.errno_name)
                return
        else:
            ctx.closing = True  # FIN goes out when pending bytes drain
        self._respond(nqe, qset, op_data=0)

    def _finish_close(self, ctx: _SocketContext) -> None:
        try:
            self.stack.close(ctx.stack_sock)
        except SocketError:
            pass
        self._by_nsm_id.pop(ctx.nsm_sock_id, None)

    def _reap_listener_backlog(self, ctx: _SocketContext) -> List[int]:
        """Closing a listener strands the children the guest never
        attached: pipelined-accept contexts (ACCEPT_EVENT still in flight
        or unread) and connections queued inside the stack.  Reset and
        free them all — as Linux does when a listening socket closes —
        so neither stack connections nor contexts leak.  Returns the NSM
        socket ids of the freed contexts."""
        reaped = []
        for child in list(self._by_nsm_id.values()):
            if child.listener_ctx is ctx and child.vm_tuple is None:
                try:
                    self.stack.abort(child.stack_sock)
                except SocketError:
                    pass
                self._by_nsm_id.pop(child.nsm_sock_id, None)
                reaped.append(child.nsm_sock_id)
        while True:
            try:
                stranded = self.stack.accept(ctx.stack_sock)
            except SocketError:
                break
            if stranded is None:
                break
            try:
                self.stack.abort(stranded)
            except SocketError:
                pass
        return reaped

    # -- data path ----------------------------------------------------------------------

    def _payload(self, nqe: Nqe):
        """The live hugepage buffer a SEND/SENDTO NQE points at, or None.

        ``data_ptr`` is guest-controlled: a dangling or freed pointer
        must cost only the offending VM its send (the NQE is dropped and
        counted against it), never raise out of the poller and take
        every tenant on this NSM down with it."""
        region = self._regions.get(nqe.vm_id)
        buffer = region.lookup(nqe.data_ptr) if region is not None else None
        if buffer is None or buffer.freed:
            bad = self.vm_bad_data_ptrs
            bad[nqe.vm_id] = bad.get(nqe.vm_id, 0) + 1
            return None
        return buffer

    def _op_send(self, nqe: Nqe, core):
        buffer = self._payload(nqe)
        if buffer is None:
            return
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is None or ctx.closing or ctx.kind == "udp":
            buffer.free()  # no stream to send on: drop the payload, no leak
            return
        data = buffer.read()
        buffer.free()
        # The extra copy from hugepages into the stack (§7.8's overhead).
        yield core.execute(self.cost.nsm_copy_cycles(len(data)),
                           "servicelib.send_copy")
        ctx.pending_tx.append(data)
        ctx.pending_tx_bytes += len(data)
        self._flush_tx(ctx)

    def _flush_tx(self, ctx: _SocketContext) -> None:
        """Push pending bytes into the stack; credit the guest as accepted."""
        if self.crashed or ctx.lib is not self:
            return
        accepted_total = 0
        while ctx.pending_tx:
            chunk = ctx.pending_tx[0]
            try:
                accepted = self.stack.send(ctx.stack_sock, chunk)
            except SocketError as error:
                self._emit_error(ctx, error.errno_name)
                ctx.pending_tx.clear()
                ctx.pending_tx_bytes = 0
                return
            if accepted == 0:
                break
            accepted_total += accepted
            ctx.pending_tx_bytes -= accepted
            if accepted < len(chunk):
                ctx.pending_tx[0] = chunk[accepted:]
                break
            ctx.pending_tx.popleft()
        if accepted_total and ctx.vm_tuple is not None:
            vm_id, vm_qset, vm_sock = ctx.vm_tuple
            credit = NQE_POOL.acquire(
                NqeOp.SEND_RESULT, vm_id, vm_qset, vm_sock,
                op_data=0, size=accepted_total, created_at=self.sim._now)
            self._emit(ctx.qset, credit, event=False)
        if ctx.closing and not ctx.pending_tx:
            self._finish_close(ctx)

    def _op_sendto(self, nqe: Nqe, core):
        buffer = self._payload(nqe)
        if buffer is None:
            return
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is None or ctx.kind != "udp":
            buffer.free()
            return
        data = buffer.read()
        buffer.free()
        yield core.execute(self.cost.nsm_copy_cycles(len(data)),
                           "servicelib.send_copy")
        dest = self._aux_address(nqe, "dest")
        code = RESULT_ERRNO["EINVAL"]
        if dest is not None:
            try:
                self.stack.udp_sendto(ctx.stack_sock, data, dest)
                code = 0
            except SocketError as error:
                code = RESULT_ERRNO.get(error.errno_name, 5)
        vm_id, vm_qset, vm_sock = ctx.vm_tuple
        credit = NQE_POOL.acquire(
            NqeOp.SEND_RESULT, vm_id, vm_qset, vm_sock, op_data=-code,
            size=len(data), created_at=self.sim._now)
        self._emit(ctx.qset, credit, event=False)

    def _pump_udp_rx(self, ctx: _SocketContext) -> None:
        """Forward queued datagrams to the guest as DATA_ARRIVED events."""
        if self.crashed or ctx.lib is not self or ctx.vm_tuple is None:
            return
        vm_id, vm_qset, vm_sock = ctx.vm_tuple
        core = self.cores[ctx.qset % len(self.cores)]
        while True:
            item = self.stack.udp_recvfrom(ctx.stack_sock, 1 << 16)
            if item is None:
                return
            data, source = item
            buffer = self._region_for(vm_id).try_alloc(len(data))
            if buffer is None:
                return  # UDP semantics: drop under memory pressure
            buffer.write(data)
            core.charge(self.cost.nsm_copy_cycles(len(data)),
                        "servicelib.recv_copy")
            event = NQE_POOL.acquire(
                NqeOp.DATA_ARRIVED, vm_id, vm_qset, vm_sock,
                data_ptr=buffer.buffer_id, size=len(data),
                aux={"from": source}, created_at=self.sim._now)
            self._emit(ctx.qset, event, event=True)

    def _op_recv_credit(self, nqe: Nqe, qset: int):
        ctx = self._by_vm_tuple.get(nqe.vm_tuple)
        if ctx is None or ctx.kind == "udp":
            return
        ctx.rx_window_used = max(0, ctx.rx_window_used - nqe.op_data)
        self._pump_rx(ctx)

    def _effective_recv_window(self) -> int:
        """Per-connection receive window after overload clamping.

        When this NSM's home-shard governor reports pressure, ServiceLib
        stops amplifying the backlog: the effective window halves at
        level 1 (pressured) and quarters at level 2 (overloaded), floored
        at one RX_CHUNK so established flows keep trickling.  TCP flow
        control then pushes back on the remote sender — degradation, not
        drops.
        """
        gov = governor_for_device(self.device)
        if gov is None or gov.level == 0:
            return self.recv_window_bytes
        shift = 1 if gov.level == LEVEL_PRESSURED else 2
        window = self.recv_window_bytes >> shift
        floor = min(self.recv_window_bytes, RX_CHUNK)
        if window < floor:
            window = floor
        if window < self.recv_window_bytes:
            self.rx_window_clamps += 1
        return window

    def _pump_rx(self, ctx: _SocketContext) -> None:
        """Move received bytes from the stack into hugepages + NQEs."""
        if self.crashed or ctx.lib is not self or ctx.vm_tuple is None:
            return
        sock = ctx.stack_sock
        core = self.cores[ctx.qset % len(self.cores)]
        vm_id, vm_qset, vm_sock = ctx.vm_tuple
        recv_window = self._effective_recv_window()
        while ctx.rx_window_used < recv_window:
            budget = min(RX_CHUNK,
                         recv_window - ctx.rx_window_used)
            data = self.stack.recv(sock, budget)
            if not data:
                break
            buffer = self._region_for(vm_id).try_alloc(len(data))
            if buffer is None:
                # Hugepages exhausted: retry once the guest frees buffers.
                self.sim.call_later(20e-6, lambda: self._pump_rx(ctx))
                break
            buffer.write(data)
            core.charge(self.cost.nsm_copy_cycles(len(data)),
                        "servicelib.recv_copy")
            ctx.rx_window_used += len(data)
            event = NQE_POOL.acquire(
                NqeOp.DATA_ARRIVED, vm_id, vm_qset, vm_sock,
                data_ptr=buffer.buffer_id, size=len(data),
                created_at=self.sim._now)
            self._emit(ctx.qset, event, event=True)
        if getattr(sock, "eof", False) and not ctx.peer_closed_sent:
            ctx.peer_closed_sent = True
            event = NQE_POOL.acquire(NqeOp.PEER_CLOSED, vm_id, vm_qset,
                                     vm_sock, created_at=self.sim._now)
            self._emit(ctx.qset, event, event=True)

    def _emit_error(self, ctx: _SocketContext, errno_name: str) -> None:
        if self.crashed or ctx.lib is not self or ctx.vm_tuple is None:
            return
        vm_id, vm_qset, vm_sock = ctx.vm_tuple
        code = RESULT_ERRNO.get(errno_name, 5)
        event = NQE_POOL.acquire(NqeOp.ERROR_EVENT, vm_id, vm_qset, vm_sock,
                                 op_data=-code, created_at=self.sim._now)
        self._emit(ctx.qset, event, event=True)

    # -- stack callbacks -------------------------------------------------------------------

    def _install_callbacks(self, ctx: _SocketContext) -> None:
        sock = ctx.stack_sock
        sock.on_readable = lambda _s: self._pump_rx(ctx)
        sock.on_writable = lambda _s: self._flush_tx(ctx)
        sock.on_accept_ready = lambda listener: self._drain_accepts(ctx)
        sock.on_error = lambda _s, errno: self._emit_error(ctx, errno)

    def _drain_accepts(self, listener_ctx: _SocketContext) -> None:
        """Pipelined accept (§4.6): take connections from the stack now,
        announce them to the guest with ACCEPT_EVENT NQEs."""
        if (self.crashed or listener_ctx.lib is not self
                or listener_ctx.vm_tuple is None):
            return
        vm_id, vm_qset, vm_sock = listener_ctx.vm_tuple
        while True:
            child = self.stack.accept(listener_ctx.stack_sock)
            if child is None:
                return
            ctx = _SocketContext(child, listener_ctx.qset, lib=self)
            ctx.listener_ctx = listener_ctx
            self._by_nsm_id[ctx.nsm_sock_id] = ctx
            self._install_callbacks(ctx)
            event = NQE_POOL.acquire(
                NqeOp.ACCEPT_EVENT, vm_id, vm_qset, vm_sock,
                op_data=ctx.nsm_sock_id,
                aux={"peer": getattr(child, "remote", None)},
                created_at=self.sim._now)
            self._emit(listener_ctx.qset, event, event=True)

    # -- live migration ----------------------------------------------------------------------

    def export_vm_sockets(self, vm_id: int) -> list:
        """Quiesce and hand over every socket context owned by ``vm_id``.

        Each record carries the context object (the live stack socket
        travels with it) plus a TCB manifest snapshot taken at export
        time.  After this call the contexts belong to nobody: callbacks
        are unhooked, so data arriving during the blackout accumulates in
        the stack's receive buffers (the engine keeps ACKing) and is
        flushed by the importer's resume.
        """
        if self.crashed:
            raise ConfigurationError(
                f"NSM {self.nsm_id} has crashed; nothing to export")
        if not getattr(self.stack, "supports_migration", lambda: False)():
            raise ConfigurationError(
                f"stack {getattr(self.stack, 'name', '?')} does not "
                "support live migration")
        owned = []
        for ctx in self._by_nsm_id.values():
            if ctx.vm_tuple is not None:
                if ctx.vm_tuple[0] == vm_id:
                    owned.append(ctx)
            elif (ctx.listener_ctx is not None
                  and ctx.listener_ctx.vm_tuple is not None
                  and ctx.listener_ctx.vm_tuple[0] == vm_id):
                # Pipelined-accept children the guest has not attached
                # yet travel with their listener.
                owned.append(ctx)
        if any(ctx.kind == "udp" for ctx in owned):
            raise ConfigurationError(
                "UDP sockets cannot be live-migrated")
        owned.sort(key=lambda c: c.nsm_sock_id)
        records = []
        for ctx in owned:
            sock = ctx.stack_sock
            sock.on_readable = None
            sock.on_writable = None
            sock.on_accept_ready = None
            sock.on_connected = None
            sock.on_error = None
            self._by_nsm_id.pop(ctx.nsm_sock_id, None)
            if ctx.vm_tuple is not None:
                self._by_vm_tuple.pop(ctx.vm_tuple, None)
            ctx.lib = None
            records.append({"ctx": ctx, "tcb": tcb_manifest(sock)})
        return records

    def import_vm_sockets(self, vm_id: int, records: list,
                          source_stack) -> int:
        """Adopt exported contexts: move their stack sockets onto our
        stack, re-register the lookup maps, then resume each context
        (re-installing callbacks and flushing anything that queued up
        during the blackout)."""
        if not getattr(self.stack, "supports_migration", lambda: False)():
            raise ConfigurationError(
                f"stack {getattr(self.stack, 'name', '?')} does not "
                "support live migration")
        n_qsets = self.device.lane_count
        # Pass 1: move the stack-level endpoints.  Listeners bulk-move
        # their children, so later per-child calls are no-ops.
        for record in records:
            source_stack.migrate_socket(record["ctx"].stack_sock,
                                        self.stack)
        # Pass 2: adopt the contexts under our queue-set geometry.
        for record in records:
            ctx = record["ctx"]
            ctx.lib = self
            if ctx.vm_tuple is not None:
                ctx.qset = hash(ctx.vm_tuple) % n_qsets
                self._by_vm_tuple[ctx.vm_tuple] = ctx
            else:
                ctx.qset = ctx.qset % n_qsets
            self._by_nsm_id[ctx.nsm_sock_id] = ctx
        # Pass 3: resume — callbacks back on, blackout backlog flushed.
        for record in records:
            self._resume_context(record["ctx"])
        return len(records)

    def _resume_context(self, ctx: _SocketContext) -> None:
        sock = ctx.stack_sock
        pending = ctx.connect_token
        if pending is not None:
            # A CONNECT was in flight across the blackout: re-arm its
            # resolution here, and resolve immediately if the handshake
            # finished (or died) while callbacks were quiesced.
            self._install_callbacks(ctx)
            finish = self._arm_connect_resolution(ctx, pending, ctx.qset)
            if getattr(sock, "established", False):
                finish(None)
            elif getattr(getattr(sock, "state", None), "value",
                         None) == "closed":
                finish("ECONNRESET")
            return
        self._install_callbacks(ctx)
        if ctx.is_listener:
            if ctx.vm_tuple is not None:
                self._drain_accepts(ctx)
            return
        if ctx.vm_tuple is not None:
            self._flush_tx(ctx)
            self._pump_rx(ctx)
            if getattr(getattr(sock, "state", None), "value",
                       None) == "closed" and not ctx.peer_closed_sent:
                # Reset/timeout landed during the blackout with on_error
                # quiesced: surface it now.
                self._emit_error(ctx, "ECONNRESET")

    # -- introspection -----------------------------------------------------------------------

    def stats(self) -> dict:
        """Lifetime NQE counters and live socket contexts."""
        return {
            "nqes_processed": self.nqes_processed,
            "nqes_emitted": self.nqes_emitted,
            "nqes_dropped_crashed": self.nqes_dropped_crashed,
            "vm_bad_data_ptrs": dict(self.vm_bad_data_ptrs),
            "rx_window_clamps": self.rx_window_clamps,
            "live_contexts": len(self._by_nsm_id),
            "crashed": self.crashed,
        }
