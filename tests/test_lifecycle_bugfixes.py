"""Close/drain lifecycle bugfix batch (PR 4 satellites).

1. ``close()``/``shutdown()`` must withdraw their drain waiter from
   ``sock._writable_waiters`` when the bounded wait times out — a stale
   event there would eat a later wake-up meant for a live caller.
2. Closing a listening socket with un-accepted backlog children must
   free the NSM-side stack connections and ``_SocketContext``s.
3. ``CoreEngine._fail_fast_nqe`` must not rewrite already-completed
   CLOSE/SHUTDOWN results to -ECONNRESET: the op succeeded before the
   NSM died, and the socket is terminal either way.
"""

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL, NqeOp, RESULT_ERRNO
from repro.errors import TimedOutError
from repro.net.fabric import Network
from repro.sim import Simulator

PORT = 7200


def _echo_host(op_timeout=None):
    """Two NSMs, an accepting echo server on nsm-a, a client on nsm-b."""
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim))
    nsm_a = host.add_nsm("nsm-a", vcpus=1, stack="kernel")
    nsm_b = host.add_nsm("nsm-b", vcpus=1, stack="kernel")
    server_vm = host.add_vm("server", vcpus=1, nsm=nsm_a)
    client_vm = host.add_vm("client", vcpus=1, nsm=nsm_b,
                            op_timeout=op_timeout, max_op_retries=0)
    return sim, host, nsm_a, nsm_b, server_vm, client_vm


def _accepting_server(api, vm):
    listener = yield from api.socket()
    yield from api.bind(listener, PORT)
    yield from api.listen(listener, backlog=16)
    while True:
        conn = yield from api.accept(listener)
        vm.spawn(_echo(api, conn))


def _echo(api, conn):
    while True:
        data = yield from api.recv(conn, 4096)
        if not data:
            return
        yield from api.send(conn, data)


class TestDrainWaiterWithdrawal:
    """Satellite 1: timed-out drain waits must not leave waiters behind."""

    def _connected_socket(self, op_timeout):
        sim, host, _, _, server_vm, client_vm = _echo_host(op_timeout)
        server_api = host.socket_api(server_vm)
        client_api = host.socket_api(client_vm)
        server_vm.spawn(_accepting_server(server_api, server_vm))
        state = {}

        def connect():
            sock = yield from client_api.socket()
            yield from client_api.connect(sock, ("nsm-a", PORT))
            state["sock"] = sock

        client_vm.spawn(connect())
        sim.run(until=0.02)
        assert "sock" in state
        return sim, client_api, state["sock"]

    def test_close_timeout_withdraws_waiter(self):
        sim, api, sock = self._connected_socket(op_timeout=2e-3)
        # Un-credited pipelined sends that will never drain: the close
        # drain wait must expire, withdraw its waiter, and proceed.
        sock.tx_inflight = 1 << 20
        done = {}

        def close_it():
            done["rc"] = yield from api.close(sock)

        sim.process(close_it())
        sim.run(until=0.05)
        assert done["rc"] == 0
        assert sock.state == "closed"
        assert sock._writable_waiters == []

    def test_shutdown_timeout_withdraws_waiter_and_raises(self):
        sim, api, sock = self._connected_socket(op_timeout=2e-3)
        sock.tx_inflight = 1 << 20
        done = {}

        def shut_it():
            try:
                yield from api.shutdown(sock)
            except TimedOutError:
                done["timed_out"] = True

        sim.process(shut_it())
        sim.run(until=0.05)
        assert done.get("timed_out")
        assert sock._writable_waiters == []
        # The socket stays connected: shutdown never reached the NSM.
        assert sock.state == "connected"


class TestListenerBacklogReaping:
    """Satellite 2: closing a listener frees its un-attached children."""

    def test_close_with_unaccepted_backlog_leaks_nothing(self):
        """GuestLib auto-attaches accepted children, so the un-attached
        window is normally microseconds.  A stalled poller widens it
        deterministically: the guest's CLOSE queues in the job ring ahead
        of the ACCEPT_ATTACHes while handshakes (stack callbacks, which a
        stall does not freeze) keep minting backlog children — exactly
        the leak scenario."""
        sim, host, nsm_a, _, server_vm, client_vm = _echo_host()
        server_api = host.socket_api(server_vm)
        client_api = host.socket_api(client_vm)
        state = {}

        def lazy_server():
            listener = yield from server_api.socket()
            yield from server_api.bind(listener, PORT)
            yield from server_api.listen(listener, backlog=16)
            state["listener"] = listener
            # Never accepts: children pile up NSM-side with no VM twin.

        def close_listener():
            yield from server_api.close(state["listener"])
            state["closed"] = True

        def client():
            yield sim.timeout(11e-3)  # after the CLOSE is queued
            for _ in range(3):
                sock = yield from client_api.socket()
                yield from client_api.connect(sock, ("nsm-a", PORT))
                state.setdefault("socks", []).append(sock)

        server_vm.spawn(lazy_server())
        client_vm.spawn(client())
        sim.run(until=0.01)
        nsm_a.servicelib.stall(0.03)
        server_vm.spawn(close_listener())
        sim.run(until=0.03)

        lib = nsm_a.servicelib
        orphans = [ctx for ctx in lib._by_nsm_id.values()
                   if ctx.vm_tuple is None]
        assert len(orphans) == 3  # the leak precondition
        assert "closed" not in state  # CLOSE still parked in the ring

        sim.run(until=0.08)  # stall over: CLOSE reaps, ATTACHes no-op

        assert state.get("closed")
        # Every NSM-side context is gone: listener, attached children
        # (there are none), and the un-attached backlog.
        assert lib._by_nsm_id == {}
        engine = nsm_a.stack.engine
        assert engine._listeners == {}
        assert all(conn.local_port != PORT
                   for conn in engine._conns.values())


class TestCloseResultSurvivesQuarantine:
    """Satellite 3: fail-fast must not rewrite completed CLOSE results."""

    def test_close_result_keeps_success_connect_result_fails(self):
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim))
        nsm = host.add_nsm("nsm-a", vcpus=1, stack="kernel")
        vm = host.add_vm("vm", vcpus=1, nsm=nsm)
        ce = host.coreengine

        close_result = NQE_POOL.acquire(
            NqeOp.OP_RESULT, vm.vm_id, 0, 5, op_data=0, token=1,
            aux={"req_op": NqeOp.CLOSE}, created_at=0.0)
        shutdown_result = NQE_POOL.acquire(
            NqeOp.OP_RESULT, vm.vm_id, 0, 6, op_data=0, token=2,
            aux={"req_op": NqeOp.SHUTDOWN}, created_at=0.0)
        connect_result = NQE_POOL.acquire(
            NqeOp.OP_RESULT, vm.vm_id, 0, 7, op_data=0, token=3,
            aux={"req_op": NqeOp.CONNECT}, created_at=0.0)
        completion = ce.nsm_device(nsm.nsm_id).queue_sets[0].completion
        for nqe in (close_result, shutdown_result, connect_result):
            completion.push(nqe, owner=None)

        failed_fast_before = ce.stats()["nqes_failed_fast"]
        ce.quarantine_nsm(nsm.nsm_id, reason="test")

        delivered = {
            nqe.aux["req_op"]: nqe
            for qs in ce.vm_device(vm.vm_id).queue_sets
            for ring in (qs.completion, qs.receive)
            for nqe in ring.snapshot()
            if nqe is not None and nqe.op is NqeOp.OP_RESULT
        }
        assert delivered[NqeOp.CLOSE].op_data == 0
        assert delivered[NqeOp.SHUTDOWN].op_data == 0
        assert (delivered[NqeOp.CONNECT].op_data
                == -RESULT_ERRNO["ECONNRESET"])
        # Only the CONNECT result counted as failed-fast.
        assert ce.stats()["nqes_failed_fast"] == failed_fast_before + 1

        # Drain the crafted NQEs so the process-global pool balances.
        for qs in ce.vm_device(vm.vm_id).queue_sets:
            for ring in (qs.completion, qs.receive):
                while True:
                    batch = ring.pop_batch(64, owner=None)
                    if not batch:
                        break
                    for nqe in batch:
                        NQE_POOL.release(nqe)


class TestLifecycleRegressionsViaChaos:
    """The fixes hold under the canonical fault workload: doorbell loss
    plus clean closes produce no spurious ECONNRESET."""

    def test_doorbell_loss_run_stays_reset_free(self):
        from repro.faults.migration import run_migration

        result = run_migration(seed=6, streams=4, duration=0.12,
                               migrate_at=0.042,
                               plan_name="doorbell-loss")
        assert result["counters"]["resets"] == 0
        assert result["counters"]["closed_clean"] == 4
        assert result["leaks"] == []
