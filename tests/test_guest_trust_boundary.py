"""A hostile guest's NQEs must not take down the host or its neighbours.

A VM controls every field of the NQEs it produces.  A SEND or SENDTO
whose ``data_ptr`` names no live buffer in the VM's hugepage region is
dropped by ServiceLib and counted against that VM; an op ServiceLib
does not serve, a CONNECT/SENDTO/SETSOCKOPT/GETSOCKOPT with a malformed
``aux``, and a stream-only op on a datagram socket complete with
EINVAL.  None may raise out of the NSM's poller (and with it out of
``sim.run()``), which would stop every tenant that NSM serves.  A
``vm_id`` naming another VM is overwritten by the switch, so a spoofed
op acts on the spoofer's own tuple and hugepages."""

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL, RESULT_ERRNO, NqeOp
from repro.errors import SocketError
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec
from tests.census import assert_census_clean

PAYLOAD = bytes(range(256)) * 16


def _echo_next_to(hostile_nqes, push_at=1.5e-3):
    """Run a 4 KiB echo between two well-behaved VMs while a third pushes
    ``hostile_nqes(host, device, vm)`` — (ring index, NQE) pairs, iterated
    at push time — straight into its own produce rings at ``push_at``.
    The echo's accepted connection lives only from about 1.15 to
    1.27 ms, so the default 1.5 ms push lands after the echo, next to a
    listening server with no live connection; a test that must strike a
    live neighbour connection waits for the server's accepted table
    entry instead, as the ACCEPT_ATTACH hijack test does.  Returns the
    host, the NSM, the hostile VM and the NQE pool's outstanding count
    before the run."""
    outstanding_before = NQE_POOL.outstanding
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    server_vm = host.add_vm("srv", vcpus=1, nsm=nsm)
    client_vm = host.add_vm("cli", vcpus=1, nsm=nsm)
    hostile_vm = host.add_vm("hostile", vcpus=1, nsm=nsm)
    api_s, api_c = host.socket_api(server_vm), host.socket_api(client_vm)
    done = {}

    def server():
        listener = yield from api_s.socket()
        yield from api_s.bind(listener, 80)
        yield from api_s.listen(listener)
        conn = yield from api_s.accept(listener)
        while True:
            data = yield from api_s.recv(conn, 65536)
            if not data:
                break
            yield from api_s.send(conn, data)
        yield from api_s.close(conn)

    def client():
        yield sim.timeout(1e-3)
        sock = yield from api_c.socket()
        yield from api_c.connect(sock, ("nsm0", 80))
        yield from api_c.send(sock, PAYLOAD)
        echoed = b""
        while len(echoed) < len(PAYLOAD):
            echoed += yield from api_c.recv(sock, 65536)
        yield from api_c.close(sock)
        done["echoed"] = echoed

    def hostile():
        device = host.coreengine.vm_device(hostile_vm.vm_id)
        rings = device.produce_rings(device.queue_sets[0])
        nqes = hostile_nqes(host, device, hostile_vm)
        yield sim.timeout(push_at)
        for ring, nqe in nqes:
            rings[ring].push(nqe, owner="hostile")
        device.ring_doorbell()

    server_vm.spawn(server())
    client_vm.spawn(client())
    sim.process(hostile())
    sim.run(until=0.5)  # must not raise

    assert done["echoed"] == PAYLOAD
    return host, nsm, hostile_vm, outstanding_before


def test_dangling_send_pointers_are_dropped_and_neighbours_unharmed():
    def nqes(host, device, vm):
        # Raw NQEs into the send ring: a pointer that was never allocated
        # and one to a buffer already freed.
        freed = device.hugepages.alloc(64)
        freed.free()
        return [(1, NQE_POOL.acquire(op, vm.vm_id, 0, 1, data_ptr=data_ptr,
                                     size=64))
                for op, data_ptr in ((NqeOp.SEND, 987_654),
                                     (NqeOp.SENDTO, 987_655),
                                     (NqeOp.SEND, freed.buffer_id))]

    host, nsm, hostile_vm, outstanding_before = _echo_next_to(nqes)
    stats = nsm.servicelib.stats()
    assert stats["vm_bad_data_ptrs"] == {hostile_vm.vm_id: 3}
    assert_census_clean(host, outstanding_before)


def test_unserved_ops_complete_with_einval_and_neighbours_unharmed():
    # Completion and event ops travel NSM -> VM only: pushed into the job
    # ring, they reach ServiceLib, which serves none of them.
    unserved = (NqeOp.OP_RESULT, NqeOp.SEND_RESULT, NqeOp.DATA_ARRIVED)
    waiters = []

    def nqes(host, device, vm):
        out = []
        for op in unserved:
            nqe = NQE_POOL.acquire(op, vm.vm_id, 0, 1)
            # Wait for the completion the way GuestLib's _call does.
            waiters.append(vm.guestlib.sim.event())
            vm.guestlib._pending[nqe.token] = waiters[-1]
            out.append((0, nqe))
        return out

    host, _, _, outstanding_before = _echo_next_to(nqes)
    einval = -RESULT_ERRNO["EINVAL"]
    assert len(waiters) == len(unserved)
    for op, waiter in zip(unserved, waiters):
        response = waiter.value
        assert response.op is NqeOp.OP_RESULT
        assert response.aux["req_op"] is op
        assert response.op_data == einval
        NQE_POOL.release(response)  # the waiter is its final consumer
    assert_census_clean(host, outstanding_before)


def test_malformed_sockopt_aux_completes_with_einval():
    # A guest crafting SETSOCKOPT/GETSOCKOPT NQEs on its own socket with
    # an aux that is not {"option": <str>} used to raise AttributeError
    # or TypeError out of ServiceLib's poller, and so out of sim.run().
    bad_aux = ("SO_RCVBUF", 7, ["option"], {"option": ["SO_RCVBUF"]})
    results = []

    def crafted_sockopts(vm):
        lib = vm.guestlib
        yield lib.sim.timeout(1.5e-3)  # mid-echo
        sock = yield from lib.socket()
        for aux in bad_aux:
            for op in (NqeOp.SETSOCKOPT, NqeOp.GETSOCKOPT):
                response = yield from lib._call(0, sock, op, op_data=1,
                                                aux=aux)
                results.append(response.op_data)
        yield from lib.close(sock)

    def nqes(host, device, vm):
        vm.spawn(crafted_sockopts(vm))
        return []

    host, nsm, hostile_vm, outstanding_before = _echo_next_to(nqes)
    assert results == [-RESULT_ERRNO["EINVAL"]] * (2 * len(bad_aux))
    assert nsm.servicelib.vm_bad_aux == {hostile_vm.vm_id: 2 * len(bad_aux)}
    assert_census_clean(host, outstanding_before)


def _server_listener(host):
    """The srv VM's listening socket's tuple, looked up when called:
    socket ids come from a process-wide counter."""
    server_id = host.vms["srv"].vm_id
    return next(vm_tuple for vm_tuple, ctx
                in host.nsms["nsm0"].servicelib._by_vm_tuple.items()
                if ctx.is_listener and vm_tuple[0] == server_id)


def test_spoofed_vm_id_cannot_close_a_neighbours_listener():
    # The census checks fds from the NSM side only, so it cannot see a
    # listener whose context and entry vanished under a live guest fd.
    spoofed = []

    def nqes(host, device, vm):
        spoofed.append(_server_listener(host))
        yield 0, NQE_POOL.acquire(NqeOp.CLOSE, *spoofed[0])

    host, nsm, _, outstanding_before = _echo_next_to(nqes)
    listener = spoofed[0]
    assert nsm.servicelib._by_vm_tuple[listener].is_listener
    assert host.coreengine.table.lookup_vm(listener) is not None
    assert_census_clean(host, outstanding_before)


def test_spoofed_vm_id_cannot_free_a_neighbours_hugepage_buffer():
    victims = []

    def nqes(host, device, vm):
        server_id = host.vms["srv"].vm_id
        region = host.coreengine.vm_device(server_id).hugepages
        victims.append(region.alloc(64))
        yield 1, NQE_POOL.acquire(NqeOp.SEND, *_server_listener(host),
                                  data_ptr=victims[0].buffer_id, size=64)

    host, nsm, hostile_vm, outstanding_before = _echo_next_to(nqes)
    victim = victims[0]
    assert not victim.freed
    # Stamped with the hostile VM's id, the pointer names no buffer of
    # its own region: its send is dropped and counted against it.
    assert nsm.servicelib.stats()["vm_bad_data_ptrs"] == {
        hostile_vm.vm_id: 1}
    victim.free()
    assert_census_clean(host, outstanding_before)


def _hostile_app(app):
    """An ``_echo_next_to`` argument that runs ``app(guestlib)`` in the
    hostile VM mid-echo instead of pushing raw NQEs."""
    def nqes(host, device, vm):
        def run():
            yield vm.guestlib.sim.timeout(1.5e-3)
            yield from app(vm.guestlib)
        vm.spawn(run())
        return []
    return nqes


def _errno_of(call):
    """The errno name a blocking GuestLib call fails with, or None."""
    try:
        yield from call
    except SocketError as error:
        return error.errno_name
    return None


def test_listen_on_a_datagram_socket_completes_with_einval():
    # A UdpSocket has no local_port: the TCP stack's listen() must not
    # see it.
    errnos = []

    def app(lib):
        sock = yield from lib.socket(sock_type="dgram")
        errnos.append((yield from _errno_of(lib.listen(sock))))
        yield from lib.close(sock)

    host, _, _, outstanding_before = _echo_next_to(_hostile_app(app))
    assert errnos == ["EINVAL"]
    assert_census_clean(host, outstanding_before)


def test_connect_on_a_datagram_socket_completes_with_einval():
    # A UdpSocket has no state: the TCP stack's connect() must not see it.
    errnos = []

    def app(lib):
        sock = yield from lib.socket(sock_type="dgram")
        errnos.append(
            (yield from _errno_of(lib.connect(sock, ("nsm0", 80)))))
        yield from lib.close(sock)

    host, _, _, outstanding_before = _echo_next_to(_hostile_app(app))
    assert errnos == ["EINVAL"]
    assert_census_clean(host, outstanding_before)


def test_recv_credit_naming_a_datagram_socket_is_ignored():
    # A UdpSocket has no recv_buf: a credit must not pump it as a stream.
    def app(lib):
        sock = yield from lib.socket(sock_type="dgram")
        yield from lib._push(sock.home_qset, NQE_POOL.acquire(
            NqeOp.RECV_CREDIT, lib.vm_id, sock.home_qset, sock.sock_id,
            op_data=64 * 1024))
        yield from lib.close(sock)

    host, _, _, outstanding_before = _echo_next_to(_hostile_app(app))
    assert_census_clean(host, outstanding_before)


def test_send_naming_a_datagram_socket_frees_its_payload():
    # A UdpSocket has no state: the TCP stack's send() must not see it,
    # and the payload must still be freed.
    payloads = []

    def app(lib):
        sock = yield from lib.socket(sock_type="dgram")
        payloads.append(lib.hugepages.alloc(64))
        yield from lib._push(sock.home_qset, NQE_POOL.acquire(
            NqeOp.SEND, lib.vm_id, sock.home_qset, sock.sock_id,
            data_ptr=payloads[0].buffer_id, size=64), data=True)
        yield from lib.close(sock)

    host, _, _, outstanding_before = _echo_next_to(_hostile_app(app))
    assert payloads[0].freed
    assert_census_clean(host, outstanding_before)


def test_connect_with_a_malformed_aux_completes_with_einval():
    # aux is guest-written: anything but {"remote": (host, port)} is
    # malformed, including a remote the stack cannot hash or route.
    bad_aux = ("nsm0:80", ["remote"], {"remote": "nsm0:80"})
    results = []

    def app(lib):
        sock = yield from lib.socket()
        for aux in bad_aux:
            response = yield from lib._call(0, sock, NqeOp.CONNECT, aux=aux)
            results.append(response.op_data)
        yield from lib.close(sock)

    host, nsm, hostile_vm, outstanding_before = _echo_next_to(
        _hostile_app(app))
    assert results == [-RESULT_ERRNO["EINVAL"]] * len(bad_aux)
    assert nsm.servicelib.vm_bad_aux == {hostile_vm.vm_id: len(bad_aux)}
    assert_census_clean(host, outstanding_before)


def test_sendto_with_a_malformed_aux_fails_the_send_with_einval():
    # aux is guest-written: a SENDTO without {"dest": (host, port)} fails
    # its send, and the credit still returns the in-flight bytes.
    socks = []

    def app(lib):
        sock = yield from lib.socket(sock_type="dgram")
        socks.append(sock)
        buffer = lib.hugepages.alloc(64)
        buffer.write(bytes(64))
        sock.tx_inflight += 64  # as sendto() does: the credit returns it
        yield from lib._push(sock.home_qset, NQE_POOL.acquire(
            NqeOp.SENDTO, lib.vm_id, sock.home_qset, sock.sock_id,
            data_ptr=buffer.buffer_id, size=64, aux="nsm0:80"), data=True)
        yield lib.sim.timeout(1e-3)
        yield from lib.close(sock)

    host, nsm, hostile_vm, outstanding_before = _echo_next_to(
        _hostile_app(app))
    assert socks[0].errno == "EINVAL"
    assert socks[0].tx_inflight == 0
    assert nsm.servicelib.vm_bad_aux == {hostile_vm.vm_id: 1}
    assert_census_clean(host, outstanding_before)


def test_accept_attach_naming_a_bound_nsm_socket_completes_with_einval():
    # A guest learns NSM socket ids from its own SOCKET results.  An
    # ACCEPT_ATTACH naming one that another tuple already holds used to
    # raise ConnectionTableError out of the switch, and with it out of
    # sim.run().
    crafted, seen = [], []

    def nqes(host, device, vm):
        bound = host.coreengine.table.lookup_vm(_server_listener(host))
        assert bound.complete
        real_dispatch = vm.guestlib._dispatch

        def recording(nqe, qset_index):
            seen.append((nqe.op, nqe.socket_id, nqe.op_data))
            return real_dispatch(nqe, qset_index)

        vm.guestlib._dispatch = recording
        crafted.append((vm.vm_id, 0, 99))
        yield 0, NQE_POOL.acquire(NqeOp.ACCEPT_ATTACH, *crafted[0],
                                  op_data=bound.nsm_socket_id)

    host, _, _, outstanding_before = _echo_next_to(nqes)
    assert host.coreengine.table.lookup_vm(crafted[0]) is None
    assert seen == [(NqeOp.ERROR_EVENT, 99, -RESULT_ERRNO["EINVAL"])]
    assert_census_clean(host, outstanding_before)


def test_accept_attach_before_the_nsm_socket_is_bound_completes_with_einval():
    # NSM socket ids are a guessable counter.  An ACCEPT_ATTACH naming
    # ids nobody holds yet used to bind them to the hostile tuples, so
    # the OP_RESULT announcing one for a neighbour's socket() later
    # collided in the table and raised out of sim.run().  Pushed after
    # the server listens and before the client's socket(), the attaches
    # name the next five ids.
    crafted, seen = [], []

    def nqes(host, device, vm):
        listener = host.coreengine.table.lookup_vm(_server_listener(host))
        assert listener.complete
        real_dispatch = vm.guestlib._dispatch

        def recording(nqe, qset_index):
            seen.append((nqe.op, nqe.socket_id, nqe.op_data))
            return real_dispatch(nqe, qset_index)

        vm.guestlib._dispatch = recording
        for offset in range(1, 6):
            crafted.append((vm.vm_id, 0, 100 + offset))
            yield 0, NQE_POOL.acquire(
                NqeOp.ACCEPT_ATTACH, *crafted[-1],
                op_data=listener.nsm_socket_id + offset)

    host, _, _, outstanding_before = _echo_next_to(nqes, push_at=0.9e-3)
    einval = -RESULT_ERRNO["EINVAL"]
    assert all(host.coreengine.table.lookup_vm(vt) is None
               for vt in crafted)
    assert seen == [(NqeOp.ERROR_EVENT, vt[2], einval) for vt in crafted]
    assert not host.coreengine.accept_offers  # the echo's one was taken
    assert_census_clean(host, outstanding_before)


def test_accept_attach_on_an_open_socket_cannot_take_a_neighbours_connection():
    # The offer check ran only for a tuple new to the table.  An
    # ACCEPT_ATTACH on a socket the guest had opened itself reached
    # ServiceLib, which handed the echo server's accepted connection to
    # that socket: its data and its close were the hostile VM's.
    socks, owners = [], []

    def hijack(host, vm):
        lib = vm.guestlib
        sock = yield from lib.socket()
        socks.append(sock)
        server_id = host.vms["srv"].vm_id
        accepted = []
        while not accepted:  # strike as soon as the server has attached
            yield lib.sim.timeout(10e-6)
            accepted = [entry for entry
                        in host.coreengine.table.entries_for_vm(server_id)
                        if entry.vm_tuple != _server_listener(host)]
        yield from lib._push(sock.home_qset, NQE_POOL.acquire(
            NqeOp.ACCEPT_ATTACH, vm.vm_id, sock.home_qset, sock.sock_id,
            op_data=accepted[0].nsm_socket_id))
        yield lib.sim.timeout(20e-6)
        ctx = host.nsms["nsm0"].servicelib._by_nsm_id.get(
            accepted[0].nsm_socket_id)
        owners.append((accepted[0].vm_tuple, ctx and ctx.vm_tuple))
        yield lib.sim.timeout(1e-3)
        yield from lib.close(sock)

    def nqes(host, device, vm):
        vm.spawn(hijack(host, vm))
        return []

    host, _, _, outstanding_before = _echo_next_to(nqes)
    [(server_tuple, owner)] = owners
    assert owner == server_tuple
    assert socks[0].errno == "EINVAL"
    assert_census_clean(host, outstanding_before)


def test_closing_a_listener_withdraws_its_unattached_accept_offers():
    # An ACCEPT_EVENT the guest drops (its listener is closing, or the
    # event was lost) leaves an offer nobody attaches.  The listener's
    # CLOSE result names the children ServiceLib reaps, and the switch
    # withdraws their offers with them.
    outstanding_before = NQE_POOL.outstanding
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    server_vm = host.add_vm("srv", vcpus=1, nsm=nsm)
    client_vm = host.add_vm("cli", vcpus=1, nsm=nsm)
    api_s, api_c = host.socket_api(server_vm), host.socket_api(client_vm)
    real_dispatch = server_vm.guestlib._dispatch

    def dropping_accepts(nqe, qset_index):
        if nqe.op is NqeOp.ACCEPT_EVENT:
            return False  # the poller releases it
        return real_dispatch(nqe, qset_index)

    server_vm.guestlib._dispatch = dropping_accepts
    offers = []

    def server():
        listener = yield from api_s.socket()
        yield from api_s.bind(listener, 80)
        yield from api_s.listen(listener)
        yield sim.timeout(2e-3)  # both clients are connected by now
        offers.append(len(host.coreengine.accept_offers))
        yield from api_s.close(listener)
        offers.append(len(host.coreengine.accept_offers))

    def client():
        yield sim.timeout(0.5e-3)
        sock = yield from api_c.socket()
        yield from api_c.connect(sock, ("nsm0", 80))
        try:
            yield from api_c.recv(sock, 4096)  # the reap resets it
        except SocketError:
            pass
        yield from api_c.close(sock)

    server_vm.spawn(server())
    client_vm.spawn(client())
    client_vm.spawn(client())
    sim.run(until=0.05)
    assert offers == [2, 0]
    assert_census_clean(host, outstanding_before)


def test_servicelib_refuses_an_attach_to_a_neighbours_child():
    # ServiceLib's own ownership check, driven directly as though the
    # switch's offer check had let the attach through: a hostile VM
    # naming the id of a child accepted on the server's listener gets
    # an EINVAL ERROR_EVENT, and the child stays unattached.
    outstanding_before = NQE_POOL.outstanding
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    lib = nsm.servicelib
    server_vm = host.add_vm("srv", vcpus=1, nsm=nsm)
    client_vm = host.add_vm("cli", vcpus=1, nsm=nsm)
    hostile_vm = host.add_vm("hostile", vcpus=1, nsm=nsm)
    api_s, api_c = host.socket_api(server_vm), host.socket_api(client_vm)
    real_server_dispatch = server_vm.guestlib._dispatch
    real_hostile_dispatch = hostile_vm.guestlib._dispatch
    seen, children = [], []

    def dropping_accepts(nqe, qset_index):
        if nqe.op is NqeOp.ACCEPT_EVENT:
            return False  # the child stays unattached
        return real_server_dispatch(nqe, qset_index)

    def recording(nqe, qset_index):
        seen.append((nqe.op, nqe.socket_id, nqe.op_data))
        return real_hostile_dispatch(nqe, qset_index)

    server_vm.guestlib._dispatch = dropping_accepts
    hostile_vm.guestlib._dispatch = recording

    def server():
        listener = yield from api_s.socket()
        yield from api_s.bind(listener, 80)
        yield from api_s.listen(listener)
        yield sim.timeout(2e-3)  # the client is connected by now
        children.extend(ctx for ctx in lib._by_nsm_id.values()
                        if ctx.listener_ctx is not None)
        attach = NQE_POOL.acquire(NqeOp.ACCEPT_ATTACH, hostile_vm.vm_id,
                                  0, 99, op_data=children[0].nsm_sock_id)
        lib._op_accept_attach(attach, 0)
        NQE_POOL.release(attach)
        yield sim.timeout(1e-3)
        yield from api_s.close(listener)  # reaps the unattached child

    def client():
        yield sim.timeout(0.5e-3)
        sock = yield from api_c.socket()
        yield from api_c.connect(sock, ("nsm0", 80))
        try:
            yield from api_c.recv(sock, 4096)  # the reap resets it
        except SocketError:
            pass
        yield from api_c.close(sock)

    server_vm.spawn(server())
    client_vm.spawn(client())
    sim.run(until=0.05)
    [child] = children
    assert child.vm_tuple is None
    assert lib.vm_bad_attaches == {hostile_vm.vm_id: 1}
    assert seen == [(NqeOp.ERROR_EVENT, 99, -RESULT_ERRNO["EINVAL"])]
    assert_census_clean(host, outstanding_before)
