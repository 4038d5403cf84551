"""A hostile guest's NQEs must not take down the host or its neighbours.

A VM controls every field of the NQEs it produces.  A SEND or SENDTO
whose ``data_ptr`` names no live buffer in the VM's hugepage region is
dropped by ServiceLib and counted against that VM; an op ServiceLib
does not serve, and a SETSOCKOPT/GETSOCKOPT with a malformed ``aux``,
complete with EINVAL.  None may raise out of the NSM's poller (and with
it out of ``sim.run()``), which would stop every tenant that NSM
serves."""

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL, RESULT_ERRNO, NqeOp
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec
from tests.census import assert_census_clean

PAYLOAD = bytes(range(256)) * 16


def _echo_next_to(hostile_nqes):
    """Run a 4 KiB echo between two well-behaved VMs while a third pushes
    ``hostile_nqes(device, vm)`` — (ring index, NQE) pairs — straight
    into its own produce rings mid-echo.  Returns the host, the NSM, the
    hostile VM and the NQE pool's outstanding count before the run."""
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
        nqes = hostile_nqes(device, hostile_vm)
        yield sim.timeout(1.5e-3)  # mid-echo
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
    def nqes(device, vm):
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

    def nqes(device, vm):
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

    def nqes(device, vm):
        vm.spawn(crafted_sockopts(vm))
        return []

    host, nsm, hostile_vm, outstanding_before = _echo_next_to(nqes)
    assert results == [-RESULT_ERRNO["EINVAL"]] * (2 * len(bad_aux))
    assert nsm.servicelib.vm_bad_aux == {hostile_vm.vm_id: 2 * len(bad_aux)}
    assert_census_clean(host, outstanding_before)
