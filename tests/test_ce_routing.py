"""CoreEngine routing tests with hand-built NQEs (no GuestLib/ServiceLib).

Drives the switch directly: push NQEs into a VM device's produce rings,
run the simulator, and observe which NSM ring they land in — the Fig. 6
switching behaviour in isolation.
"""

import pytest

from repro.core.nqe import Nqe, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.sim import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    engine = ShardedCoreEngine(sim, [Core(sim)], batch_size=4)
    vm_id, vm_dev = engine.register_vm("vm", queue_sets=1)
    nsm_id, nsm_dev = engine.register_nsm("nsm", queue_sets=2)
    engine.assign_vm(vm_id, nsm_id)
    return sim, engine, vm_id, vm_dev, nsm_id, nsm_dev


def push_vm_nqe(vm_dev, nqe, data=False):
    qs = vm_dev.queue_sets[0]
    ring = qs.send if data else qs.job
    ring.push(nqe, owner="guest")
    vm_dev.ring_doorbell()


class TestVmToNsmRouting:
    def test_job_nqe_lands_in_nsm_job_ring(self, setup):
        sim, engine, vm_id, vm_dev, nsm_id, nsm_dev = setup
        nqe = Nqe(NqeOp.SOCKET, vm_id, 0, 42)
        push_vm_nqe(vm_dev, nqe)
        sim.run(until=0.01)
        depths = [len(qs.job) for qs in nsm_dev.queue_sets]
        assert sum(depths) == 1
        assert engine.table.lookup_vm((vm_id, 0, 42)) is not None

    def test_send_nqe_lands_in_nsm_send_ring(self, setup):
        sim, engine, vm_id, vm_dev, nsm_id, nsm_dev = setup
        push_vm_nqe(vm_dev, Nqe(NqeOp.SOCKET, vm_id, 0, 42))
        sim.run(until=0.01)
        push_vm_nqe(vm_dev, Nqe(NqeOp.SEND, vm_id, 0, 42, size=100),
                    data=True)
        sim.run(until=0.02)
        assert sum(len(qs.send) for qs in nsm_dev.queue_sets) == 1
        assert sum(len(qs.job) for qs in nsm_dev.queue_sets) == 1

    def test_same_socket_pins_to_one_nsm_queue_set(self, setup):
        sim, engine, vm_id, vm_dev, nsm_id, nsm_dev = setup
        for _ in range(3):
            push_vm_nqe(vm_dev, Nqe(NqeOp.BIND, vm_id, 0, 7, op_data=80))
        sim.run(until=0.01)
        depths = [qs.inbound_depth() + len(qs.job) + len(qs.send)
                  for qs in nsm_dev.queue_sets]
        non_empty = [d for d in depths if d]
        assert non_empty == [3]  # all three in the same lane

    def test_nqes_switched_counter(self, setup):
        sim, engine, vm_id, vm_dev, *_ = setup
        for index in range(5):
            push_vm_nqe(vm_dev, Nqe(NqeOp.SOCKET, vm_id, 0, 100 + index))
        sim.run(until=0.01)
        assert engine.nqes_switched == 5

    def test_vm_without_nsm_assignment_raises(self):
        from repro.errors import ConfigurationError

        sim = Simulator()
        engine = ShardedCoreEngine(sim, [Core(sim)])
        vm_id, vm_dev = engine.register_vm("lone", queue_sets=1)
        push_vm_nqe(vm_dev, Nqe(NqeOp.SOCKET, vm_id, 0, 1))
        with pytest.raises(ConfigurationError):
            sim.run(until=0.01)


class TestNsmToVmRouting:
    def test_result_completes_table_and_lands_in_completion(self, setup):
        sim, engine, vm_id, vm_dev, nsm_id, nsm_dev = setup
        request = Nqe(NqeOp.SOCKET, vm_id, 0, 42)
        push_vm_nqe(vm_dev, request)
        sim.run(until=0.01)
        # NSM responds with its socket id in op_data (Fig. 6 step 3).
        response = request.response(NqeOp.OP_RESULT, op_data=777)
        target = next(qs for qs in nsm_dev.queue_sets if len(qs.job))
        target.completion.push(response, owner="servicelib")
        nsm_dev.ring_doorbell()
        sim.run(until=0.02)
        entry = engine.table.lookup_vm((vm_id, 0, 42))
        assert entry.nsm_socket_id == 777
        assert engine.table.lookup_nsm(entry.nsm_tuple) is entry
        assert len(vm_dev.queue_sets[0].completion) == 1

    def test_event_lands_in_receive_ring(self, setup):
        sim, engine, vm_id, vm_dev, nsm_id, nsm_dev = setup
        event = Nqe(NqeOp.DATA_ARRIVED, vm_id, 0, 42, size=64)
        nsm_dev.queue_sets[0].receive.push(event, owner="servicelib")
        nsm_dev.ring_doorbell()
        sim.run(until=0.01)
        assert len(vm_dev.queue_sets[0].receive) == 1
        assert len(vm_dev.queue_sets[0].completion) == 0

    def test_close_result_removes_table_entry(self, setup):
        sim, engine, vm_id, vm_dev, nsm_id, nsm_dev = setup
        request = Nqe(NqeOp.SOCKET, vm_id, 0, 42)
        push_vm_nqe(vm_dev, request)
        sim.run(until=0.01)
        close_result = Nqe(NqeOp.OP_RESULT, vm_id, 0, 42, op_data=0,
                           aux={"req_op": NqeOp.CLOSE})
        nsm_dev.queue_sets[0].completion.push(close_result,
                                              owner="servicelib")
        nsm_dev.ring_doorbell()
        sim.run(until=0.02)
        assert engine.table.lookup_vm((vm_id, 0, 42)) is None

    def test_response_for_departed_vm_dropped(self, setup):
        sim, engine, vm_id, vm_dev, nsm_id, nsm_dev = setup
        engine.deregister(vm_id)
        orphan = Nqe(NqeOp.DATA_ARRIVED, vm_id, 0, 42, size=64)
        nsm_dev.queue_sets[0].receive.push(orphan, owner="servicelib")
        nsm_dev.ring_doorbell()
        sim.run(until=0.01)  # must not raise

    def test_backpressure_stalls_until_ring_drains(self, setup):
        sim, engine, vm_id, vm_dev, nsm_id, nsm_dev = setup
        # Fill the VM's receive ring to capacity.
        rx = vm_dev.queue_sets[0].receive
        for index in range(rx.capacity):
            rx.push(Nqe(NqeOp.DATA_ARRIVED, vm_id, 0, 1),
                    owner=engine.shards[0])
        event = Nqe(NqeOp.DATA_ARRIVED, vm_id, 0, 42)
        nsm_dev.queue_sets[0].receive.push(event, owner="servicelib")
        nsm_dev.ring_doorbell()
        sim.run(until=0.001)
        assert rx.full  # the new event is still waiting
        # Drain one slot; CoreEngine must complete the delivery.
        rx.pop(owner="guest-consumer")
        sim.run(until=0.002)
        assert rx.full  # refilled with the stalled event
