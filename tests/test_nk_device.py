"""Tests for the NK device: ring direction, wake accounting, draining."""

import pytest

from repro.core.nk_device import NKDevice, ROLE_NSM, ROLE_VM
from repro.core.nqe import Nqe, NqeOp
from repro.errors import ConfigurationError
from repro.mem.hugepages import HugepageRegion
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_device(sim, role=ROLE_VM, queue_sets=2, poll_window=20e-6):
    return NKDevice(sim, "dev", role, queue_sets,
                    HugepageRegion(page_count=1),
                    poll_window_sec=poll_window)


class TestRingDirection:
    def test_vm_role_produces_job_and_send(self, sim):
        device = make_device(sim, ROLE_VM)
        qs = device.queue_sets[0]
        control, data = device.produce_rings(qs)
        assert control is qs.job and data is qs.send
        control, data = device.consume_rings(qs)
        assert control is qs.completion and data is qs.receive

    def test_nsm_role_is_mirror_image(self, sim):
        device = make_device(sim, ROLE_NSM)
        qs = device.queue_sets[0]
        control, data = device.produce_rings(qs)
        assert control is qs.completion and data is qs.receive
        control, data = device.consume_rings(qs)
        assert control is qs.job and data is qs.send

    def test_unknown_role_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            NKDevice(sim, "x", "weird", 1, HugepageRegion(page_count=1))

    def test_queue_set_for_vcpu_wraps(self, sim):
        device = make_device(sim, queue_sets=2)
        assert device.queue_set_for(0) is device.queue_sets[0]
        assert device.queue_set_for(3) is device.queue_sets[1]


class TestNotification:
    def test_doorbell_callback(self, sim):
        device = make_device(sim)
        rings = []
        device.doorbell = lambda dev: rings.append(dev)
        device.ring_doorbell()
        assert rings == [device]  # the doorbell identifies the kicker

    def test_doorbell_without_handler_is_noop(self, sim):
        make_device(sim).ring_doorbell()  # must not raise

    def test_wake_within_poll_window_counts_polled(self, sim):
        device = make_device(sim, poll_window=1.0)
        device.wait_for_inbound()
        sim.timeout(0.5)
        sim.run()
        device.wake()
        assert device.wakeups_polled == 1
        assert device.wakeups_interrupt == 0

    def test_wake_after_window_counts_interrupt(self, sim):
        device = make_device(sim, poll_window=1e-6)
        device.wait_for_inbound()
        sim.timeout(0.5)
        sim.run()
        device.wake()
        assert device.wakeups_interrupt == 1

    def test_wake_triggers_waiters(self, sim):
        device = make_device(sim)
        event = device.wait_for_inbound()
        event.callbacks.append(lambda _e: None)  # a parked consumer
        device.wake()
        assert event.triggered

    def test_wake_rearms_event(self, sim):
        device = make_device(sim)
        first = device.wait_for_inbound()
        first.callbacks.append(lambda _e: None)
        device.wake()
        second = device.wait_for_inbound()
        assert second is not first
        assert not second.triggered

    def test_wake_without_waiters_is_a_noop(self, sim):
        # No consumer parked on the event: wake must not queue a ghost
        # event (per-NQE wakes during a batched delivery would otherwise
        # flood the event loop) and must keep the same event armed.
        device = make_device(sim)
        event = device.wait_for_inbound()
        before = sim.events_processed
        device.wake()
        device.wake()
        assert not event.triggered
        assert device.wait_for_inbound() is event
        sim.run()
        assert sim.events_processed == before


class TestDraining:
    def test_drain_consume_respects_role(self, sim):
        device = make_device(sim, ROLE_VM)
        qs = device.queue_sets[0]
        qs.completion.push(Nqe(NqeOp.OP_RESULT, 1, 0, 1))
        qs.receive.push(Nqe(NqeOp.DATA_ARRIVED, 1, 0, 1))
        qs.job.push(Nqe(NqeOp.SOCKET, 1, 0, 1))  # produce side: untouched
        batch = device.drain_consume(10, consumer="me")
        assert len(batch) == 2
        assert len(qs.job) == 1

    def test_drain_limit(self, sim):
        device = make_device(sim, ROLE_VM, queue_sets=1)
        qs = device.queue_sets[0]
        for _ in range(5):
            qs.completion.push(Nqe(NqeOp.OP_RESULT, 1, 0, 1))
        assert len(device.drain_consume(3, consumer="me")) == 3

    def test_pending_flags(self, sim):
        device = make_device(sim, ROLE_VM, queue_sets=1)
        qs = device.queue_sets[0]
        assert not device.consume_pending()
        assert not device.produce_pending()
        qs.receive.push(Nqe(NqeOp.DATA_ARRIVED, 1, 0, 1))
        assert device.consume_pending()
        qs.send.push(Nqe(NqeOp.SEND, 1, 0, 1))
        assert device.produce_pending()

    def test_stats_include_wakeups(self, sim):
        device = make_device(sim)
        stats = device.stats()
        assert "wakeups_polled" in stats
        assert "wakeups_interrupt" in stats


class TestHotAddedLaneSizing:
    """A hot-added lane takes the device's ring size, not the default."""

    def test_add_queue_set_uses_device_ring_size(self, sim):
        device = NKDevice(sim, "dev", ROLE_VM, 1,
                          HugepageRegion(page_count=1), ring_slots=128)
        qs = device.add_queue_set()
        assert [r.capacity for r in (qs.job, qs.send, qs.completion,
                                     qs.receive)] == [128] * 4

    @pytest.mark.parametrize("shards", [1, 2])
    def test_host_add_vcpu_lane_matches_engine_ring_size(self, sim, shards):
        from repro.core.host import NetKernelHost

        host = NetKernelHost(sim, ce_shards=shards)
        host.coreengine.ring_slots = 128
        host.add_nsm("nsm0", vcpus=1)
        vm = host.add_vm("vm0")
        lane = host.add_vcpu(vm)
        device = host.coreengine.vm_device(vm.vm_id)
        assert lane == 1 and len(device.queue_sets) == 2
        assert {ring.capacity for qs in device.queue_sets
                for ring in (qs.job, qs.send, qs.completion,
                             qs.receive)} == {128}
