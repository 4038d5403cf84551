"""Tests for the NK device: ring direction, wake accounting, draining,
when its consumer's pollers start and when it builds its lanes."""

import gc
import types

import pytest

from repro.core.guestlib import GuestLib
from repro.core.host import NetKernelHost
from repro.core.nk_device import NKDevice, ROLE_NSM, ROLE_VM
from repro.core.nqe import Nqe, NqeOp
from repro.core.queues import QueueSet
from repro.errors import ConfigurationError
from repro.experiments.ablations import polling_wakeups
from repro.mem.hugepages import HugepageRegion
from repro.mem.ring import SpscRing
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
        # The doorbell kicks the home shard of the device's registration.
        device = make_device(sim)
        rings = []
        device.ce_registration = types.SimpleNamespace(
            engine=types.SimpleNamespace(kick=rings.append))
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


    def test_pending_flags(self, sim):
        device = make_device(sim, ROLE_VM, queue_sets=1)
        qs = device.queue_sets[0]
        assert not device.produce_pending()
        qs.receive.push(Nqe(NqeOp.DATA_ARRIVED, 1, 0, 1))
        assert not device.produce_pending()  # a consume ring
        qs.send.push(Nqe(NqeOp.SEND, 1, 0, 1))
        assert device.produce_pending()


class TestWakeAccountingPinned:
    """The §4.6 ablation's exact (polled, interrupt) wakeups of the
    client VM: how the consumer's poll window is opened and closed
    decides every count, so a change to when pollers park shows here."""

    @pytest.mark.parametrize("window, expected", [
        (0.0, (0, 103)),
        (20e-6, (1, 102)),
        (200e-6, (102, 1)),
    ])
    def test_polling_ablation_counts(self, window, expected):
        assert polling_wakeups(window) == expected


def _guest_pollers(guestlib):
    """GuestLib poller generators alive for ``guestlib``."""
    code = GuestLib.poller.__code__
    return [obj for obj in gc.get_objects()
            if isinstance(obj, types.GeneratorType) and obj.gi_code is code
            and obj.gi_frame is not None
            and obj.gi_frame.f_locals.get("self") is guestlib]


def _host(vcpus=1, name="vm0"):
    sim = Simulator()
    host = NetKernelHost(sim)
    nsm = host.add_nsm("nsm0", vcpus=vcpus, stack="kernel")
    vm = host.add_vm(name, vcpus=vcpus, nsm=nsm)
    return sim, host, vm


def _lane_objects(owner_id):
    """Live QueueSets and SpscRings built for device ``owner_id``.  Give
    the device a name no other test uses: a collection frees only the
    garbage of earlier tests, not what they still hold."""
    prefix = f"{owner_id}.qs"
    gc.collect()
    return [obj for obj in gc.get_objects()
            if (isinstance(obj, QueueSet) and obj.owner_id == owner_id)
            or (isinstance(obj, SpscRing) and obj.name.startswith(prefix))]


class TestPollersStartOnFirstWake:
    """A consumer's pollers start on its device's first wake, not at
    boot, without moving any simulated timestamp."""

    def test_idle_vm_owns_no_poller_process(self):
        sim, host, vm = _host(vcpus=1)
        sim.run(until=1e-3)
        assert _guest_pollers(vm.guestlib) == []
        device = host.coreengine.vm_device(vm.vm_id)
        assert device._consumer is vm.guestlib
        assert device._wake_event is None

    def test_two_lane_first_wake_starts_both_pollers(self):
        sim, host, vm = _host(vcpus=2, name="two-lanes")
        device = host.coreengine.vm_device(vm.vm_id)
        api = host.socket_api(vm)
        done, built = [], []

        def app():
            yield sim.timeout(1e-3)
            built.append(len(device.built_queue_sets))
            yield from api.socket(0)
            built.append(len(device.built_queue_sets))
            done.append(sim.now)
            # Lane 1's completion is drained by lane 1's poller.
            sock = yield from api.socket(1)
            done.append(sim.now)
            yield from api.bind(sock, 80, vcpu=1)
            done.append(sim.now)

        vm.spawn(app())
        sim.run(until=1e-3)
        assert _guest_pollers(vm.guestlib) == []
        sim.run()
        assert len(_guest_pollers(vm.guestlib)) == 2
        # The first socket op builds both lanes: a QueueSet and four rings
        # each.
        assert built == [0, 2]
        assert len(_lane_objects(device.owner_id)) == 2 * 5
        # The completion times of pollers and lanes started at boot.
        assert done == [0.0010004630434782605, 0.001000926086956521,
                        0.0010013891304347816]


class TestLanesBuildOnFirstUse:
    """A device builds its lanes on the first read of ``queue_sets``;
    walkers that only read ring state leave an idle device's unbuilt."""

    def test_idle_vm_device_builds_no_lane(self):
        sim, host, vm = _host(name="idle-lanes")
        sim.run(until=1e-3)
        device = host.coreengine.vm_device(vm.vm_id)
        assert device.built_queue_sets == ()
        assert "queue_sets" not in vars(device)
        assert _lane_objects(device.owner_id) == []

    def test_first_read_builds_each_lane_once(self, sim):
        device = make_device(sim, queue_sets=2)
        lanes = device.queue_sets
        assert [qs.index for qs in lanes] == [0, 1]
        assert device.queue_sets is lanes
        assert device.built_queue_sets is lanes
        assert lanes[0].job.capacity == device.ring_slots

    def test_governor_samples_over_idle_vms_build_no_lane(self):
        sim = Simulator()
        host = NetKernelHost(sim)
        host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vms = [host.add_vm(f"vm{i}") for i in range(300)]
        governor = host.coreengine.enable_overload_control()
        sim.run(until=1e-3)
        assert governor.samples >= 4
        engine = host.coreengine
        assert all(engine.vm_device(vm.vm_id).built_queue_sets == ()
                   for vm in vms)

    def test_obs_report_and_teardown_build_no_lane(self):
        sim, host, vm = _host()
        obs = host.enable_observability()
        sim.run(until=1e-3)
        device = host.coreengine.vm_device(vm.vm_id)
        rings = obs.report()["rings"]
        assert rings["vm0.qs0.job"] == {"depth": 0, "peak_depth": 0}
        assert len([r for r in rings if r.startswith("vm0.")]) == 4
        host.remove_vm(vm)
        assert device.built_queue_sets == ()
