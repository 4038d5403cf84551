"""Tests for the discrete-event engine: events, processes, run loop."""

import weakref

import pytest

from repro.core.nqe import Nqe, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.event import Call, Event, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestEvents:
    def test_fresh_event_is_pending(self, sim):
        event = sim.event()
        assert event.pending
        assert not event.triggered

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.processed
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_propagates_exception(self, sim):
        event = sim.event()
        waiters = []
        event.callbacks.append(waiters.append)  # someone is listening
        event.fail(ValueError("boom"))
        sim.run()
        with pytest.raises(ValueError):
            _ = event.value

    def test_unconsumed_failure_raises_at_step(self, sim):
        """A failed event nobody waits on crashes the run loudly."""
        event = sim.event()
        event.fail(ValueError("unheard"))
        with pytest.raises(ValueError, match="unheard"):
            sim.run()

    def test_fail_requires_exception_instance(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_callbacks_run_once(self, sim):
        event = sim.event()
        calls = []
        event.callbacks.append(lambda e: calls.append(1))
        event.succeed()
        sim.run()
        assert calls == [1]


class TestTimeouts:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(1.5)
        sim.run()
        assert sim.now == pytest.approx(1.5)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_timeouts_fire_in_order(self, sim):
        order = []
        sim.call_later(2.0, lambda: order.append("b"))
        sim.call_later(1.0, lambda: order.append("a"))
        sim.call_later(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        order = []
        sim.call_later(1.0, lambda: order.append("first"))
        sim.call_later(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_call_at_in_past_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.timeout(1.0)
        sim.run(until=10.0)
        assert sim.now == pytest.approx(10.0)

    def test_run_until_leaves_future_events(self, sim):
        fired = []
        sim.call_later(5.0, lambda: fired.append(1))
        sim.run(until=2.0)
        assert not fired
        sim.run()
        assert fired == [1]


class TestProcesses:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(proc())
        value = sim.run_until_event(process)
        assert value == "done"
        assert sim.now == pytest.approx(1.0)

    def test_process_waits_on_event(self, sim):
        event = sim.event()
        results = []

        def waiter():
            value = yield event
            results.append(value)

        sim.process(waiter())
        sim.call_later(2.0, lambda: event.succeed("payload"))
        sim.run()
        assert results == ["payload"]

    def test_process_chains_on_other_process(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 10

        def outer():
            value = yield sim.process(inner())
            return value + 1

        process = sim.process(outer())
        assert sim.run_until_event(process) == 11

    def test_exception_in_event_reraised_in_process(self, sim):
        event = sim.event()
        caught = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.call_later(1.0, lambda: event.fail(RuntimeError("bad")))
        sim.run()
        assert caught == ["bad"]

    def test_process_failure_propagates_to_waiter(self, sim):
        def failing():
            yield sim.timeout(0.1)
            raise KeyError("inner")

        process = sim.process(failing())
        with pytest.raises(KeyError):
            sim.run_until_event(process)

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield 42

        process = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run_until_event(process)

    def test_waiting_on_already_processed_event(self, sim):
        event = sim.event()
        event.succeed("early")
        sim.run()

        def late_waiter():
            value = yield event
            return value

        process = sim.process(late_waiter())
        assert sim.run_until_event(process) == "early"

    def test_deadlock_detected(self, sim):
        event = sim.event()  # never triggered

        def stuck():
            yield event

        process = sim.process(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_event(process)


class TestConditions:
    def test_any_of_fires_on_first(self, sim):
        e1, e2 = sim.event(), sim.event()
        condition = sim.any_of([e1, e2])
        sim.call_later(1.0, lambda: e1.succeed("one"))
        sim.call_later(5.0, lambda: e2.succeed("two"))
        sim.run_until_event(condition, limit=2.0)
        assert sim.now == pytest.approx(1.0)

    def test_all_of_waits_for_every_event(self, sim):
        e1, e2 = sim.event(), sim.event()
        condition = sim.all_of([e1, e2])
        sim.call_later(1.0, lambda: e1.succeed())
        sim.call_later(3.0, lambda: e2.succeed())
        sim.run_until_event(condition)
        assert sim.now == pytest.approx(3.0)

    def test_empty_condition_fires_immediately(self, sim):
        condition = sim.all_of([])
        sim.run()
        assert condition.processed

    def test_any_of_with_pre_triggered_event(self, sim):
        e1 = sim.event()
        e1.succeed("x")
        condition = sim.any_of([e1, sim.event()])
        sim.run()
        assert condition.triggered


class TestConditionTimeoutRegression:
    """AnyOf/AllOf with Timeout members: a timeout is armed at creation
    but must only satisfy a condition at its due time (the epoll_wait
    spin found during development)."""

    def test_any_of_with_timeout_waits_for_due_time(self, sim):
        event = sim.event()
        condition = sim.any_of([event, sim.timeout(2.0)])
        sim.run()
        assert condition.processed
        assert sim.now == pytest.approx(2.0)

    def test_any_of_event_beats_timeout(self, sim):
        event = sim.event()
        condition = sim.any_of([event, sim.timeout(5.0)])
        sim.call_later(1.0, lambda: event.succeed("won"))
        sim.run_until_event(condition)
        assert sim.now == pytest.approx(1.0)

    def test_all_of_with_timeout(self, sim):
        event = sim.event()
        condition = sim.all_of([event, sim.timeout(1.0)])
        sim.call_later(3.0, lambda: event.succeed())
        sim.run_until_event(condition)
        assert sim.now == pytest.approx(3.0)

    def test_process_waiting_on_any_of_timeout(self, sim):
        log = []

        def waiter():
            yield sim.any_of([sim.event(), sim.timeout(0.5)])
            log.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert log == [pytest.approx(0.5)]


class TestCallbackTimeouts:
    """call_at/call_later/call_due return a Timeout that runs its callable."""

    @staticmethod
    def _schedule(sim, how, when, fn):
        if how == "call_at":
            return sim.call_at(when, fn)
        return sim.call_later(when - sim.now, fn)

    @pytest.mark.parametrize("how", ["call_at", "call_later"])
    def test_fn_runs_before_later_callbacks(self, sim, how):
        order = []
        call = self._schedule(sim, how, 1.0, lambda: order.append("fn"))
        assert isinstance(call, Timeout) and isinstance(call, Call)
        call.callbacks.append(lambda event: order.append("callback"))

        def waiter():
            yield call
            order.append("process")

        sim.process(waiter())
        sim.run()
        assert order == ["fn", "callback", "process"]
        assert call.processed and sim.now == 1.0

    @pytest.mark.parametrize("how", ["call_at", "call_later"])
    def test_cancel_drops_the_callable(self, sim, how):
        class Payload:
            pass

        def schedule():
            payload = Payload()
            return (weakref.ref(payload),
                    self._schedule(sim, how, 5.0, lambda: payload))

        ref, call = schedule()
        sim.run(until=1.0)
        assert ref() is not None
        call.cancel()
        assert ref() is None  # freed before the 5.0 due time
        sim.run()
        assert sim.now == 5.0
        assert (sim.events_processed, sim.events_cancelled) == (0, 1)

    def test_cancelled_and_fired_calls_are_counted(self, sim):
        fired = []
        sim.call_later(1.0, lambda: fired.append(sim.now))
        cancelled = sim.call_at(2.0, lambda: fired.append("never"))
        sim.call_at(3.0, lambda: fired.append(sim.now))
        sim.timeout(4.0)
        cancelled.cancel()
        sim.run()
        assert fired == [1.0, 3.0]
        assert sim.now == 4.0
        assert sim.events_processed == 3
        assert sim.events_cancelled == 1

    def test_calls_and_events_share_insertion_order(self, sim):
        order = []
        sim.call_at(0.0, lambda: order.append("call_at"))
        sim.timeout(0.0).callbacks.append(
            lambda event: order.append("timeout"))
        sim.call_later(0.0, lambda: order.append("call_later"))
        event = sim.event()
        event.callbacks.append(lambda event: order.append("event"))
        event.succeed()
        sim.run()
        assert order == ["call_at", "timeout", "call_later", "event"]

    def test_call_due_fires_at_exactly_when(self, sim):
        # 0.177 + (0.761 - 0.177) is 0.7610000000000001: call_at keeps
        # that float sum, call_due keys the heap on ``when`` itself.
        fired = []
        sim.run(until=0.177)
        sim.call_at(0.761, lambda: fired.append(("call_at", sim.now)))
        sim.call_due(0.761, lambda: fired.append(("call_due", sim.now)))
        sim.run()
        assert fired == [("call_due", 0.761),
                         ("call_at", 0.7610000000000001)]

    def test_call_due_in_the_past_rejected(self, sim):
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.call_due(0.5, lambda: None)


class TestAllocationFreeWaits:
    """A yielded delay and a parked process's waker take the heap slots a
    Timeout and an Event would: same ``(when, seq)`` keys, same order."""

    @staticmethod
    def _timeline(sleep, park):
        """(wakeup log, final seq, events processed) of a script whose
        processes sleep with ``sleep(sim, delay)`` and park with
        ``park(process)``, interleaved with same-instant calls, a failed
        event caught inside a generator, and a doorbell."""
        sim = Simulator()
        log = []
        failing = sim.event()
        parked = {}

        def sleeper(name, delays):
            for delay in delays:
                yield sleep(sim, delay)
                log.append((name, sim.now))

        def thrower():
            try:
                yield failing
            except RuntimeError:
                log.append(("caught", sim.now))
            # The first wait after a throw goes through _throw/_wait.
            yield sleep(sim, 0.25)
            log.append(("thrower", sim.now))

        def doorbell_sleeper():
            waiter, parked["wake"] = park(parked["process"])
            yield waiter
            log.append(("parked", sim.now))
            yield sleep(sim, 0.0)
            log.append(("parked", sim.now))

        sim.process(sleeper("a", [0.25, 0.25, 0.0]))
        sim.call_at(0.25, lambda: log.append(("call", sim.now)))
        sim.process(sleeper("b", [0.5, 0.0]))
        sim.process(thrower())
        parked["process"] = sim.process(doorbell_sleeper())
        sim.call_later(0.25, lambda: failing.fail(RuntimeError("x")))
        sim.call_at(0.5, lambda: log.append(("call", sim.now)))
        sim.call_at(0.5, lambda: parked["wake"]())
        sim.run()
        return log, sim._seq, sim.events_processed

    def test_delays_and_waker_take_the_timeout_and_event_slots(self):
        def event_park(process):
            event = Event(process.sim)
            return event, event.succeed

        def waker_park(process):
            return process.waker, process.waker.succeed

        allocating = self._timeline(lambda sim, delay: sim.timeout(delay),
                                    event_park)
        allocation_free = self._timeline(lambda sim, delay: delay,
                                         waker_park)
        assert allocation_free == allocating
        log = allocation_free[0]
        assert log == [("call", 0.25), ("a", 0.25), ("caught", 0.25),
                       ("call", 0.5), ("b", 0.5), ("a", 0.5),
                       ("thrower", 0.5), ("parked", 0.5), ("b", 0.5),
                       ("a", 0.5), ("parked", 0.5)]

    @pytest.mark.parametrize("delay", [-1e-9, float("nan")])
    def test_negative_delay_fails_the_process(self, sim, delay):
        def bad():
            yield delay

        process = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run_until_event(process)

    def test_negative_delay_after_a_throw_fails_the_process(self, sim):
        failing = sim.event()

        def bad():
            try:
                yield failing
            except RuntimeError:
                pass
            yield -1.0

        process = sim.process(bad())
        failing.fail(RuntimeError("x"))
        with pytest.raises(SimulationError):
            sim.run_until_event(process)

    def test_doorbell_wakes_a_switch_in_its_rate_stall_sleep(self, sim):
        # The stall path still races an Event doorbell against the token
        # refill: a kick 2 ms into a ~10 ms stall wakes the switch then.
        engine = ShardedCoreEngine(sim, [Core(sim, name="ce")], batch_size=4)
        nsm_id, _ = engine.register_nsm("nsm0", queue_sets=1)
        limited_id, limited = engine.register_vm("limited", queue_sets=1)
        other_id, other = engine.register_vm("other", queue_sets=1)
        engine.assign_vm(limited_id, nsm_id)
        engine.assign_vm(other_id, nsm_id)
        engine.set_ops_limit(limited_id, 100.0)  # burst 1, refill 10 ms
        ring, _ = limited.produce_rings(limited.queue_sets[0])
        for _ in range(2):
            ring.push(Nqe(NqeOp.SETSOCKOPT, limited_id, 0, 1), owner="guest")
        limited.ring_doorbell()
        shard = engine.shards[0]
        sim.run(until=0.002)
        assert engine.nqes_switched == 1
        assert shard.rate_limited_stalls == 1
        assert shard._doorbell_waiter is not None
        assert shard._doorbell_waiter is not shard._process.waker
        other_ring, _ = other.produce_rings(other.queue_sets[0])
        other_ring.push(Nqe(NqeOp.SETSOCKOPT, other_id, 0, 1), owner="guest")
        other.ring_doorbell()
        sim.run(until=0.0021)
        assert engine.nqes_switched == 2  # woken long before the refill
        assert shard.stale_wakeups == 1
