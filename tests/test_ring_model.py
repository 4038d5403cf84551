"""SpscRing against a reference model: lazily grown slabs change nothing.

The ring's slot array starts small and doubles on demand (never past
``capacity``, never shrinking).  That must be invisible: driven through
the same seeded random op sequences as a bounded ``collections.deque``
reference, the ring returns the same items and keeps the same counters,
and its slab grows exactly when a push finds it full — the only moment a
fixed ``capacity``-slot ring would have used a slot the slab lacks.
"""

import random
from collections import deque

import pytest

from repro.core.nqe import NQE_POOL, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.errors import RingEmptyError, RingFullError
from repro.mem.ring import INITIAL_SLAB_SLOTS, SpscRing
from repro.sim import Simulator
from tests.goldens import digest


class DequeRing:
    """The reference: a bounded FIFO with the ring's counter semantics."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = deque()
        self.produced = self.consumed = self.full_rejections = 0
        self.peak_depth = self.hwm_depth = self.list_allocs = 0
        #: The slab length a lazily grown ring must have: doubled (capped
        #: at capacity) exactly when a push finds depth == slab length.
        self.slab = min(capacity, INITIAL_SLAB_SLOTS)
        self.slab_grows = 0

    def _push_one(self, item):
        if len(self.items) == self.slab:
            self.slab = min(self.slab * 2, self.capacity)
            self.slab_grows += 1
        self.items.append(item)
        self.produced += 1
        depth = len(self.items)
        self.peak_depth = max(self.peak_depth, depth)
        self.hwm_depth = max(self.hwm_depth, depth)

    def try_push(self, item):
        if len(self.items) == self.capacity:
            self.full_rejections += 1
            return False
        self._push_one(item)
        return True

    def push_batch(self, items, count):
        n = len(items) if count is None else count
        free = self.capacity - len(self.items)
        if n > free:
            self.full_rejections += 1
            n = free
        for i in range(max(n, 0)):
            self._push_one(items[i])
        return max(n, 0)

    def pop_many(self, max_items):
        take = min(max_items, len(self.items))
        self.consumed += take
        return [self.items.popleft() for _ in range(take)]

    def take_hwm(self):
        hwm = self.hwm_depth
        self.hwm_depth = len(self.items)
        return hwm


COUNTERS = ("produced", "consumed", "full_rejections", "peak_depth",
            "hwm_depth", "list_allocs", "slab_grows")


def _check_state(ring, model, prev_slab):
    assert len(ring) == len(model.items)
    assert ring.full == (len(model.items) == model.capacity)
    for name in COUNTERS:
        assert getattr(ring, name) == getattr(model, name), name
    size = len(ring._slots)
    assert size == model.slab
    assert prev_slab <= size <= ring.capacity  # never shrinks or overshoots
    # Slots outside head..tail hold no references.
    live = {(ring._head + i) % size for i in range(len(ring))}
    assert all(ring._slots[i] is None for i in range(size) if i not in live)
    return size


def _run_ops(seed, capacity, steps=600):
    rnd = random.Random(seed)
    ring = SpscRing(capacity, name=f"model{seed}")
    model = DequeRing(capacity)
    scratch = []
    next_item = iter(range(1, 10**9))
    slab = len(ring._slots)
    # Bias toward pushes early so rings reach (and stay near) capacity.
    for step in range(steps):
        push_bias = 0.65 if step < steps // 2 else 0.45
        op = rnd.random()
        if op < push_bias:
            kind = rnd.choice(("push", "try_push", "push_batch"))
            if kind == "push":
                item = next(next_item)
                expect = model.try_push(item)
                if expect:
                    ring.push(item, owner="p")
                else:
                    with pytest.raises(RingFullError):
                        ring.push(item, owner="p")
            elif kind == "try_push":
                item = next(next_item)
                assert ring.try_push(item, owner="p") == model.try_push(item)
            else:
                items = [next(next_item) for _ in range(rnd.randint(0, 12))]
                count = None
                if items and rnd.random() < 0.5:
                    count = rnd.randint(0, len(items))
                    items.append("stale")  # past the valid prefix
                assert (ring.push_batch(items, owner="p", count=count)
                        == model.push_batch(items, count))
        else:
            kind = rnd.choice(("try_pop", "pop", "pop_batch", "drain_into",
                               "peek", "snapshot", "take_hwm"))
            if kind == "try_pop":
                expect = model.pop_many(1)
                assert ring.try_pop(owner="c") == (expect[0] if expect
                                                   else None)
            elif kind == "pop":
                if model.items:
                    assert ring.pop(owner="c") == model.pop_many(1)[0]
                else:
                    with pytest.raises(RingEmptyError):
                        ring.pop(owner="c")
            elif kind == "pop_batch":
                k = rnd.randint(0, 10)
                if k and model.items:
                    model.list_allocs += 1
                assert ring.pop_batch(k, owner="c") == model.pop_many(k)
            elif kind == "drain_into":
                start = rnd.randint(0, 3)
                while len(scratch) < start:
                    scratch.append("prefix")
                prefix = scratch[:start]
                k = rnd.randint(0, 10)
                n = ring.drain_into(scratch, k, owner="c", start=start)
                assert scratch[:start] == prefix
                assert scratch[start:start + n] == model.pop_many(k)
            elif kind == "peek":
                head = model.items[0] if model.items else None
                assert ring.peek(owner="c") == head
            elif kind == "snapshot":
                assert ring.snapshot() == list(model.items)
            else:
                assert ring.take_hwm() == model.take_hwm()
        slab = _check_state(ring, model, slab)
    return ring


class TestRingMatchesDequeModel:
    @pytest.mark.parametrize("capacity", [1, 3, 8, 13, 64, 100])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_op_sequences(self, seed, capacity):
        ring = _run_ops(seed * 1000 + capacity, capacity)
        assert len(ring._slots) <= capacity

    def test_sequences_reach_capacity_and_grow(self):
        # The sequences above are only a proof if they exercise growth
        # all the way to capacity, with wrapped cursors in between.
        ring = _run_ops(7, 100, steps=2000)
        assert ring.slab_grows == 4  # 8 -> 16 -> 32 -> 64 -> 100
        assert len(ring._slots) == 100
        assert ring.peak_depth == 100 and ring.full_rejections > 0


class TestSlabGrowth:
    def test_fresh_ring_holds_a_small_slab(self):
        assert len(SpscRing(4096)._slots) == INITIAL_SLAB_SLOTS
        assert len(SpscRing(3)._slots) == 3

    def test_growth_relinearizes_a_wrapped_slab(self):
        ring = SpscRing(64)
        for i in range(5):  # move head/tail 5 slots in
            ring.push(("pre", i))
            ring.pop()
        for i in range(8):  # fills the 8-slot slab, wrapping the tail
            ring.push(i)
        assert ring._tail == ring._head == 5 and ring.slab_grows == 0
        ring.push(8)  # finds the slab full: doubles it first
        assert ring.slab_grows == 1 and len(ring._slots) == 16
        assert ring._head == 0 and ring._tail == 9
        assert ring._slots[:9] == list(range(9))
        assert ring.snapshot() == list(range(9))

    def test_growth_keeps_the_slab_list_object(self):
        ring = SpscRing(32)
        slots = ring._slots
        ring.push_batch(list(range(20)))
        assert ring._slots is slots and len(slots) == 32
        assert ring.slab_grows == 2

    def test_steady_state_after_warm_up_never_grows(self):
        ring = SpscRing(4096)
        buf = []
        for _ in range(3):
            ring.push_batch(list(range(40)))
            ring.drain_into(buf, 64)
        grows, size = ring.slab_grows, len(ring._slots)
        for _ in range(50):
            ring.push_batch(list(range(40)))
            ring.drain_into(buf, 64)
        assert (ring.slab_grows, len(ring._slots)) == (grows, size) == (3, 64)


def _burst_workload():
    """Bursts larger than a fresh slab through a CoreEngine, then a long
    trickle of single NQEs.

    The NSM responder and the VM drainers sleep between drains, so the
    CE's inlined push (``_deliver_fast``) finds fresh 8-slot job and
    completion rings full and grows them.  The trickle then cycles every
    grown ring's cursors past the slab end one NQE at a time, through the
    CE's inlined single-element drain.
    """
    sim = Simulator()
    core = Core(sim, name="ce")
    engine = ShardedCoreEngine(sim, [core], batch_size=8, ring_slots=256)
    nsm_id, nsm_dev = engine.register_nsm("nsm0", queue_sets=1)
    vms = []
    for i in range(2):
        vm_id, vm_dev = engine.register_vm(f"vm{i}", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)
        vms.append((vm_id, vm_dev))
    received = {vm_id: [] for vm_id, _ in vms}

    def responder():
        owner = object()
        scratch = []
        qs = nsm_dev.queue_sets[0]
        completion, _ = nsm_dev.produce_rings(qs)
        job, _ = nsm_dev.consume_rings(qs)
        while True:
            n = job.drain_into(scratch, 64, owner=owner)
            if not n:
                yield nsm_dev.wait_for_inbound()
                yield sim.timeout(30e-6)  # let a burst pile up
                continue
            for i in range(n):
                nqe = scratch[i]
                scratch[i] = None
                completion.push(nqe.response(NqeOp.OP_RESULT,
                                             data_ptr=nqe.data_ptr),
                                owner=owner)
                NQE_POOL.release(nqe)
            nsm_dev.ring_doorbell()

    def drainer(vm_id, vm_dev):
        owner = object()
        scratch = []
        completion, _ = vm_dev.consume_rings(vm_dev.queue_sets[0])
        while True:
            n = completion.drain_into(scratch, 64, owner=owner)
            if not n:
                yield vm_dev.wait_for_inbound()
                yield sim.timeout(30e-6)
                continue
            for i in range(n):
                received[vm_id].append((sim.now, scratch[i].data_ptr))
                NQE_POOL.release(scratch[i])
                scratch[i] = None

    def producer(vm_id, vm_dev, index):
        owner = object()
        job, _ = vm_dev.produce_rings(vm_dev.queue_sets[0])
        seq = 0
        yield sim.timeout(1e-6 * (index + 1))
        for burst in (24, 1, 1, 20) + (1,) * 80:
            for _ in range(burst):
                job.push(NQE_POOL.acquire(NqeOp.SETSOCKOPT, vm_id, 0, 1,
                                          data_ptr=seq), owner=owner)
                seq += 1
            vm_dev.ring_doorbell()
            yield sim.timeout(100e-6)

    sim.process(responder())
    for index, (vm_id, vm_dev) in enumerate(vms):
        sim.process(drainer(vm_id, vm_dev))
        sim.process(producer(vm_id, vm_dev, index))
    sim.run()
    rings = {}
    for name, dev in [("nsm", nsm_dev)] + [(f"vm{i}", d)
                                          for i, (_, d) in enumerate(vms)]:
        qs = dev.queue_sets[0]
        for ring_name in ("job", "completion"):
            ring = getattr(qs, ring_name)
            rings[f"{name}.{ring_name}"] = (
                ring.produced, ring.consumed, ring.peak_depth,
                ring.slab_grows, len(ring._slots))
    return {
        "sim_now": sim.now,
        "events_processed": sim.events_processed,
        "nqes_switched": engine.nqes_switched,
        "batches": engine.batches,
        "ce_busy_cycles": core.busy_cycles,
        "received": received,
        "rings": rings,
    }


#: digest(_burst_workload()): timeline, per-VM arrival times and the
#: counters and slab sizes of every job and completion ring.
BURST_GOLDEN = (
    "124d2fcc6202f93a99f079597b85706cf2d2ba05be81266d44d7d400c18101ca")


class TestCoreEngineCrossesGrowth:
    def test_vectorized_and_scalar_fingerprints_match(self):
        """The burst's timeline, pinned when this test still compared
        the vectorized and the scalar datapath (hence its name)."""
        out = _burst_workload()
        assert digest(out) == BURST_GOLDEN
        sent = 24 + 1 + 1 + 20 + 80
        for seqs in out["received"].values():
            assert [seq for _, seq in seqs] == list(range(sent))
        rings = out["rings"]
        # Grown by the CE's inlined push (NSM job) and by its VM-bound
        # deliveries (VM completion), and by guest/ServiceLib pushes on
        # the rings the CE drains.
        for name in ("nsm.job", "nsm.completion", "vm0.job",
                     "vm0.completion", "vm1.completion"):
            produced, consumed, peak, grows, size = rings[name]
            assert grows >= 1 and peak > 8, name
            # Cursors went round the grown slab several times.
            assert consumed == produced > 2 * size, name
