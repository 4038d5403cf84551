"""Single-producer single-consumer ring buffer.

The paper's queues are lockless because each is shared between exactly one
producer and one consumer (§3, "Scalable Lockless Queues").  We model that
discipline explicitly: a ring is *claimed* by one producer identity and one
consumer identity, and any second party touching the same end is a bug the
simulation surfaces immediately rather than a silent race.

The slot array is a *slab* that follows traffic rather than capacity: it
starts at :data:`INITIAL_SLAB_SLOTS` slots (or ``capacity`` if smaller)
and doubles, up to ``capacity``, on a push that finds it full.  Growth
re-linearizes the queued items to the slab's start and the slab is never
shrunk, so a ring whose depth has peaked performs no further allocation.
An idle VM's four rings thus cost a few dozen slots instead of four full
preallocated arrays, while capacity, fullness and rejection semantics are
exactly those of a fixed ``capacity``-slot ring.  Growth moves the
consumer's cursor too; the simulator is single-threaded, so the producer
does it atomically with respect to the consumer.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import ResourceError, RingEmptyError, RingFullError

#: Slots a fresh ring's slab starts with (capped at the ring's capacity).
INITIAL_SLAB_SLOTS = 8


class SpscRing:
    """Bounded FIFO with single-producer / single-consumer enforcement."""

    def __init__(self, capacity: int, name: str = "ring"):
        if capacity < 1:
            raise ResourceError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        #: The slab; every cursor wraps at ``len(_slots)``, not capacity.
        self._slots: List[Any] = [None] * min(capacity, INITIAL_SLAB_SLOTS)
        self._head = 0  # next slot to consume
        self._tail = 0  # next slot to produce
        self._count = 0
        self._producer: Optional[object] = None
        self._consumer: Optional[object] = None
        # Lifetime statistics.
        self.produced = 0
        self.consumed = 0
        self.full_rejections = 0
        self.peak_depth = 0
        #: Windowed occupancy high-watermark: like ``peak_depth`` but
        #: resettable via :meth:`take_hwm`, so the overload detector can
        #: sample per-interval peaks instead of a lifetime maximum.
        self.hwm_depth = 0
        #: Drains that built a fresh list (``pop_batch``).  The vectorized
        #: datapath drains through ``drain_into`` instead, which reuses a
        #: caller-owned scratch list; perf smoke asserts this counter stays
        #: flat across steady-state switching.
        self.list_allocs = 0
        #: Slab doublings so far; flat once the ring's depth has peaked.
        self.slab_grows = 0

    # -- ownership -----------------------------------------------------------

    def claim_producer(self, owner: object) -> None:
        """Bind the producing end to ``owner``; rebinding is an error."""
        if self._producer is not None and self._producer is not owner:
            raise ResourceError(
                f"{self.name}: second producer {owner!r} (already "
                f"{self._producer!r}) — SPSC discipline violated"
            )
        self._producer = owner

    def claim_consumer(self, owner: object) -> None:
        """Bind the consuming end to ``owner``; rebinding is an error."""
        if self._consumer is not None and self._consumer is not owner:
            raise ResourceError(
                f"{self.name}: second consumer {owner!r} (already "
                f"{self._consumer!r}) — SPSC discipline violated"
            )
        self._consumer = owner

    # Ownership checks are inlined at each call site as
    # ``if owner is not None and self._producer is not owner:`` — the
    # steady-state claim (same owner every call) costs one identity
    # compare and no function call, which matters at switching rates.

    # -- state ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def empty(self) -> bool:
        return self._count == 0

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - self._count

    # -- slab -------------------------------------------------------------------

    def _grow(self) -> None:
        """Double the full slab (up to ``capacity``), re-linearized.

        Called by the producer when a push finds ``_count == len(_slots)
        < capacity``.  The queued items move to the slab's start in FIFO
        order (head = 0, tail = old size); the list object itself is kept,
        so a caller holding ``_slots`` still sees the live slab.
        """
        slots = self._slots
        size = len(slots)
        head = self._head
        if head:
            slots[:] = slots[head:] + slots[:head]
        slots.extend([None] * (min(size * 2, self.capacity) - size))
        self._head = 0
        self._tail = size
        self.slab_grows += 1

    # -- produce ---------------------------------------------------------------

    def _note_full(self) -> None:
        """The single full-rejection accounting point.

        Both push paths (``try_push`` and ``push_batch``) funnel through
        here, so rejection semantics — one rejection per refused push or
        per overflowing batch — live in exactly one place.
        """
        self.full_rejections += 1

    def _note_depth(self, depth: int) -> None:
        """Record a post-push depth against both high-watermarks."""
        if depth > self.peak_depth:
            self.peak_depth = depth
        if depth > self.hwm_depth:
            self.hwm_depth = depth

    def take_hwm(self) -> int:
        """Return the windowed occupancy high-watermark and restart the
        window at the current depth (the overload detector's sampler)."""
        hwm = self.hwm_depth
        self.hwm_depth = self._count
        return hwm

    def try_push(self, item: Any, owner: Optional[object] = None) -> bool:
        """Push one item; returns False (and counts a rejection) if full."""
        if owner is not None and self._producer is not owner:
            self.claim_producer(owner)
        count = self._count
        slots = self._slots
        if count == len(slots):
            if count == self.capacity:
                self._note_full()
                return False
            self._grow()
        tail = self._tail
        slots[tail] = item
        tail += 1
        self._tail = 0 if tail == len(slots) else tail
        count += 1
        self._count = count
        self.produced += 1
        self._note_depth(count)
        return True

    def push(self, item: Any, owner: Optional[object] = None) -> None:
        """Push one item; raises :class:`RingFullError` if full."""
        if not self.try_push(item, owner):
            raise RingFullError(f"{self.name} is full ({self.capacity})")

    def push_batch(self, items, owner: Optional[object] = None,
                   count: Optional[int] = None) -> int:
        """Push as many of ``items`` as fit; returns how many were pushed.

        One ownership check covers the whole batch — the producer cannot
        change mid-call under the SPSC discipline.

        ``count`` pushes only ``items[:count]`` without materializing the
        slice: pass a reusable scratch list plus the valid-prefix length
        and the call is iterator-free and, once the slab has grown to the
        ring's peak depth, allocation-free (the vectorized producer fast
        path).
        """
        if owner is not None and self._producer is not owner:
            self.claim_producer(owner)
        n = len(items) if count is None else count
        depth = self._count
        free = self.capacity - depth
        if n > free:
            # One rejection per overflowing batch, matching the scalar
            # loop's behaviour of counting the first refused element.
            self._note_full()
            n = free
        if n <= 0:
            return 0
        slots = self._slots
        tail = self._tail
        size = len(slots)
        pushed = 0
        while pushed < n:
            if depth == size:
                # Grow exactly as n single pushes would: only once the
                # slab is full, then carry on into the doubled slab.
                self._grow()
                tail = self._tail
                size = len(slots)
            stop = min(n, pushed + size - depth)
            for i in range(pushed, stop):
                slots[tail] = items[i]
                tail += 1
                if tail == size:
                    tail = 0
            depth += stop - pushed
            pushed = stop
        self._tail = tail
        self._count = depth
        self.produced += n
        self._note_depth(depth)
        return n

    # -- consume -----------------------------------------------------------------

    def try_pop(self, owner: Optional[object] = None) -> Any:
        """Pop the oldest item, or return None when empty."""
        if owner is not None and self._consumer is not owner:
            self.claim_consumer(owner)
        if self._count == 0:
            return None
        head = self._head
        slots = self._slots
        item = slots[head]
        slots[head] = None
        self._head = head + 1 if head + 1 < len(slots) else 0
        self._count -= 1
        self.consumed += 1
        return item

    def pop(self, owner: Optional[object] = None) -> Any:
        """Pop the oldest item; raises :class:`RingEmptyError` when empty.

        A single emptiness/ownership check: ``try_pop`` does the work and
        ``None`` (never a valid queued element) signals empty.
        """
        item = self.try_pop(owner)
        if item is None:
            raise RingEmptyError(f"{self.name} is empty")
        return item

    def pop_batch(self, max_items: int, owner: Optional[object] = None) -> List[Any]:
        """Pop up to ``max_items`` items (the paper's batched consumption).

        One ownership check covers the whole batch — the consumer cannot
        change mid-call under the SPSC discipline.  Builds a fresh list per
        call (counted in ``list_allocs``); steady-state consumers should
        prefer :meth:`drain_into`.
        """
        if owner is not None and self._consumer is not owner:
            self.claim_consumer(owner)
        if max_items < 0:
            raise ResourceError(f"negative batch: {max_items}")
        count = self._count
        if count == 0 or max_items == 0:
            return []
        self.list_allocs += 1
        take = max_items if max_items < count else count
        batch: List[Any] = []
        head = self._head
        slots = self._slots
        size = len(slots)
        for _ in range(take):
            batch.append(slots[head])
            slots[head] = None
            head = (head + 1) % size
        self._head = head
        self._count = count - take
        self.consumed += take
        return batch

    def drain_into(self, buf: List[Any], max_items: int,
                   owner: Optional[object] = None, start: int = 0) -> int:
        """Pop up to ``max_items`` items into ``buf[start:]``; returns the count.

        The allocation-free drain: the caller owns ``buf`` (a reusable
        scratch list) and reads back exactly ``start + n`` valid slots.
        ``buf`` is grown once if too short and never shrunk, so a steady
        state consumer performs zero list allocations per pass.
        """
        if owner is not None and self._consumer is not owner:
            self.claim_consumer(owner)
        if max_items < 0:
            raise ResourceError(f"negative batch: {max_items}")
        count = self._count
        take = max_items if max_items < count else count
        if take <= 0:
            return 0
        need = start + take
        if len(buf) < need:
            buf.extend([None] * (need - len(buf)))
        head = self._head
        slots = self._slots
        size = len(slots)
        for i in range(start, need):
            buf[i] = slots[head]
            slots[head] = None
            head += 1
            if head == size:
                head = 0
        self._head = head
        self._count = count - take
        self.consumed += take
        return take

    def peek(self, owner: Optional[object] = None) -> Any:
        """The oldest item without consuming it, or None when empty."""
        if owner is not None and self._consumer is not owner:
            self.claim_consumer(owner)
        if self.empty:
            return None
        return self._slots[self._head]

    def snapshot(self) -> List[Any]:
        """All queued items, oldest first, without consuming anything.

        Inspection only (migration quiescence checks, tests): bypasses the
        ownership discipline because it moves no cursor and mutates no slot.
        """
        slots = self._slots
        size = len(slots)
        return [slots[(self._head + i) % size] for i in range(self._count)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SpscRing {self.name} {self._count}/{self.capacity}>"
