"""Deterministic discrete-event loop.

A single :class:`Simulator` instance owns simulated time.  Events are
``(time, sequence, timer)`` triples in a binary heap; the sequence
number makes execution order deterministic for simultaneous events, so a
given seed always reproduces the same run bit-for-bit.

Callbacks may be scheduled with positional arguments
(``schedule(delay, fn, arg)``), which the hot paths use to avoid
allocating a fresh closure per event — the transport delivers every
message this way.

Allocation discipline
---------------------

The event loop is the single hottest allocation site of the simulator
(PR 2 measured one :class:`Timer` plus one heap tuple per scheduled
event, millions per large run), so this module is written for a
zero-steady-state-allocation event core:

- **Timer pooling.**  Fired and cancelled timers are recycled on a free
  list and re-armed by later ``schedule`` calls.  A timer is only
  recycled when the run loop can prove no outside reference to the
  handle survives (CPython reference counting makes that a single
  ``sys.getrefcount`` check), so a held handle can never observe a
  recycled event — cancelling a stale handle after its event fired
  remains a harmless no-op, exactly as before pooling.
- **Same-instant drain path.**  ``schedule(0, fn)`` issued while the
  loop is running appends to a FIFO drain queue instead of paying a
  heap push + pop.  Every event scheduled for the *current* instant has
  a larger sequence number than any heap entry at that instant (time
  only moves forward), so draining heap-resident now-events first and
  then the FIFO reproduces the exact (time, sequence) execution order
  of the pre-batch code.
- **Heap entries stay tuples.**  ``(time, seq, timer)`` triples compare
  in C; flattening the entry into the Timer itself (``__lt__``) was
  measured ~40% slower because every sift comparison becomes a Python
  call.  Small tuples come from the interpreter free list, so the tuple
  is not where the allocation cost was.

``Simulator.perf_stats()`` exposes the pool counters; they ride in
``summary()["perf"]`` and ``python -m repro run --profile``.
"""

import heapq
import sys
from collections import deque

__all__ = ["Simulator", "Timer"]

_getrefcount = sys.getrefcount


class Timer:
    """Handle for a scheduled event; supports cancellation.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped.  This keeps ``cancel()`` O(1), which matters because the
    transport reschedules transmission-complete events on every rate
    change.  The simulator counts cancelled entries and compacts its
    heap once they dominate, so long runs with frequent reschedules do
    not grow the heap unboundedly.

    Timers are pooled: once an event has fired (or its cancelled entry
    left the heap) *and* no outside reference to the handle remains, the
    object is recycled for a later ``schedule`` call.  Holding on to a
    handle is always safe — a held timer is never recycled, so a late
    ``cancel()`` still refers to the event it was issued for.
    """

    __slots__ = ("time", "_callback", "_args", "_cancelled", "_sim")

    def __init__(self, time, callback, sim=None, args=()):
        self.time = time
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._sim = sim

    def cancel(self):
        if self._cancelled:
            return
        self._cancelled = True
        self._callback = None
        self._args = ()
        sim = self._sim
        if sim is not None:
            # _note_cancelled inlined: the transport cancels a timer per
            # rate change, making this one of the hottest engine paths.
            self._sim = None
            count = sim._cancelled_count + 1
            sim._cancelled_count = count
            heap = sim._heap
            if len(heap) >= Simulator.COMPACT_MIN_SIZE and count * 2 > len(heap):
                sim._compact()

    @property
    def cancelled(self):
        return self._cancelled


class _PeriodicState:
    """Per-timer state of one :meth:`Simulator.schedule_periodic` loop.

    A ``__slots__`` object instead of the former closure-over-dict pair:
    one small fixed-shape object per periodic timer, and each tick
    reschedules the bound :meth:`_fire` method — no per-tick closures,
    no dict lookups.
    """

    __slots__ = ("sim", "period", "callback", "jitter_rng", "timer")

    def __init__(self, sim, period, callback, jitter_rng):
        self.sim = sim
        self.period = period
        self.callback = callback
        self.jitter_rng = jitter_rng
        self.timer = None

    def _fire(self):
        keep_going = self.callback()
        if keep_going is False:
            self.timer = None
            return
        delay = self.period
        if self.jitter_rng is not None:
            delay *= 1.0 + self.jitter_rng.uniform(-0.1, 0.1)
        self.timer = self.sim.schedule(delay, self._fire)


class _PeriodicHandle:
    """Cancellation handle returned by :meth:`Simulator.schedule_periodic`.

    Defined at module level so repeated ``schedule_periodic`` calls share
    one class object instead of allocating a fresh class per timer.
    """

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    def cancel(self):
        timer = self._state.timer
        if timer is not None:
            timer.cancel()
            self._state.timer = None


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(2.0, lambda: order.append("b"))
    >>> _ = sim.schedule(1.0, lambda: order.append("a"))
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    #: Skip compaction below this heap size: tiny heaps are cheap to
    #: scan and compacting them would just thrash.
    COMPACT_MIN_SIZE = 64

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = 0
        self._cancelled_count = 0
        self._running = False
        self._stopped = False
        #: Retired Timer objects awaiting re-arming.
        self._free = []
        #: Same-instant events issued while running (see module docs).
        self._batch = deque()
        #: Callbacks executed (cancelled entries excluded); exposed for
        #: profiling — see ``python -m repro run --profile``.
        self.events_processed = 0
        #: Fresh Timer objects constructed (pool misses).
        self.timers_allocated = 0
        #: schedule() calls served from the free list (pool hits).
        self.timers_recycled = 0
        #: Events that ran through the same-instant drain queue instead
        #: of a heap push + pop.
        self.same_time_batched = 0
        #: Times the heap was rebuilt to shed cancelled entries.
        self.heap_compactions = 0

    def _arm(self, time, callback, args, sim):
        """Pool-aware Timer construction (the one allocation site)."""
        free = self._free
        if free:
            timer = free.pop()
            timer.time = time
            timer._callback = callback
            timer._args = args
            timer._cancelled = False
            timer._sim = sim
            self.timers_recycled += 1
        else:
            timer = Timer(time, callback, sim, args)
            self.timers_allocated += 1
        return timer

    def schedule(self, delay, callback, *args):
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        # The pool fast path is inlined here (and not factored through
        # _arm): this is the hottest call in the simulator and a helper
        # call per event would cost more than the allocation it saves.
        free = self._free
        time = self.now + delay
        if time == self.now and self._running:
            # Same-instant drain path: no heap round-trip.  The test is
            # on the *effective* time (now + delay == now), not on
            # delay == 0: a tiny delay absorbed by float addition at a
            # large ``now`` must take the same path, or it would land in
            # the heap at time == now with a later sequence number and
            # jump ahead of earlier drain-queue entries.  With every
            # now-time schedule routed here, heap entries at the current
            # instant can only predate it (time only moves forward), so
            # draining heap-resident now-events first and then the FIFO
            # is exactly (time, sequence) order.
            if free:
                timer = free.pop()
                timer.time = self.now
                timer._callback = callback
                timer._args = args
                timer._cancelled = False
                timer._sim = None
                self.timers_recycled += 1
            else:
                timer = Timer(self.now, callback, None, args)
                self.timers_allocated += 1
            self._batch.append(timer)
            return timer
        if free:
            timer = free.pop()
            timer.time = time
            timer._callback = callback
            timer._args = args
            timer._cancelled = False
            timer._sim = self
            self.timers_recycled += 1
        else:
            timer = Timer(time, callback, self, args)
            self.timers_allocated += 1
        heapq.heappush(self._heap, (time, self._sequence, timer))
        self._sequence += 1
        return timer

    def schedule_at(self, time, callback, *args):
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        if time == self.now and self._running:
            timer = self._arm(time, callback, args, None)
            self._batch.append(timer)
            return timer
        timer = self._arm(time, callback, args, self)
        heapq.heappush(self._heap, (time, self._sequence, timer))
        self._sequence += 1
        return timer

    def _compact(self):
        """Rebuild the heap without its cancelled entries, recycling the
        timers no caller holds a handle to.

        Triggered from :meth:`Timer.cancel` once cancelled entries
        dominate the heap (the count/threshold logic lives inline there
        — it is one of the hottest engine paths).  Compaction preserves
        the surviving ``(time, seq, timer)`` entries, so pop order — and
        therefore determinism — is unchanged.  ``_cancelled_count`` is
        kept *exact* throughout: it counts precisely the cancelled
        entries currently in the heap (drain-queue timers never
        register — they are disposed of on their own pop), so compaction
        triggers at the intended density and the count cannot drift when
        cancels land between a compaction and the pop of a surviving
        entry."""
        survivors = []
        append = survivors.append
        free = self._free
        getrefcount = _getrefcount
        for entry in self._heap:
            timer = entry[2]
            if not timer._cancelled:
                append(entry)
            elif getrefcount(timer) == 3:
                # Referenced only by the dropped entry tuple, this
                # loop, and getrefcount's argument: no handle is
                # held, so the timer rejoins the pool instead of
                # falling to the garbage collector.
                free.append(timer)
        # In-place slice assignment keeps the list object identity
        # stable, so the run loop may hold a direct reference.
        self._heap[:] = survivors
        heapq.heapify(self._heap)
        self._cancelled_count = 0
        self.heap_compactions += 1

    def schedule_periodic(self, period, callback, jitter_rng=None):
        """Run ``callback()`` every ``period`` seconds until it returns False.

        If ``jitter_rng`` is given, each interval is perturbed by up to
        +/-10% to break synchronization between nodes, as real protocol
        timers do.
        """
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        state = _PeriodicState(self, period, callback, jitter_rng)
        state.timer = self.schedule(period, state._fire)
        return _PeriodicHandle(state)

    def stop(self):
        """Stop the run loop after the current event."""
        self._stopped = True

    def run(self, until=None):
        """Process events until the heap drains, ``until`` is reached, or
        :meth:`stop` is called.

        When ``until`` is given, ``now`` is advanced to exactly ``until``
        on return even if the heap drained earlier.  Events scheduled at
        exactly ``until`` still run (the cutoff is strictly greater).
        """
        if self._running:
            raise RuntimeError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        heap = self._heap  # compaction mutates in place, identity is stable
        batch = self._batch
        free = self._free
        heappop = heapq.heappop
        getrefcount = _getrefcount
        try:
            while not self._stopped:
                if batch:
                    # Heap-resident events at the current instant carry
                    # smaller sequence numbers than anything in the
                    # drain queue; run those first.
                    if heap and heap[0][0] <= self.now:
                        time = heap[0][0]
                        timer = heap[0][2]
                        heappop(heap)
                        if timer._cancelled:
                            self._cancelled_count -= 1
                            if getrefcount(timer) == 2:
                                free.append(timer)
                            continue
                        timer._sim = None
                        callback = timer._callback
                        args = timer._args
                        timer._callback = None
                        timer._args = ()
                        self.events_processed += 1
                        callback(*args)
                        if getrefcount(timer) == 2:
                            free.append(timer)
                        continue
                    timer = batch.popleft()
                    if timer._cancelled:
                        if getrefcount(timer) == 2:
                            free.append(timer)
                        continue
                    callback = timer._callback
                    args = timer._args
                    timer._callback = None
                    timer._args = ()
                    self.events_processed += 1
                    self.same_time_batched += 1
                    callback(*args)
                    if getrefcount(timer) == 2:
                        free.append(timer)
                    continue
                if not heap:
                    break
                # Unpack without binding the tuple itself: a live tuple
                # reference would defeat the post-callback refcount check
                # that gates recycling.
                time, _seq, timer = heap[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                if timer._cancelled:
                    self._cancelled_count -= 1
                    if getrefcount(timer) == 2:
                        free.append(timer)
                    continue
                # The entry left the heap; a late cancel() must not
                # count toward the compaction threshold.
                timer._sim = None
                self.now = time
                callback = timer._callback
                args = timer._args
                timer._callback = None
                timer._args = ()
                self.events_processed += 1
                callback(*args)
                # Recycle iff the handle did not escape: the only two
                # references left are the loop local and getrefcount's
                # argument.  A retained handle keeps the object alive
                # (and un-recycled) forever.
                if getrefcount(timer) == 2:
                    free.append(timer)
            if until is not None and not self._stopped:
                self.now = max(self.now, until)
        finally:
            self._running = False

    def perf_stats(self):
        """Deterministic event-core counters for profiling.

        ``timers_allocated`` + ``timers_recycled`` together count every
        armed event; their ratio shows how completely the pool absorbs
        the event-object churn.  ``same_time_batched`` counts events that
        ran through the drain queue (no heap traffic at all).
        """
        return {
            "events_processed": self.events_processed,
            "timers_allocated": self.timers_allocated,
            "timers_recycled": self.timers_recycled,
            "same_time_batched": self.same_time_batched,
            "heap_compactions": self.heap_compactions,
        }

    @property
    def pending_events(self):
        """Number of scheduled events: heap entries (including cancelled
        ones not yet compacted away) plus any same-instant drain-queue
        entries."""
        return len(self._heap) + len(self._batch)

    @property
    def pool_size(self):
        """Retired Timer objects currently available for re-arming."""
        return len(self._free)
