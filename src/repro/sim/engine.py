"""Deterministic discrete-event loop.

A single :class:`Simulator` instance owns simulated time.  Every event,
zero-delay ones included, is a ``(time, sequence, timer)`` triple in one
binary heap, and :meth:`Simulator.run` dispatches each from one block.
The sequence number grows with every ``schedule`` call, so simultaneous
events run in the order they were scheduled and a given seed always
reproduces the same run bit-for-bit.

Callbacks may be scheduled with positional arguments
(``schedule(delay, fn, arg)``), which the hot paths use to avoid
allocating a fresh closure per event — the transport delivers every
message this way.

Event cost
----------

The event loop is the simulator's hottest path, so it is kept to one
object and one tuple per event:

- **One Timer per event.**  ``schedule`` builds a fresh :class:`Timer`
  and never reuses one, so a handle always refers to the event it was
  issued for and a late ``cancel()`` is a harmless no-op.  A fired or
  cancelled timer drops its callback and arguments at once, so a handle
  a caller keeps pins nothing else.
- **Lazy cancel.**  ``cancel()`` marks the timer and leaves its entry in
  the heap; the loop skips it when popped.  ``_cancelled_count`` is the
  exact number of cancelled entries in the heap, and once they make up
  most of it the heap is rebuilt without them (``heap_compactions``).
- **Heap entries stay tuples.**  ``(time, seq, timer)`` triples compare
  in C; flattening the entry into the Timer itself (``__lt__``) was
  measured ~40% slower because every sift comparison becomes a Python
  call.

``Simulator.perf_stats()`` exposes the event counters; they ride in
``summary()["perf"]`` and ``python -m repro run --profile``.
"""

import heapq

__all__ = ["Simulator", "Timer"]

_new = object.__new__


class Timer:
    """Handle for a scheduled event; supports cancellation.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped.  This keeps ``cancel()`` O(1), which matters because the
    transport reschedules transmission-complete events on every rate
    change.  The simulator counts cancelled entries and compacts its
    heap once they dominate, so long runs with frequent reschedules do
    not grow the heap unboundedly.  The event's time lives in its heap
    entry, not on the handle.
    """

    __slots__ = ("_callback", "_args", "_cancelled", "_sim")

    def __init__(self, callback, sim=None, args=()):
        self._callback = callback
        self._args = args
        self._cancelled = False
        #: The simulator whose heap holds this entry; None once the
        #: entry has left it, so a late cancel() is not counted.
        self._sim = sim

    def cancel(self):
        if self._cancelled:
            return
        self._cancelled = True
        self._callback = None
        self._args = ()
        sim = self._sim
        if sim is not None:
            # The count and threshold are inlined: the transport cancels
            # a timer per rate change, one of the hottest engine paths.
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
        #: Events armed so far; the next event's tie-break number.
        self._sequence = 0
        self._cancelled_count = 0
        self._running = False
        self._stopped = False
        #: Callbacks executed (cancelled entries excluded); exposed for
        #: profiling — see ``python -m repro run --profile``.
        self.events_processed = 0
        #: Times the heap was rebuilt to shed cancelled entries.
        self.heap_compactions = 0

    def schedule(self, delay, callback, *args):
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        # One comparison refuses negative delays and NaN alike.
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        time = self.now + delay
        # Timer.__init__ inlined: object.__new__ plus four slot stores
        # cost ~6% less per event than the constructor call on an
        # engine-only schedule/cancel loop, and this is the hottest call
        # in the simulator.
        timer = _new(Timer)
        timer._callback = callback
        timer._args = args
        timer._cancelled = False
        timer._sim = self
        sequence = self._sequence
        heapq.heappush(self._heap, (time, sequence, timer))
        self._sequence = sequence + 1
        return timer

    def schedule_at(self, time, callback, *args):
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:
            raise ValueError(f"time must be >= now {self.now}, got {time}")
        timer = Timer(callback, self, args)
        sequence = self._sequence
        heapq.heappush(self._heap, (time, sequence, timer))
        self._sequence = sequence + 1
        return timer

    def _compact(self):
        """Rebuild the heap without its cancelled entries.

        Triggered from :meth:`Timer.cancel` once cancelled entries
        dominate the heap.  The surviving ``(time, seq, timer)`` entries
        are kept as they are, so pop order — and therefore determinism —
        is unchanged, and ``_cancelled_count`` is exactly zero after."""
        heap = self._heap
        # In-place slice assignment keeps the list object identity
        # stable, so the run loop may hold a direct reference.
        heap[:] = [entry for entry in heap if not entry[2]._cancelled]
        heapq.heapify(heap)
        self._cancelled_count = 0
        self.heap_compactions += 1

    def schedule_periodic(self, period, callback, jitter_rng=None):
        """Run ``callback()`` every ``period`` seconds until it returns False.

        If ``jitter_rng`` is given, each interval is perturbed by up to
        +/-10% to break synchronization between nodes, as real protocol
        timers do.
        """
        if not period > 0:
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
        heappop = heapq.heappop
        try:
            while heap and not self._stopped:
                time, _seq, timer = heap[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                if timer._cancelled:
                    self._cancelled_count -= 1
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
            if until is not None and not self._stopped:
                self.now = max(self.now, until)
        finally:
            self._running = False

    def perf_stats(self):
        """Deterministic event-core counters for profiling.

        ``timers_allocated`` counts every event armed.  The event core
        neither pools timers nor queues same-instant events apart, so
        the two keys that counted those always read 0; they stay only
        because ``bench/metrics.py`` reads them.
        """
        return {
            "events_processed": self.events_processed,
            "timers_allocated": self._sequence,
            "timers_recycled": 0,
            "same_time_batched": 0,
            "heap_compactions": self.heap_compactions,
        }

    @property
    def pending_events(self):
        """Number of heap entries, including cancelled ones not yet
        compacted away."""
        return len(self._heap)
