"""Tests for the discrete-event loop."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, lambda: seen.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestScheduleArgs:
    """Positional-argument scheduling (the closure-free fast path)."""

    def test_args_passed_through(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, got.append, "x")
        sim.schedule_at(2.0, lambda a, b: got.append((a, b)), 1, 2)
        sim.run()
        assert got == ["x", (1, 2)]

    def test_cancelled_args_released(self):
        sim = Simulator()
        timer = sim.schedule(1.0, print, "never")
        timer.cancel()
        assert timer._args == ()
        sim.run()


class TestEventsProcessed:
    def test_counts_executed_callbacks_only(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        sim.run()


class TestRunUntil:
    def test_until_bounds_execution(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_until_advances_clock_when_heap_drains(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        sim.run()
        assert fired == [5]

    def test_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]


class TestPeriodic:
    def test_periodic_fires_until_false(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            return count[0] < 3

        sim.schedule_periodic(1.0, tick)
        sim.run(until=10.0)
        assert count[0] == 3

    def test_periodic_cancel(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            return True

        handle = sim.schedule_periodic(1.0, tick)
        sim.schedule(2.5, handle.cancel)
        sim.run(until=10.0)
        assert count[0] == 2

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_periodic(0.0, lambda: True)

    def test_periodic_handles_share_one_class(self):
        # The handle class is defined at module level, not per call.
        sim = Simulator()
        a = sim.schedule_periodic(1.0, lambda: True)
        b = sim.schedule_periodic(1.0, lambda: True)
        assert type(a) is type(b)
        a.cancel()
        b.cancel()

    def test_jittered_period_stays_within_band(self):
        import random

        sim = Simulator()
        times = []

        def tick():
            times.append(sim.now)
            return len(times) < 20

        sim.schedule_periodic(1.0, tick, jitter_rng=random.Random(0))
        sim.run(until=100.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(0.89 <= g <= 1.11 for g in gaps)


class TestHeapCompaction:
    """Cancelled entries must not accumulate (the transport reschedules
    transmission-complete timers on every rate change, so long runs used
    to grow the heap unboundedly)."""

    def test_cancel_heavy_heap_is_compacted(self):
        sim = Simulator()
        timers = [sim.schedule(1000.0 + i, lambda: None) for i in range(1000)]
        for timer in timers[:900]:
            timer.cancel()
        # >50% of the heap was cancelled; compaction kicked in and only
        # live entries (plus at most a sub-majority of cancelled ones)
        # remain.
        assert sim.pending_events < 250
        assert sim.pending_events >= 100

    def test_reschedule_loop_keeps_heap_bounded(self):
        # The transport's pattern: cancel + reschedule, thousands of
        # times, with a far-future deadline that is never reached.
        sim = Simulator()
        live = []
        for i in range(10_000):
            live.append(sim.schedule(500.0 + (i % 7), lambda: None))
            if len(live) > 50:
                live.pop(0).cancel()
        assert sim.pending_events < 200

    def test_compaction_preserves_order_and_results(self):
        # The same schedule/cancel pattern with and without compaction
        # pressure must fire surviving callbacks in the same order.
        def run(cancel_fraction):
            sim = Simulator()
            fired = []
            timers = []
            for i in range(300):
                timers.append(
                    sim.schedule(1.0 + (i % 13), lambda i=i: fired.append(i))
                )
            for i, timer in enumerate(timers):
                if i % 3 < cancel_fraction:
                    timer.cancel()
            sim.run()
            return fired

        expected = [
            i for i in range(300) if i % 3 >= 2
        ]
        fired = run(2)
        assert sorted(fired) == expected
        # Time order with FIFO tie-break: stable sort by (time, seq).
        assert fired == sorted(fired, key=lambda i: (1.0 + (i % 13), i))

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        a = sim.schedule(5.0, lambda: None)
        a.cancel()
        assert sim.pending_events == 1  # lazy entry stays below the floor

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        fired = []
        timers = [
            sim.schedule(1.0 + i * 0.001, lambda i=i: fired.append(i))
            for i in range(100)
        ]
        sim.run()
        for timer in timers:
            timer.cancel()  # late cancels of already-fired timers
        assert sim._cancelled_count == 0
        assert len(fired) == 100


class TestTimerPooling:
    """The zero-allocation event core: retired timers are recycled, but
    never while any caller still holds the handle."""

    def test_fired_timer_recycled_when_unreferenced(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)  # handles discarded
        sim.run()
        assert sim.pool_size > 0
        allocated_before = sim.timers_allocated
        sim.schedule(1.0, lambda: None)
        assert sim.timers_allocated == allocated_before  # pool hit
        assert sim.timers_recycled >= 1

    def test_held_handle_never_observes_recycled_event(self):
        sim = Simulator()
        fired = []
        held = sim.schedule(1.0, lambda: fired.append("held"))
        sim.run()
        assert fired == ["held"]
        # The held timer must not be in the pool: a later schedule must
        # arm a *different* object.
        later = sim.schedule(1.0, lambda: fired.append("later"))
        assert later is not held
        # Late-cancelling the stale handle is a no-op for the new event.
        held.cancel()
        sim.run()
        assert fired == ["held", "later"]

    def test_cancelled_and_discarded_timer_rejoins_pool(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()  # handle discarded
        sim.run()
        assert sim.pool_size >= 1

    def test_held_cancelled_timer_not_recycled(self):
        sim = Simulator()
        held = sim.schedule(1.0, lambda: None)
        held.cancel()
        sim.run()
        replacement = sim.schedule(1.0, lambda: None)
        assert replacement is not held

    def test_pool_survives_heavy_reschedule_loop(self):
        # The transport's cancel/reschedule pattern must reach a steady
        # state where (almost) no fresh Timer objects are constructed.
        sim = Simulator()
        live = [None]

        def hop():
            if live[0] is not None:
                live[0].cancel()
            live[0] = sim.schedule(2.0, lambda: None)
            return sim.now < 50.0

        sim.schedule_periodic(0.5, hop)
        sim.run(until=100.0)
        assert sim.timers_recycled > sim.timers_allocated


class TestScheduleAtUntil:
    def test_event_at_exactly_until_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("at"))
        sim.schedule(2.0000001, lambda: fired.append("after"))
        sim.run(until=2.0)
        assert fired == ["at"]
        assert sim.now == 2.0

    def test_schedule_at_now_outside_run_executes(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule_at(sim.now, lambda: fired.append(1))
        sim.run()
        assert fired == [1]


class TestSameInstantDrain:
    """Zero-delay events issued while running take the drain queue, in
    exactly the (time, sequence) order the heap would have produced."""

    def test_zero_delay_runs_at_same_timestamp_in_fifo_order(self):
        sim = Simulator()
        order = []

        def first():
            order.append(("first", sim.now))
            sim.schedule(0.0, lambda: order.append(("zero-a", sim.now)))
            sim.schedule(0.0, lambda: order.append(("zero-b", sim.now)))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append(("peer", sim.now)))
        sim.run()
        # The heap-resident peer event (smaller sequence) runs before
        # the drain-queue entries created at the same instant.
        assert order == [
            ("first", 1.0),
            ("peer", 1.0),
            ("zero-a", 1.0),
            ("zero-b", 1.0),
        ]
        assert sim.same_time_batched == 2

    def test_absorbed_tiny_delay_keeps_schedule_order(self):
        # A nonzero delay swallowed by float addition (now + d == now)
        # must take the drain path too: routing it through the heap
        # would give it heap priority over *earlier* zero-delay events
        # at the same instant, inverting (time, sequence) order.
        sim = Simulator()
        order = []

        def outer():
            sim.schedule(0.0, lambda: order.append("zero"))
            tiny = 1e-13
            assert sim.now + tiny == sim.now  # absorbed at this scale
            sim.schedule(tiny, lambda: order.append("tiny"))

        sim.schedule(4096.0, outer)
        sim.run()
        assert order == ["zero", "tiny"]

    def test_drain_queue_timer_cancellable(self):
        sim = Simulator()
        fired = []

        def outer():
            keep = sim.schedule(0.0, lambda: fired.append("keep"))
            drop = sim.schedule(0.0, lambda: fired.append("drop"))
            drop.cancel()
            assert keep is not None

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["keep"]

    def test_stop_inside_drain_halts_remaining_entries(self):
        sim = Simulator()
        fired = []

        def outer():
            sim.schedule(0.0, lambda: (fired.append("a"), sim.stop()))
            sim.schedule(0.0, lambda: fired.append("b"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["a"]
        # The unprocessed drain entry survives for the next run.
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["a", "b"]


class TestCancelledCountExact:
    """``_cancelled_count`` equals the number of cancelled entries in
    the heap at all times — including when cancels land between a
    compaction and the pop of surviving entries, the drift scenario the
    old clamped decrement could mask."""

    @staticmethod
    def _true_count(sim):
        return sum(1 for e in sim._heap if e[2].cancelled)

    def test_count_exact_with_compaction_during_run_until(self):
        sim = Simulator()
        mismatches = []
        live = []

        def probe():
            if sim._cancelled_count != self._true_count(sim):
                mismatches.append(
                    (sim.now, sim._cancelled_count, self._true_count(sim))
                )

        def churn():
            # Keep the heap above the compaction floor, then cancel in
            # bursts so compaction triggers *while running*; fresh
            # cancels keep landing after each compaction and before the
            # surviving entries pop.
            for _ in range(40):
                live.append(sim.schedule(5.0, lambda: None))
            while len(live) > 60:
                live.pop(0).cancel()
            probe()
            return sim.now < 30.0

        sim.schedule_periodic(1.0, churn)
        for upto in (7.0, 13.0, 50.0):
            sim.run(until=upto)
            probe()
        assert sim.heap_compactions > 0, "scenario must exercise compaction"
        assert mismatches == []

    def test_cancel_after_fire_does_not_count(self):
        sim = Simulator()
        timers = [sim.schedule(1.0, lambda: None) for _ in range(100)]
        sim.run()
        for timer in timers:
            timer.cancel()
        assert sim._cancelled_count == 0


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(RuntimeError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()
