"""Unit tests for the clock, event queue, and discrete-event simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.clock import SimulationClock
from repro.cluster.events import EventQueue
from repro.cluster.simulator import Simulator
from repro.exceptions import SimulationError


class TestSimulationClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now_ms == 0.0

    def test_advance_forward(self):
        clock = SimulationClock()
        clock.advance_to(12.5)
        assert clock.now_ms == 12.5

    def test_cannot_move_backwards(self):
        clock = SimulationClock(start_ms=10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(5.0)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimulationClock(start_ms=-1.0)

    def test_reset(self):
        clock = SimulationClock()
        clock.advance_to(100.0)
        clock.reset()
        assert clock.now_ms == 0.0


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        fired: list[str] = []
        queue.push(5.0, lambda: fired.append("late"))
        queue.push(1.0, lambda: fired.append("early"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["early", "late"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order: list[int] = []
        for index in range(5):
            queue.push(3.0, lambda i=index: order.append(i))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == [0, 1, 2, 3, 4]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired: list[str] = []
        keep = queue.push(1.0, lambda: fired.append("keep"))
        drop = queue.push(2.0, lambda: fired.append("drop"))
        drop.cancel()
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["keep"]
        assert keep.label == ""

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        cancelled = queue.push(2.0, lambda: None)
        cancelled.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(7.0, lambda: None)
        assert queue.peek_time() == 7.0

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, lambda: None)


class TestSimulator:
    def test_schedule_and_run_advances_clock(self):
        simulator = Simulator(rng=0)
        seen: list[float] = []
        simulator.schedule(10.0, lambda: seen.append(simulator.now_ms))
        simulator.schedule(5.0, lambda: seen.append(simulator.now_ms))
        simulator.run()
        assert seen == [5.0, 10.0]
        assert simulator.now_ms == 10.0
        assert simulator.processed_events == 2

    def test_schedule_at_absolute_time(self):
        simulator = Simulator(rng=0)
        simulator.schedule_at(3.0, lambda: None)
        simulator.run()
        assert simulator.now_ms == 3.0

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator(rng=0)
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_run_until_horizon_leaves_later_events(self):
        simulator = Simulator(rng=0)
        fired: list[float] = []
        simulator.schedule(1.0, lambda: fired.append(1.0))
        simulator.schedule(100.0, lambda: fired.append(100.0))
        simulator.run(until_ms=10.0)
        assert fired == [1.0]
        assert simulator.now_ms == 10.0
        assert simulator.pending_events == 1
        simulator.run()
        assert fired == [1.0, 100.0]

    def test_events_can_schedule_events(self):
        simulator = Simulator(rng=0)
        fired: list[str] = []

        def first() -> None:
            fired.append("first")
            simulator.schedule(5.0, lambda: fired.append("second"))

        simulator.schedule(1.0, first)
        simulator.run()
        assert fired == ["first", "second"]
        assert simulator.now_ms == 6.0

    def test_event_storm_guard(self):
        simulator = Simulator(rng=0, max_events=100)

        def rescheduling() -> None:
            simulator.schedule(1.0, rescheduling)

        simulator.schedule(1.0, rescheduling)
        with pytest.raises(SimulationError):
            simulator.run(until_ms=1_000.0)

    def test_reset_clears_queue_and_clock(self):
        simulator = Simulator(rng=0)
        simulator.schedule(50.0, lambda: None)
        simulator.run()
        simulator.schedule(10.0, lambda: None)
        simulator.reset()
        assert simulator.pending_events == 0
        assert simulator.now_ms == 0.0
        assert simulator.processed_events == 0

    def test_step_returns_false_when_empty(self):
        assert Simulator(rng=0).step() is False

    def test_deterministic_rng_from_seed(self):
        a = Simulator(rng=7).rng.random(5)
        b = Simulator(rng=7).rng.random(5)
        assert list(a) == list(b)


class TestLiveCountAccounting:
    """Regression tests for the O(1) ``len(queue)`` counter.

    The count must stay exact through every push/pop/cancel/drain sequence —
    the pre-overhaul implementation recomputed it with an O(n) scan, so any
    drift here is silent corruption rather than a crash.
    """

    def test_len_exact_through_mixed_cancellation_and_drain(self):
        queue = EventQueue()
        events = [queue.push(float(i % 7), lambda: None) for i in range(50)]
        assert len(queue) == 50
        for event in events[::3]:
            event.cancel()
        expected = 50 - len(events[::3])
        assert len(queue) == expected
        drained = 0
        while queue.pop() is not None:
            drained += 1
            assert len(queue) == expected - drained
        assert drained == expected
        assert len(queue) == 0

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        event = queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        event.cancel()  # already fired; must not decrement the live count
        assert len(queue) == 1

    def test_cancel_after_clear_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
        event.cancel()
        queue.push(1.0, lambda: None)
        assert len(queue) == 1

    def test_peek_time_discards_cancelled_head_and_keeps_count(self):
        queue = EventQueue()
        head = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        head.cancel()
        assert len(queue) == 1
        assert queue.peek_time() == 2.0
        assert len(queue) == 1

    def test_push_action_entries_are_counted_and_popped(self):
        queue = EventQueue()
        fired: list[str] = []
        queue.push_action(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        assert len(queue) == 2
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["a", "b"]
        assert len(queue) == 0

    def test_compaction_preserves_order_and_count(self):
        from repro.cluster.events import COMPACTION_MIN_CANCELLED

        queue = EventQueue()
        cancellable = [
            queue.push(float(i), lambda: None)
            for i in range(COMPACTION_MIN_CANCELLED + 10)
        ]
        survivors: list[float] = []
        keep_a = queue.push(0.5, lambda: survivors.append(0.5))
        keep_b = queue.push(2_000.0, lambda: survivors.append(2_000.0))
        for event in cancellable:
            event.cancel()
        # All cancellable events cancelled: compaction must have fired at the
        # threshold, bounding the heap to the stragglers cancelled after the
        # rebuild plus the two live events.
        assert len(queue) == 2
        assert len(queue._heap) < COMPACTION_MIN_CANCELLED
        while (event := queue.pop()) is not None:
            event.action()
        assert survivors == [0.5, 2_000.0]
        assert keep_a.cancelled is False and keep_b.cancelled is False


class TestFastPathScheduling:
    def test_push_call_dispatches_with_arguments(self):
        simulator = Simulator(rng=0)
        seen: list[tuple] = []

        def record(a, b):
            seen.append((a, b, simulator.now_ms))

        simulator.queue.push_call(4.0, record, "x", 1)
        simulator.queue.push_call(2.0, record, "y", 2)
        simulator.run()
        assert seen == [("y", 2, 2.0), ("x", 1, 4.0)]
        assert simulator.processed_events == 2

    def test_push_call_three_arguments_and_step(self):
        simulator = Simulator(rng=0)
        seen: list[tuple] = []
        simulator.queue.push_call(1.0, lambda a, b, c: seen.append((a, b, c)), 1, 2, 3)
        assert simulator.step() is True
        assert seen == [(1, 2, 3)]

    def test_schedule_action_runs_without_event_allocation(self):
        simulator = Simulator(rng=0)
        fired: list[float] = []
        simulator.schedule_action(5.0, lambda: fired.append(simulator.now_ms))
        with pytest.raises(SimulationError):
            simulator.schedule_action(-1.0, lambda: None)
        simulator.run()
        assert fired == [5.0]

    def test_schedule_at_action_validates_past(self):
        simulator = Simulator(rng=0)
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at_action(1.0, lambda: None)
        simulator.schedule_at_action(9.0, lambda: None)
        simulator.run()
        assert simulator.now_ms == 9.0

    def test_pop_wraps_raw_entries_in_events(self):
        queue = EventQueue()
        fired: list[int] = []
        queue.push_call(1.0, fired.append, 7)
        event = queue.pop()
        assert event is not None
        event.action()
        assert fired == [7]


class TestReferenceEngine:
    def test_reference_simulator_matches_new_engine_timing(self):
        from repro.cluster.reference import ReferenceSimulator

        for simulator in (Simulator(rng=0), ReferenceSimulator(rng=0)):
            seen: list[float] = []
            simulator.schedule(10.0, lambda s=simulator: seen.append(s.now_ms))
            simulator.schedule(5.0, lambda s=simulator: seen.append(s.now_ms))
            simulator.run(until_ms=7.0)
            assert seen == [5.0]
            assert simulator.now_ms == 7.0
            simulator.run()
            assert seen == [5.0, 10.0]
            assert simulator.processed_events == 2

    def test_reference_queue_len_and_cancel(self):
        from repro.cluster.reference import ReferenceEventQueue

        queue = ReferenceEventQueue()
        queue.push(1.0, lambda: None)
        cancelled = queue.push(2.0, lambda: None)
        cancelled.cancel()
        assert len(queue) == 1


class TestProcessedCountOnFailure:
    def test_processed_events_exact_when_action_raises(self):
        simulator = Simulator(rng=0)
        simulator.schedule(1.0, lambda: None)

        def boom() -> None:
            raise RuntimeError("event action failed")

        simulator.schedule(2.0, boom)
        with pytest.raises(RuntimeError):
            simulator.run()
        # The event before the failure *and* the failing event were processed.
        assert simulator.processed_events == 2

    def test_event_storm_budget_survives_retried_runs(self):
        simulator = Simulator(rng=0, max_events=10)

        def rescheduling() -> None:
            simulator.schedule(1.0, rescheduling)

        simulator.schedule(1.0, rescheduling)
        with pytest.raises(SimulationError):
            simulator.run(until_ms=1_000.0)
        processed_after_storm = simulator.processed_events
        assert processed_after_storm >= 10
        # A retried run must not restart the budget from a stale count: the
        # very next processed event exceeds it again.
        simulator.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            simulator.run(until_ms=2_000.0)
        assert simulator.processed_events == processed_after_storm + 1


class TestNaNTimesRejected:
    """A NaN time breaks the heap order (it compares false both ways), so
    every validated entry point rejects it instead of firing it first."""

    def test_simulator_entry_points_reject_nan(self):
        simulator = Simulator(rng=0)
        nan = float("nan")
        for schedule in (
            lambda: simulator.schedule(nan, lambda: None),
            lambda: simulator.schedule_at(nan, lambda: None),
            lambda: simulator.schedule_action(nan, lambda: None),
            lambda: simulator.schedule_at_action(nan, lambda: None),
        ):
            with pytest.raises(SimulationError, match="NaN"):
                schedule()
        assert simulator.pending_events == 0
        simulator.run()
        assert simulator.now_ms == 0.0

    def test_queue_entry_points_reject_nan(self):
        queue = EventQueue()
        nan = float("nan")
        with pytest.raises(SimulationError):
            queue.push(nan, lambda: None)
        with pytest.raises(SimulationError):
            queue.push_action(nan, lambda: None)
        with pytest.raises(SimulationError):
            queue.push_cancellable(nan, print, 1)
        with pytest.raises(SimulationError):
            queue.push_cancellable(-1.0, print, 1)
        assert len(queue) == 0 and queue.peek_time() is None

    def test_nan_no_longer_fires_before_real_events(self):
        simulator = Simulator(rng=0)
        fired: list[float] = []
        simulator.schedule(5.0, lambda: fired.append(simulator.now_ms))
        with pytest.raises(SimulationError):
            simulator.schedule(float("nan"), lambda: fired.append(simulator.now_ms))
        simulator.run()
        assert fired == [5.0]


class TestCancellableCalls:
    def test_push_cancellable_dispatches_with_arguments(self):
        simulator = Simulator(rng=0)
        seen: list[tuple] = []
        event = simulator.queue.push_cancellable(
            3.0, lambda a, b: seen.append((a, b, simulator.now_ms)), "x", 2
        )
        assert event.time_ms == 3.0 and len(simulator.queue) == 1
        simulator.run()
        assert seen == [("x", 2, 3.0)]

    def test_push_cancellable_event_cancels(self):
        simulator = Simulator(rng=0)
        seen: list[int] = []
        simulator.queue.push_cancellable(1.0, seen.append, 1)
        simulator.queue.push_cancellable(2.0, seen.append, 2).cancel()
        assert simulator.pending_events == 1
        simulator.run()
        assert seen == [1]
        assert simulator.processed_events == 1

    def test_pop_and_step_dispatch_cancellable_calls(self):
        queue = EventQueue()
        seen: list[int] = []
        queue.push_cancellable(1.0, seen.append, 7)
        event = queue.pop()
        event.action()
        simulator = Simulator(rng=0)
        simulator.queue.push_cancellable(1.0, seen.append, 8)
        assert simulator.step() is True
        assert seen == [7, 8]

    def test_cancel_drops_the_action(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert event.cancelled and event.action is None
        event.cancel()  # idempotent
        assert len(queue) == 0

    def test_reset_with_argument_entries_pending(self):
        simulator = Simulator(rng=0)
        simulator.queue.push_call(1.0, print, "unfired")
        simulator.queue.push_cancellable(2.0, print, "unfired")
        simulator.reset()
        assert simulator.pending_events == 0
        simulator.run()
        assert simulator.processed_events == 0


class TestMixedEntryOrdering:
    """Every entry kind shares one ``(time, sequence)`` order on the heap."""

    def test_push_action_and_push_call_entries_pop_in_order(self):
        queue = EventQueue()
        fired: list[object] = []
        queue.push_action(2.0, lambda: fired.append("action"))
        queue.push_call(1.0, fired.append, "call")
        queue.push(3.0, lambda: fired.append("event"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["call", "action", "event"]

    def test_ties_across_entry_kinds_keep_insertion_order(self):
        simulator = Simulator(rng=0)
        queue = simulator.queue
        fired: list[str] = []
        queue.push(4.0, lambda: fired.append("push"))
        queue.push_call(4.0, fired.append, "call")
        queue.push_cancellable(4.0, fired.append, "cancellable")
        queue.push_action(4.0, lambda: fired.append("action"))
        simulator.run()
        assert fired == ["push", "call", "cancellable", "action"]

    def test_push_earlier_than_last_pop_still_pops_first(self):
        queue = EventQueue()
        queue.push(50.0, lambda: None)
        queue.push(60.0, lambda: None)
        assert queue.pop().time_ms == 50.0
        queue.push(10.0, lambda: None)
        assert queue.pop().time_ms == 10.0
        assert queue.pop().time_ms == 60.0

    def test_widely_spread_times_pop_in_order(self):
        queue = EventQueue()
        times = [0.0, 10_000.0, 1_000_000.0, 3.0e9]
        for time_ms in reversed(times):
            queue.push(time_ms, lambda: None)
        assert [queue.pop().time_ms for _ in times] == times
        assert queue.pop() is None


def _drain_order(queue) -> list[tuple[float, int]]:
    order = []
    while (event := queue.pop()) is not None:
        order.append((event.time_ms, event.sequence))
    return order


class TestReferenceQueueConformance:
    """Randomized conformance: the tuple heap pops in exactly the order of the
    pre-overhaul dataclass heap, through cancellation and compaction."""

    def test_fuzz_pop_order_matches_reference_queue(self):
        from repro.cluster.reference import ReferenceEventQueue

        rng = np.random.default_rng(1234)
        for _ in range(20):
            queue, reference = EventQueue(), ReferenceEventQueue()
            tracked = []
            for _ in range(200):
                time_ms = float(rng.choice([rng.uniform(0, 50), rng.uniform(0, 5_000)]))
                tracked.append((queue.push(time_ms, lambda: None),
                                reference.push(time_ms, lambda: None)))
            for index in rng.choice(len(tracked), size=60, replace=False):
                for event in tracked[index]:
                    event.cancel()
            assert len(queue) == len(reference) == 140
            assert _drain_order(queue) == _drain_order(reference)

    def test_fuzz_interleaved_push_pop_matches_reference_queue(self):
        from repro.cluster.reference import ReferenceEventQueue

        rng = np.random.default_rng(99)
        queue, reference = EventQueue(), ReferenceEventQueue()
        floor = 0.0
        for _ in range(1_000):
            if len(queue) == 0 or rng.random() < 0.6:
                time_ms = floor + float(rng.uniform(0, 100))
                queue.push(time_ms, lambda: None)
                reference.push(time_ms, lambda: None)
            else:
                a, b = queue.pop(), reference.pop()
                assert (a.time_ms, a.sequence) == (b.time_ms, b.sequence)
                floor = a.time_ms
        assert _drain_order(queue) == _drain_order(reference)

    def test_fuzz_across_compaction_matches_reference_queue(self):
        from repro.cluster.events import COMPACTION_MIN_CANCELLED
        from repro.cluster.reference import ReferenceEventQueue

        rng = np.random.default_rng(7)
        queue, reference = EventQueue(), ReferenceEventQueue()
        tracked = []
        for _ in range(3 * COMPACTION_MIN_CANCELLED):
            time_ms = float(rng.uniform(0, 1_000))
            tracked.append((queue.push(time_ms, lambda: None),
                            reference.push(time_ms, lambda: None)))
        cancelled = rng.choice(len(tracked), size=2 * COMPACTION_MIN_CANCELLED + 100,
                               replace=False)
        for step, index in enumerate(cancelled):
            for event in tracked[index]:
                event.cancel()
            if step % 50 == 0:
                a, b = queue.pop(), reference.pop()
                assert (a.time_ms, a.sequence) == (b.time_ms, b.sequence)
        # Cancelled entries outnumbered live ones past the threshold, so the
        # heap was rebuilt at least once while the order was being checked.
        assert len(queue._heap) < len(reference._heap)
        assert len(queue) == len(reference)
        assert _drain_order(queue) == _drain_order(reference)
