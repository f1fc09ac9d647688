"""Event records and the priority queue driving the discrete-event simulator.

Events are ordered by scheduled time; ties are broken by an insertion sequence
number so simulation runs are fully deterministic for a fixed seed.

This module is the innermost loop of the cluster substrate: a §5.2
paper-scale validation run pushes and pops millions of events, so the
representation is deliberately lean.  The heap holds ``(time_ms, sequence,
target, *args)`` tuples — tuple comparison happens entirely in C, so no
Python ``__lt__`` runs during sifts — and dispatch is ``target(*args)``.  The
target is a bare callable for uncancellable work or an :class:`Event`, a
``__slots__`` class carrying only the fields the simulator needs, for work
that may be cancelled.  Cancellation is O(1): the event flips a flag, drops
its action and tells its queue, which maintains exact live/cancelled counters
(making ``len(queue)`` O(1)) and compacts the heap when cancelled entries
dominate, keeping memory bounded on timeout-heavy workloads where every
operation schedules a timeout it almost always cancels.

Dropping the action on cancel matters for the cyclic garbage collector.  A
closure action that refers back to the object holding its event (an
operation handle keeping its timeout) forms a reference cycle, which would
otherwise live until the cancelled entry leaves the heap: long enough to be
promoted into the oldest generation.  :meth:`EventQueue.push_cancellable`
avoids the closure altogether.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.exceptions import SimulationError

__all__ = ["Event", "EventQueue"]

#: Compact the heap once at least this many cancelled events are buried in it
#: (and they outnumber the live ones).  Chosen large enough that small runs
#: never compact and big runs amortise the rebuild to O(1) per cancellation.
COMPACTION_MIN_CANCELLED = 1024


def _check_time(time_ms: float) -> None:
    """Reject negative and NaN event times (a NaN time breaks the heap order)."""
    if not time_ms >= 0:
        raise SimulationError(
            f"cannot schedule an event at time {time_ms}; "
            "times must be non-negative numbers"
        )


class Event:
    """A scheduled, cancellable callback.

    Attributes
    ----------
    time_ms:
        Simulated time at which the event fires.
    sequence:
        Monotonic tie-breaker assigned by the queue.
    action:
        Callable invoked when the event fires, with the arguments stored in
        its heap entry (none for :meth:`EventQueue.push`).  ``None`` once the
        event is cancelled.
    label:
        Optional human-readable tag used in error messages and traces.  Hot
        paths leave it empty (see ``event_labels`` on the cluster) so untraced
        runs allocate no per-event strings.
    cancelled:
        Cancelled events remain in the heap but are skipped when popped.
    """

    __slots__ = ("time_ms", "sequence", "action", "label", "cancelled", "_queue")

    def __init__(
        self,
        time_ms: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time_ms = time_ms
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark this event so the simulator skips it (O(1), exact accounting)."""
        if self.cancelled:
            return
        self.cancelled = True
        self.action = None
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()

    def __call__(self, *args: object) -> None:
        """Fire the event: run its action with the heap entry's arguments."""
        self.action(*args)

    def __lt__(self, other: "Event") -> bool:
        # Kept for API compatibility with the earlier ordered-dataclass Event;
        # the queue itself compares (time_ms, sequence) tuples, not events.
        return (self.time_ms, self.sequence) < (other.time_ms, other.sequence)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        tag = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time_ms:.3f}ms seq={self.sequence}{tag} {state}>"


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    The live-event count is maintained incrementally on push/pop/cancel, so
    ``len(queue)`` is O(1) instead of a scan.  Cancelled events stay in the
    heap until popped or until a compaction pass rebuilds the heap without
    them (triggered when they both exceed :data:`COMPACTION_MIN_CANCELLED`
    and outnumber live events — a deterministic rule, so runs stay
    reproducible).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._live = 0
        self._cancelled_pending = 0
        #: Processed-event count as of the end of the last :meth:`drain` call,
        #: maintained even when an event action raises — the simulator reads
        #: it in a ``finally`` so ``processed_events`` (and with it the
        #: event-storm budget) stays exact across failed runs.
        self.last_drain_processed = 0

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events — O(1)."""
        return self._live

    def push(self, time_ms: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time_ms``.

        Returns the :class:`Event`, which supports :meth:`Event.cancel`.  Hot
        paths that never cancel should prefer :meth:`push_action`, which
        skips the Event allocation entirely.
        """
        _check_time(time_ms)
        time_ms = float(time_ms)
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time_ms, sequence, action, label, self)
        heapq.heappush(self._heap, (time_ms, sequence, event))
        self._live += 1
        return event

    def push_cancellable(self, time_ms: float, *call: object) -> Event:
        """Schedule a cancellable pre-bound call ``method(*args)``.

        ``call`` is ``(method, arg1, ..., argN)`` with N <= 3, as for
        :meth:`push_call`.  The returned :class:`Event` holds only ``method``;
        the arguments live in the heap entry.  A handle that keeps its own
        timeout event therefore forms no reference cycle with it, which a
        closure over the handle would.
        """
        _check_time(time_ms)
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time_ms, sequence, call[0], "", self)
        heapq.heappush(self._heap, (time_ms, sequence, event) + call[1:])
        self._live += 1
        return event

    def push_action(self, time_ms: float, action: Callable[[], None]) -> None:
        """Schedule an *uncancellable* ``action`` — no :class:`Event` is allocated.

        The heap entry stores the bare callable; events that never need
        cancellation skip the per-event object entirely.
        """
        _check_time(time_ms)
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (float(time_ms), sequence, action))
        self._live += 1

    def push_call(self, time_ms: float, *call: object) -> None:
        """Schedule an *uncancellable* pre-bound call ``method(*args)``.

        ``call`` is ``(method, arg1, ..., argN)`` with N <= 3.  The heap entry
        is the flat tuple ``(time_ms, sequence, method, arg1, ...)`` — no
        closure is created at schedule time and no Python frame is spent
        unwrapping one at dispatch time, which is what makes this the
        message-delivery fast path (millions of sends per paper-scale run).
        Times are not validated here: callers pass ``now`` plus a delay drawn
        from a validated latency distribution.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (time_ms, sequence) + call)
        self._live += 1

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or ``None`` if empty.

        Entries that carry arguments or no :class:`Event` are wrapped in a
        detached :class:`Event` so the return type stays uniform
        (the simulator's run loop uses the raw-entry API below and never pays
        for this).
        """
        entry = self._pop_raw(float("inf"))
        if entry is None:
            return None
        item = entry[2]
        if len(entry) == 3:
            return item if item.__class__ is Event else Event(entry[0], -1, item)
        return Event(entry[0], -1, lambda e=entry: e[2](*e[3:]))

    def _pop_raw(self, until_ms: float) -> "tuple | None":
        """Fused peek+pop of the earliest live heap entry with ``time <= until_ms``.

        Returns the raw heap tuple (see :meth:`push_call` for the layout) so
        the simulator's run loop can dispatch without intermediate
        allocations; cancelled events are skipped and accounted.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            item = entry[2]
            if item.__class__ is Event:
                if item.cancelled:
                    heapq.heappop(heap)
                    self._cancelled_pending -= 1
                    continue
                if entry[0] > until_ms:
                    return None
                heapq.heappop(heap)
                # Detach so a late cancel() (e.g. of an already-fired
                # timeout) cannot corrupt the live count.
                item._queue = None
                self._live -= 1
                return entry
            if entry[0] > until_ms:
                return None
            heapq.heappop(heap)
            self._live -= 1
            return entry
        return None

    def peek_time(self) -> float | None:
        """Return the firing time of the next non-cancelled event without removing it."""
        heap = self._heap
        while heap and heap[0][2].__class__ is Event and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        # Detach surviving events so cancelling one later cannot decrement
        # the counters of a queue it no longer belongs to.
        for entry in self._heap:
            item = entry[2]
            if item.__class__ is Event:
                item._queue = None
        self._heap.clear()
        self._live = 0
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Cancellation accounting.
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` exactly once per pending event."""
        self._live -= 1
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= COMPACTION_MIN_CANCELLED
            and self._cancelled_pending > self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (preserves ordering).

        Mutates the heap list *in place* (slice assignment) because
        :meth:`drain` holds a local reference to it while events — whose
        actions may cancel other events and trigger compaction — are running.
        """
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[2].__class__ is not Event or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # The drain loop.
    # ------------------------------------------------------------------
    def drain(
        self,
        clock,
        horizon: float,
        processed: int,
        max_events: int,
    ) -> int:
        """Pop and dispatch every live entry with ``time <= horizon``.

        This is the simulator's inner loop, hosted here so the heap, the
        heappop builtin, and the clock are locals — at millions of events the
        saved attribute loads and call frames are a measurable share of the
        run.  Returns the updated processed-event count; raises
        :class:`SimulationError` past ``max_events``.  ``clock`` is a
        :class:`~repro.cluster.clock.SimulationClock`; its ``now_ms`` is
        assigned directly (heap order guarantees monotonicity, which is also
        asserted).
        """
        heap = self._heap
        pop = heapq.heappop
        now = clock.now_ms
        try:
            while heap:
                entry = heap[0]
                item = entry[2]
                if item.__class__ is Event:
                    if item.cancelled:
                        pop(heap)
                        self._cancelled_pending -= 1
                        continue
                    if entry[0] > horizon:
                        break
                    pop(heap)
                    item._queue = None
                else:
                    if entry[0] > horizon:
                        break
                    pop(heap)
                self._live -= 1
                time_ms = entry[0]
                if time_ms != now:
                    if time_ms < now:
                        raise SimulationError(
                            f"clock cannot move backwards (now={now}, "
                            f"requested={time_ms})"
                        )
                    now = time_ms
                    clock.now_ms = time_ms
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "possible event storm"
                    )
                length = len(entry)
                if length == 5:
                    entry[2](entry[3], entry[4])
                elif length == 6:
                    entry[2](entry[3], entry[4], entry[5])
                elif length == 4:
                    entry[2](entry[3])
                else:
                    item()
        finally:
            self.last_drain_processed = processed
        return processed
