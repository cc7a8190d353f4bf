"""Event queue for the discrete-event simulator.

:class:`EventQueue` is a calendar queue (Brown 1988): events hash into
time-width buckets, each kept sorted, and the queue walks the calendar
cursor forward to pop in ``(time, sequence)`` order.  Insert and pop are
O(1) amortised under the steady-state workloads the simulator produces
(periodic generation, one in-flight transmission chain, energy ticks),
where a binary heap pays O(log n) comparisons per operation through a
Python-level ``__lt__``.  The bucket count and width re-size themselves
from the observed event spacing as the population grows or shrinks.

Cancelled events are skipped lazily when popped, but the queue keeps a
live count of them and compacts the calendar (filter + redistribute) as
soon as cancelled entries outnumber live ones, so a workload that
schedules and cancels aggressively (e.g. duty-cycled scenario events)
cannot grow the store without bound.  ``len(queue)`` is O(1).

:class:`HeapEventQueue` preserves the historical binary-heap
implementation.  It is the differential-testing reference: a Hypothesis
property in ``tests/netsim/test_calendar_queue.py`` drives both queues
with the same operation sequence and asserts identical pop order.

The batched simulator kernel (:meth:`BodyNetworkSimulator.run`) merges
this queue with its generation, transmission, energy-tick and
controller-cadence streams by ``(time, sequence)`` key;
:meth:`EventQueue.peek_key` and :meth:`EventQueue.claim_sequence` exist
for that merge.  All streams
draw sequence numbers from this queue's counter, so the total order is
identical to scheduling every event here.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable

from ..errors import SimulationError

#: Initial calendar geometry; resizes kick in once the store grows.
_INITIAL_BUCKETS = 8
_INITIAL_WIDTH = 1.0

#: Events sampled (from the sorted store) to estimate the bucket width
#: at each resize.
_WIDTH_SAMPLE = 128


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events are ordered by time, then by insertion sequence so simultaneous
    events fire in the order they were scheduled (deterministic runs).
    """

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _queue: "EventQueue | HeapEventQueue | None" = field(
        default=None, compare=False, repr=False)
    _in_heap: bool = field(default=False, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._in_heap and self._queue is not None:
            self._queue._note_cancelled(self)


class EventQueue:
    """A calendar-queue priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        # A plain int rather than itertools.count: the simulator kernel
        # hoists this into a local and writes it back, which a generator
        # object would not allow.
        self._seq = 0
        self._now = 0.0
        self._cancelled_count = 0
        self._stored = 0  # physical entries, including cancelled ones
        self._head: Event | None = None  # cached current minimum, if known
        self._width = _INITIAL_WIDTH
        self._bucket_count = _INITIAL_BUCKETS
        self._buckets: list[list[Event]] = [[] for _ in range(_INITIAL_BUCKETS)]
        self._cursor = 0  # absolute bucket index: floor(time / width)

    # -- bookkeeping -------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def __len__(self) -> int:
        return self._stored - self._cancelled_count

    @property
    def stored_events(self) -> int:
        """Physical entries currently held, including cancelled ones.

        The compaction bound keeps this below twice the live count.
        """
        return self._stored

    def claim_sequence(self) -> int:
        """Take the next event sequence number without scheduling.

        The simulator kernel orders its generation and transmission
        streams with sequences claimed here, so they interleave with
        queued events exactly as if they had been scheduled.
        """
        sequence = self._seq
        self._seq = sequence + 1
        return sequence

    def _note_cancelled(self, event: Event) -> None:
        """Track a cancellation and compact once the store is mostly dead."""
        if event is self._head:
            self._head = None
        self._cancelled_count += 1
        if self._cancelled_count > self._stored // 2:
            self._compact()

    def _compact(self) -> None:
        live = [event for bucket in self._buckets for event in bucket
                if not event.cancelled]
        self._rebuild(live)

    def _rebuild(self, live: list[Event]) -> None:
        """Re-distribute *live* events into a freshly sized calendar."""
        live.sort()
        count = self._ideal_bucket_count(len(live))
        self._width = self._estimate_width(live)
        self._bucket_count = count
        self._buckets = [[] for _ in range(count)]
        width = self._width
        for event in live:
            # Already sorted, so appends keep each bucket ordered.
            self._buckets[int(event.time / width) % count].append(event)
        self._stored = len(live)
        self._cancelled_count = 0
        first = live[0].time if live else self._now
        self._cursor = int(first / width)
        self._head = live[0] if live else None

    @staticmethod
    def _ideal_bucket_count(population: int) -> int:
        count = _INITIAL_BUCKETS
        while count < population:
            count *= 2
        return count

    def _estimate_width(self, live: list[Event]) -> float:
        """Bucket width from the spacing of the earliest stored events."""
        if len(live) < 2:
            return self._width
        sample = live[:_WIDTH_SAMPLE]
        span = sample[-1].time - sample[0].time
        if span <= 0.0 or not math.isfinite(span):
            return self._width
        # Three average gaps per bucket: a few events per bucket in the
        # steady state, the classic calendar-queue operating point.
        return 3.0 * span / (len(sample) - 1)

    def _maybe_resize(self) -> None:
        if self._stored > 2 * self._bucket_count or (
                self._bucket_count > _INITIAL_BUCKETS
                and self._stored < self._bucket_count // 8):
            self._compact()

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        sequence = self._seq
        self._seq = sequence + 1
        event = Event(time=time, sequence=sequence,
                      callback=callback, _queue=self, _in_heap=True)
        index = int(time / self._width)
        bucket = self._buckets[index % self._bucket_count]
        if bucket and bucket[-1] < event:
            bucket.append(event)
        else:
            insort(bucket, event)
        self._stored += 1
        if index < self._cursor:
            self._cursor = index
        head = self._head
        if head is not None and event < head:
            self._head = event
        elif head is None and self._stored == 1:
            self._head = event
        self._maybe_resize()
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* after a relative delay."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    # -- ordered access ----------------------------------------------------

    def _peek(self) -> Event | None:
        """The earliest live event, without removing it."""
        head = self._head
        if head is not None and not head.cancelled:
            return head
        if self._stored - self._cancelled_count == 0:
            return None
        buckets = self._buckets
        count = self._bucket_count
        width = self._width
        cursor = self._cursor
        scanned = 0
        while True:
            bucket = buckets[cursor % count]
            # Lazily drop cancelled entries blocking the bucket head.
            while bucket and bucket[0].cancelled:
                bucket.pop(0)._in_heap = False
                self._stored -= 1
                self._cancelled_count -= 1
            if bucket and bucket[0].time < (cursor + 1) * width:
                self._cursor = cursor
                self._head = bucket[0]
                return bucket[0]
            cursor += 1
            scanned += 1
            if scanned >= count:
                # A sparse year: jump the cursor straight to the minimum
                # bucket head instead of walking empty buckets.
                candidates = [bucket[0] for bucket in buckets if bucket]
                if not candidates:
                    return None
                earliest = min(candidates)
                cursor = int(earliest.time / width)
                scanned = 0

    def _pop_head(self, head: Event) -> None:
        """Remove *head* (the event `_peek` just returned) from its bucket."""
        bucket = self._buckets[int(head.time / self._width)
                               % self._bucket_count]
        # _peek leaves the head at the front of its (sorted) bucket.
        bucket.pop(0)
        head._in_heap = False
        self._stored -= 1
        self._head = None

    def peek_key(self) -> tuple[float, int] | None:
        """``(time, sequence)`` of the next live event, or ``None``."""
        head = self._peek()
        if head is None:
            return None
        return head.time, head.sequence

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` when the queue is empty.

        The hybrid driver takes the earlier of this and the next
        controller cadence tick as the control horizon: no scheduled
        callback (a scenario event, a queued attach) can fire strictly
        before this instant, so a closed-form leap that ends at or before
        the horizon cannot skip over control work.
        """
        head = self._peek()
        if head is None:
            return None
        return head.time

    def pop_next(self) -> Event | None:
        """Remove and return the next live event without firing it.

        Does not advance :attr:`now`; the caller (the simulator kernel)
        owns the clock while merging event streams.
        """
        head = self._peek()
        if head is None:
            return None
        self._pop_head(head)
        return head

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Pop and run the next event.  Returns False when the queue is empty."""
        event = self.pop_next()
        if event is None:
            return False
        self._now = event.time
        event.callback()
        return True

    def run_until(self, end_time: float) -> float:
        """Run events until *end_time* (exclusive of later events).

        Returns the final simulation time, which is *end_time* even when
        the queue drains earlier.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before current time {self._now}"
            )
        while True:
            event = self._peek()
            if event is None or event.time > end_time:
                break
            self._pop_head(event)
            self._now = event.time
            event.callback()
        self._now = end_time
        return self._now


class HeapEventQueue:
    """The historical binary-heap queue, kept as a reference implementation.

    Same public surface as :class:`EventQueue` (minus the kernel merge
    hooks); property tests drive both with identical operation sequences
    and assert identical pop order.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._cancelled_count = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled_count

    @property
    def stored_events(self) -> int:
        """Physical entries currently held, including cancelled ones."""
        return len(self._heap)

    def _note_cancelled(self, event: Event) -> None:
        """Track a cancellation and compact once the heap is mostly dead."""
        self._cancelled_count += 1
        if self._cancelled_count > len(self._heap) // 2:
            self._compact()

    def _compact(self) -> None:
        self._heap = [event for event in self._heap if not event.cancelled]
        heapq.heapify(self._heap)
        self._cancelled_count = 0

    def _pop(self) -> Event:
        event = heapq.heappop(self._heap)
        event._in_heap = False
        if event.cancelled:
            self._cancelled_count -= 1
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        event = Event(time=time, sequence=next(self._counter),
                      callback=callback, _queue=self, _in_heap=True)
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* after a relative delay."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def step(self) -> bool:
        """Pop and run the next event.  Returns False when the queue is empty."""
        while self._heap:
            event = self._pop()
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> float:
        """Run events until *end_time* (exclusive of later events)."""
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before current time {self._now}"
            )
        while self._heap:
            next_event = self._heap[0]
            if next_event.cancelled:
                self._pop()
                continue
            if next_event.time > end_time:
                break
            self.step()
        self._now = end_time
        return self._now
