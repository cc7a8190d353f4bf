"""Event queue for the discrete-event simulator.

:class:`EventQueue` is a binary heap (:mod:`heapq`) of
``(time, sequence, event)`` entries.  Sequence numbers are unique, so
ties in time resolve on the sequence in C and simultaneous events fire
in the order they were scheduled; the :class:`Event` itself is never
compared.

The batched simulator kernel (:meth:`BodyNetworkSimulator.run`) merges
this queue with its generation, transmission, energy-tick and
controller-cadence streams by ``(time, sequence)`` key;
:meth:`EventQueue.peek_key` and :meth:`EventQueue.claim_sequence` exist
for that merge.  All streams draw sequence numbers from this queue's
counter, so the total order is identical to scheduling every event
here.  What is left on the queue itself is light: scenario events
(sleep/wake, posture, environment swaps) and queued callbacks such as a
controller attached mid-run.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from ..errors import SimulationError


@dataclass
class Event:
    """A scheduled callback, fired at ``time`` in ``sequence`` order."""

    time: float
    sequence: int
    callback: Callable[[], None]


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        # A plain int rather than itertools.count: the simulator kernel
        # hoists this into a local and writes it back, which a generator
        # object would not allow.
        self._seq = 0
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def claim_sequence(self) -> int:
        """Take the next event sequence number without scheduling.

        The simulator kernel orders its generation and transmission
        streams with sequences claimed here, so they interleave with
        queued events exactly as if they had been scheduled.
        """
        sequence = self._seq
        self._seq = sequence + 1
        return sequence

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
        event = Event(time, sequence, callback)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def peek_key(self) -> tuple[float, int] | None:
        """``(time, sequence)`` of the next event, or ``None``."""
        heap = self._heap
        return heap[0][:2] if heap else None

    def peek_time(self) -> float | None:
        """Time of the next event, or ``None`` when the queue is empty.

        The hybrid driver takes the earlier of this and the next
        controller cadence tick as the control horizon: no scheduled
        callback (a scenario event, a queued attach) can fire strictly
        before this instant, so a closed-form leap that ends at or before
        the horizon cannot skip over control work.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Pop and run the next event.  Returns False when the queue is empty."""
        if not self._heap:
            return False
        time, _, event = heapq.heappop(self._heap)
        self._now = time
        event.callback()
        return True

    def run_until(self, end_time: float) -> float:
        """Run every event due at or before *end_time*, then move there.

        Returns the final simulation time, which is *end_time* even when
        the queue drains earlier.
        """
        if not math.isfinite(end_time):
            raise SimulationError(f"end time must be finite, got {end_time}")
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before current time {self._now}"
            )
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            self.step()
        self._now = end_time
        return end_time
