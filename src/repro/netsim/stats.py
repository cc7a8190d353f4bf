"""Bounded-memory latency statistics for long simulations.

The bus used to keep every delivered packet's latency in a Python list and
run ``np.percentile`` over the whole history on demand — O(n) memory and
O(n log n) per query, which makes multi-hour scenario runs slow and
unbounded.  :class:`LatencyAccumulator` keeps the exact sample window up
to a fixed capacity (so short runs report *bit-identical* statistics to
the old list-based code), then spills into a mergeable KLL-style
:class:`~repro.cohort.sketch.QuantileSketch` plus running moments and
answers percentile queries from it from then on.  The sketch's rank
error (4/k, 2 % at the default k) is independent of the value range and
survives merges, so the DES packet latencies of a multi-hour run and the
per-member p50/p99 of a 10^6-member cohort merge alike, without
retaining samples.

Samples arrive one at a time through :meth:`LatencyAccumulator.add` or
as a batch through :meth:`LatencyAccumulator.add_many` (the simulator
kernel hands over its deliveries in batches); both leave the
accumulator in the same state, so batching never shows in the results.

Memory is bounded by ``exact_capacity`` samples plus the sketch's fixed
state regardless of how long the simulation runs.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..errors import SimulationError

#: Samples kept exactly before spilling to the sketch.  Large enough
#: that every seed experiment config stays in exact mode (bit-identical
#: to the pre-streaming implementation), small enough to bound memory.
DEFAULT_EXACT_CAPACITY = 65_536

#: Samples per batch in which a spilling window reaches the sketch.
SPILL_BATCH = 4096


def _window_array(samples: list[float]) -> np.ndarray:
    """The exact window as a float64 array: the array ``np.asarray``
    builds, without first scanning the list for a common type."""
    return np.fromiter(samples, dtype=np.float64, count=len(samples))


def _window_percentile(window: np.ndarray, percentile: float,
                       top: float) -> float:
    """``np.percentile`` of an exact window whose largest sample is *top*.

    numpy interpolates between the two order statistics around the rank,
    which reads ``nan`` when one of them is ``+inf`` (``inf - inf``, or
    ``inf * 0`` when the rank lands exactly on a sample).  A window
    holding ``+inf`` therefore reads the order statistic the rank lands
    on, or ``inf`` when interpolating toward ``inf``; a finite window
    reads exactly what ``np.percentile`` reads, and a NaN sample NaN.
    """
    if top != math.inf:
        return float(np.percentile(window, percentile))
    if np.isnan(window).any():
        return math.nan
    ordered = np.sort(window)
    rank = (len(ordered) - 1) * (percentile / 100.0)
    low = math.floor(rank)
    if rank == low:
        return float(ordered[low])
    if ordered[low + 1] == math.inf:
        return math.inf
    return float(np.percentile(window, percentile))


def _require_finite(values) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        raise SimulationError(
            "quantile sketch values must be finite: "
            f"{np.asarray(values)[np.argmin(finite)]}")


class LatencyAccumulator:
    """Streaming mean / percentile estimator with an exact warm-up window.

    Parameters
    ----------
    exact_capacity:
        Number of samples retained exactly.  While under this bound the
        accumulator behaves identically to keeping a list (``mean`` uses
        ``np.mean``, ``percentile`` uses ``np.percentile``).  Beyond it,
        the samples are folded into a quantile sketch.
    """

    def __init__(self, exact_capacity: int = DEFAULT_EXACT_CAPACITY) -> None:
        if exact_capacity < 1:
            raise SimulationError("exact capacity must be positive")
        self.exact_capacity = exact_capacity
        self.count = 0
        self._samples: list[float] | None = []
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Post-spill quantile sketch.
        self._sketch = None

    # -- recording ---------------------------------------------------------

    def add(self, value: float) -> None:
        """Record one latency sample (seconds), checked like
        :meth:`add_many` before anything moves.

        After the spill the sample goes straight to the running total
        and :meth:`~repro.cohort.sketch.QuantileSketch.add`; a caller
        with many samples (the simulator kernel) hands them to
        :meth:`add_many` in batches instead.
        """
        if value < 0:
            raise SimulationError(f"latency must be non-negative: {value}")
        # Only a sample that spills the window, or a non-finite one after
        # the spill, can hand the sketch something it refuses.
        samples = self._samples
        if (len(samples) >= self.exact_capacity if samples is not None
                else not math.isfinite(value)):
            self._refuse_non_finite([value])
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if samples is not None:
            samples.append(value)
            if len(samples) > self.exact_capacity:
                self._spill()
            return
        self._total += value
        self._sketch.add(value)

    def add_many(self, values) -> None:
        """Record every sample of *values*, in order.

        Leaves the accumulator in exactly the state the equivalent loop
        of :meth:`add` calls would: the exact window fills and spills at
        the same sample, with the same observed extrema, and the rest
        reaches the sketch in arrival order (running total by sequential
        float additions, sketch by
        :meth:`~repro.cohort.sketch.QuantileSketch.add_many`).  The
        samples become one float64 array, checked once before any is
        recorded: negative ones always, non-finite ones whenever they (or
        the window they spill) would reach the sketch.
        """
        array = np.asarray(values, dtype=np.float64)
        if not array.size:
            return
        negative = array < 0.0
        if negative.any():
            raise SimulationError(
                "latency must be non-negative: "
                f"{float(array[negative.argmax()])}")
        self._refuse_non_finite(array)
        if self._samples is not None:
            space = self.exact_capacity + 1 - len(self._samples)
            head, array = array[:space], array[space:]
            self._record(head)
            self._samples.extend(head.tolist())
            if len(self._samples) > self.exact_capacity:
                self._spill()
            if not array.size:
                return
        self._record(array)
        # ``accumulate`` adds in sequence: bit for bit the loop of
        # ``total += value`` that :meth:`add` runs.
        self._total = float(np.add.accumulate(
            np.concatenate(((self._total,), array)))[-1])
        self._sketch.add_many(array)

    def _refuse_non_finite(self, values, added: int | None = None) -> None:
        """Raise, before anything is recorded, if this call would hand
        the sketch a non-finite sample.

        The exact window may hold NaN/inf (a dead member's NaN mean
        latency), so only samples that reach the sketch are checked: all
        of *values* once the window has spilled, and the window itself
        too when this call makes it spill.  *added* is the number of
        samples the call records (``len(values)`` unless *values* are
        the distinct values of a weighted batch).  The window and
        *values* are checked one after the other: joining them would
        copy the whole window at the spill.
        """
        if self._samples is not None:
            if added is None:
                added = len(values)
            if len(self._samples) + added <= self.exact_capacity:
                return
            _require_finite(self._samples)
        _require_finite(values)

    def _record(self, values: np.ndarray) -> None:
        """Count a run of samples and widen the extrema as :meth:`add` does.

        :meth:`add` replaces an extremum only on a strictly smaller (or
        larger) value, so NaN never becomes one and, among equal values
        (``-0.0`` and ``0.0``), the earliest stays: the first occurrence
        that ``argmin``/``argmax`` return over the non-NaN samples.
        """
        self.count += values.size
        numbers = values[~np.isnan(values)]
        if not numbers.size:
            return
        low = float(numbers[numbers.argmin()])
        if low < self._min:
            self._min = low
        high = float(numbers[numbers.argmax()])
        if high > self._max:
            self._max = high

    def add_batch(self, values, counts) -> None:
        """Record ``values[i]`` repeated ``counts[i]`` times, in order.

        Rank queries afterwards return what the equivalent loop of
        :meth:`add` calls would have produced: the exact window fills —
        and spills at the same sample index, with the same observed
        extrema — before any remaining weight folds into the sketch with
        weighted inserts (``QuantileSketch.add_repeated``), costing
        O(distinct values) instead of O(total weight).  The macro-tick
        fast path ingests a whole steady-state segment's latencies this
        way.  The batch is checked like :meth:`add_many`'s before any of
        it is recorded.
        """
        if len(values) != len(counts):
            raise SimulationError(
                "add_batch needs equally many values and counts")
        for value, count in zip(values, counts):
            if value < 0:
                raise SimulationError(
                    f"latency must be non-negative: {value}")
            if count < 0:
                raise SimulationError(
                    f"count must be non-negative: {count}")
        self._refuse_non_finite(
            [value for value, count in zip(values, counts) if int(count)],
            sum(int(count) for count in counts))
        spilled: list[tuple[float, int]] = []
        for value, count in zip(values, counts):
            count = int(count)
            if count == 0:
                continue
            value = float(value)
            self.count += count
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._samples is not None:
                # Mirror add()'s trigger: the window spills on the
                # sample that pushes it past capacity.
                space = self.exact_capacity + 1 - len(self._samples)
                if count < space:
                    self._samples.extend([value] * count)
                    continue
                self._samples.extend([value] * space)
                self._spill()
                count -= space
                if count == 0:
                    continue
            spilled.append((value, count))
        if not spilled:
            return
        for value, count in spilled:
            self._total += value * count
            self._sketch.add_repeated(value, count)

    def _spill(self) -> None:
        """Fold the exact window into a new sketch and drop it.

        The window reaches the sketch in batches of :data:`SPILL_BATCH`
        samples, so the spill never holds an array copy of the whole
        window; the sketch's state does not depend on the batching.
        """
        from ..cohort.sketch import QuantileSketch
        samples = self._samples
        assert samples is not None
        self._total = math.fsum(samples)
        self._sketch = QuantileSketch()
        for start in range(0, len(samples), SPILL_BATCH):
            self._sketch.add_many(samples[start:start + SPILL_BATCH])
        self._samples = None

    # -- merging -----------------------------------------------------------

    def merge(self, other: "LatencyAccumulator") -> None:
        """Fold *other*'s samples into this accumulator, in order.

        While both sides are exact and the union fits the exact window,
        the merge is a plain concatenation — bit-identical to having
        added the samples sequentially, which is what makes shard-merged
        cohort statistics reproduce a serial run exactly.  Once either
        side has spilled (or the union would), every exact sample on
        either side streams into this accumulator's sketch and a foreign
        sketch merges into it losslessly, level by level.  A merge that
        would hand the sketch a non-finite sample is refused before
        anything is recorded.
        """
        if other.count == 0:
            return
        if (self._samples is not None and other._samples is not None
                and self.count + other.count <= self.exact_capacity):
            self._samples.extend(other._samples)
            self.count += other.count
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
            return
        # Every exact sample on either side reaches the sketch from here
        # on: refuse a non-finite one before anything is recorded.
        if self._samples:
            _require_finite(self._samples)
        window = None
        if other._samples is not None:
            window = _window_array(other._samples)
            _require_finite(window)
            if self.count == 0:
                # Nothing locally yet: replay other's window, bit for bit
                # the loop of add() calls.
                self.add_many(window)
                return
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        if self.count == 0:
            from ..cohort.sketch import QuantileSketch
            self._samples = None
            self._sketch = QuantileSketch.from_state(
                other._sketch.to_state())
            self._total = other._total
            self.count = other.count
            return
        if self._samples is not None:
            self._spill()
        self.count += other.count
        if window is not None:
            self._total += math.fsum(other._samples)
            self._sketch.add_many(window)
            return
        self._total += other._total
        self._sketch.merge(other._sketch)

    # -- queries -----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        """Whether every sample is still held exactly."""
        return self._samples is not None

    @property
    def retained_samples(self) -> int:
        """Number of raw samples currently held in memory."""
        return len(self._samples) if self._samples is not None else 0

    @property
    def min_seconds(self) -> float:
        self._require_data()
        return self._min

    @property
    def max_seconds(self) -> float:
        self._require_data()
        return self._max

    @property
    def mean(self) -> float:
        """Mean latency (exact in the warm-up window, running sum after)."""
        self._require_data()
        if self._samples is not None:
            return float(np.mean(_window_array(self._samples)))
        return self._total / self.count

    def mean_and_percentile(self, percentile: float) -> tuple[float, float]:
        """``(mean, percentile(percentile))``, converting an exact window
        to an array once for both.

        That conversion is most of a short run's result queries.
        """
        samples = self._samples
        if samples is None:
            return self.mean, self.percentile(percentile)
        self._require_data()
        if not 0.0 <= percentile <= 100.0:
            raise SimulationError("percentile must be in [0, 100]")
        window = _window_array(samples)
        return (float(np.mean(window)),
                _window_percentile(window, percentile, self._max))

    def percentile(self, percentile: float) -> float:
        """Latency percentile; exact before the spill, sketch after."""
        self._require_data()
        if not 0.0 <= percentile <= 100.0:
            raise SimulationError("percentile must be in [0, 100]")
        if self._samples is not None:
            return _window_percentile(_window_array(self._samples),
                                      percentile, self._max)
        estimate = self._sketch.percentile(percentile)
        return float(min(max(estimate, self._min), self._max))

    def _require_data(self) -> None:
        if self.count == 0:
            raise SimulationError("no packets delivered yet")

    # -- serialisation -----------------------------------------------------

    def to_state(self) -> dict[str, object]:
        """Faithful plain-data snapshot of this accumulator.

        Everything the binary shard codec needs to reconstruct the
        accumulator *bit-exactly* on the other side of a process or file
        boundary: the exact window while exact, the sketch state after
        the spill.
        """
        state: dict[str, object] = {
            "exact_capacity": self.exact_capacity,
            "count": self.count,
            "min": self._min,
            "max": self._max,
        }
        if self._samples is not None:
            state["mode"] = "exact"
            state["samples"] = list(self._samples)
            return state
        state["mode"] = "sketch"
        state["total"] = self._total
        state["sketch"] = self._sketch.to_state()
        return state

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "LatencyAccumulator":
        """Rebuild an accumulator exactly from :meth:`to_state` output."""
        accumulator = cls(exact_capacity=int(state["exact_capacity"]))
        accumulator.count = int(state["count"])
        accumulator._min = float(state["min"])
        accumulator._max = float(state["max"])
        mode = state["mode"]
        if mode == "exact":
            accumulator._samples = list(map(float, state["samples"]))
            if len(accumulator._samples) != accumulator.count:
                raise SimulationError(
                    "accumulator state sample count mismatch")
            return accumulator
        if mode != "sketch":
            raise SimulationError(f"unknown accumulator state mode {mode!r}")
        from ..cohort.sketch import QuantileSketch
        accumulator._samples = None
        accumulator._total = float(state["total"])
        accumulator._sketch = QuantileSketch.from_state(state["sketch"])
        return accumulator
