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

The exact window is one ``array("d")`` of raw doubles, the type of the
kernel's latency batch: batches are copied in as bytes, and the
finiteness checks, queries, spill, merges and the shard codec read it
through the buffer protocol, with no Python float per sample.  It holds
the same doubles the historical list held, bit for bit (``-0.0`` and
NaN payloads included).

Memory is bounded by ``exact_capacity`` samples (8 bytes each) plus the
sketch's fixed state regardless of how long the simulation runs.
"""

from __future__ import annotations

import math
from array import array
from typing import Mapping

import numpy as np

from ..errors import SimulationError

#: Samples kept exactly before spilling to the sketch.  Large enough
#: that every seed experiment config stays in exact mode (bit-identical
#: to the pre-streaming implementation), small enough to bound memory.
DEFAULT_EXACT_CAPACITY = 65_536


def _window_array(samples: array) -> np.ndarray:
    """A float64 copy of the exact window (one memcpy).

    A copy, not a view: an ``array("d")`` that exports its buffer
    refuses to grow, so no numpy view of the window may outlive a call.
    """
    return np.array(samples, dtype=np.float64)


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
        ``np.mean``, ``percentile`` uses ``np.percentile``), though the
        window is held as raw doubles.  Beyond it, the samples are
        folded into a quantile sketch.
    """

    def __init__(self, exact_capacity: int = DEFAULT_EXACT_CAPACITY) -> None:
        if exact_capacity < 1:
            raise SimulationError("exact capacity must be positive")
        self.exact_capacity = exact_capacity
        self.count = 0
        #: The exact window as raw doubles; ``None`` after the spill.
        self._samples: array | None = array("d")
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
        value = float(value)
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
        samples become one contiguous float64 array (a view of an
        ``array("d")`` batch such as the kernel's), checked once before
        any is recorded: negative ones always, non-finite ones whenever
        they (or the window they spill) would reach the sketch.  The part
        that fits the window is copied in as bytes.
        """
        batch = np.ascontiguousarray(values, dtype=np.float64)
        if not batch.size:
            return
        negative = batch < 0.0
        if negative.any():
            raise SimulationError(
                "latency must be non-negative: "
                f"{float(batch[negative.argmax()])}")
        self._refuse_non_finite(batch)
        samples = self._samples
        if samples is not None:
            space = self.exact_capacity + 1 - len(samples)
            head, batch = batch[:space], batch[space:]
            self._record(head)
            samples.frombytes(memoryview(head).cast("B"))
            if len(samples) > self.exact_capacity:
                self._spill()
            if not batch.size:
                return
        self._record(batch)
        # ``accumulate`` adds in sequence: bit for bit the loop of
        # ``total += value`` that :meth:`add` runs.
        self._total = float(np.add.accumulate(
            np.concatenate(((self._total,), batch)))[-1])
        self._sketch.add_many(batch)

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
        it is recorded, and so are the counts: each must be a whole
        number (a Python or numpy integer, or an integral float such as
        ``2.0``).
        """
        if len(values) != len(counts):
            raise SimulationError(
                "add_batch needs equally many values and counts")
        whole_counts = []
        for value, count in zip(values, counts):
            if value < 0:
                raise SimulationError(
                    f"latency must be non-negative: {value}")
            if count < 0:
                raise SimulationError(
                    f"count must be non-negative: {count}")
            try:
                whole = int(count)
            except (ValueError, OverflowError):
                whole = None
            if whole is None or whole != count:
                raise SimulationError(
                    f"count must be a whole number: {count}")
            whole_counts.append(whole)
        self._refuse_non_finite(
            [value for value, count in zip(values, whole_counts) if count],
            sum(whole_counts))
        spilled: list[tuple[float, int]] = []
        for value, count in zip(values, whole_counts):
            if count == 0:
                continue
            value = float(value)
            self.count += count
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            samples = self._samples
            if samples is not None:
                # Mirror add()'s trigger: the window spills on the
                # sample that pushes it past capacity.
                space = self.exact_capacity + 1 - len(samples)
                run = array("d", (value,))
                if count < space:
                    samples.extend(run * count)
                    continue
                samples.extend(run * space)
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

        The sketch reads the whole window through the buffer protocol in
        one :meth:`~repro.cohort.sketch.QuantileSketch.add_many` call
        (its state does not depend on how a stream is batched), and the
        running total starts as the window's ``math.fsum``.
        """
        from ..cohort.sketch import QuantileSketch
        samples = self._samples
        assert samples is not None
        self._total = math.fsum(samples)
        self._sketch = QuantileSketch()
        self._sketch.add_many(samples)
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
        anything is recorded.  *other* may be this accumulator: the merge
        then folds a snapshot, as merging a copy would.
        """
        if other.count == 0:
            return
        samples, window = self._samples, other._samples
        if (samples is not None and window is not None
                and self.count + other.count <= self.exact_capacity):
            # ``array.extend`` reads the length of *window* first, so a
            # self-merge appends exactly one copy of the window.
            samples.extend(window)
            self.count += other.count
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
            return
        # Every exact sample on either side reaches the sketch from here
        # on: refuse a non-finite one before anything is recorded.
        if samples:
            _require_finite(samples)
        if window is not None:
            # Copied before anything moves: in a self-merge, the spill
            # below empties the window this one is read from.
            window = array("d", window)
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
        if samples is not None:
            self._spill()
        self.count += other.count
        if window is not None:
            self._total += math.fsum(window)
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

        Everything needed to reconstruct the accumulator *bit-exactly*
        on the other side of a process or file boundary: the exact
        window (a plain list of floats, so the snapshot is JSON data)
        while exact, the sketch state after the spill.
        """
        state = self._raw_state()
        if state["mode"] == "exact":
            state["samples"] = state["samples"].tolist()
        return state

    def _raw_state(self) -> dict[str, object]:
        """:meth:`to_state` with the live exact window (the accumulator's
        own ``array("d")``, not a copy) in place of a list.

        For :meth:`to_state` and the shard codec only, which consume the
        window before the accumulator can change again.
        """
        state: dict[str, object] = {
            "exact_capacity": self.exact_capacity,
            "count": self.count,
            "min": self._min,
            "max": self._max,
        }
        if self._samples is not None:
            state["mode"] = "exact"
            state["samples"] = self._samples
            return state
        state["mode"] = "sketch"
        state["total"] = self._total
        state["sketch"] = self._sketch.to_state()
        return state

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "LatencyAccumulator":
        """Rebuild an accumulator exactly from :meth:`to_state` output.

        ``samples`` may be any sequence of floats; an ``array("d")`` (the
        shard codec decodes the window as one) is copied as bytes.
        """
        accumulator = cls(exact_capacity=int(state["exact_capacity"]))
        accumulator.count = int(state["count"])
        accumulator._min = float(state["min"])
        accumulator._max = float(state["max"])
        mode = state["mode"]
        if mode == "exact":
            accumulator._samples = array("d", state["samples"])
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
