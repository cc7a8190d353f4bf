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

#: Post-spill samples buffered before being folded into the sketch in
#: one vectorised pass.  The fold replays the buffered values in arrival
#: order (sequential float adds for the running total), so buffering is
#: invisible in the results — it only amortises the per-sample sketch
#: insert the dense-body hour would otherwise pay.
PENDING_FLUSH_THRESHOLD = 4096

#: Fixed ``backend`` and ``bins`` fields of :meth:`LatencyAccumulator.
#: to_state` and of the shard codec's accumulator layout.  They name the
#: one post-spill backend; dropping them changes the frame layout and
#: needs a ``SHARD_CODEC_VERSION`` bump.
STATE_BACKEND = "sketch"
STATE_BINS = 512


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
        #: Post-spill samples awaiting their vectorised sketch fold.
        self._pending: list[float] = []

    # -- recording ---------------------------------------------------------

    def add(self, value: float) -> None:
        """Record one latency sample (seconds), checked like
        :meth:`add_many` before anything moves."""
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
        self._pending.append(value)
        if len(self._pending) >= PENDING_FLUSH_THRESHOLD:
            self._flush_pending()

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
        self._flush_pending()
        # ``accumulate`` adds in sequence: bit for bit the loop of
        # ``total += value`` that ``_flush_pending`` runs.
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
        the distinct values of a weighted batch).
        """
        if self._samples is not None:
            if added is None:
                added = len(values)
            if len(self._samples) + added <= self.exact_capacity:
                return
            values = np.concatenate((self._samples, values))
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
        self._flush_pending()
        for value, count in spilled:
            self._total += value * count
            self._sketch.add_repeated(value, count)

    def _flush_pending(self) -> None:
        """Fold buffered post-spill samples into the sketch.

        The running total replays the buffered values in arrival order —
        the same sequence of float additions the unbuffered code
        performed — and the sketch inserts are applied afterwards.
        """
        pending = self._pending
        if not pending:
            return
        total = self._total
        for value in pending:
            total += value
        self._total = total
        self._sketch.add_many(pending)
        # Cleared in place: the simulator kernel holds an alias to this
        # list, which must survive the flush.
        pending.clear()

    def _spill(self) -> None:
        """Fold the exact window into a new sketch and drop it."""
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
        anything is recorded.
        """
        if other.count == 0:
            return
        # Bring both sides' sketches up to date before reading or
        # combining totals; a flush replays buffered adds in order, so
        # flushing here preserves the documented addition order.
        self._flush_pending()
        other._flush_pending()
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
            window = np.asarray(other._samples, dtype=np.float64)
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
            return float(np.mean(self._samples))
        self._flush_pending()
        return self._total / self.count

    def mean_and_percentile(self, percentile: float) -> tuple[float, float]:
        """``(mean, percentile(percentile))``, converting an exact window
        to an array once for both.

        That conversion is most of a short run's result queries.
        ``np.fromiter`` builds the array ``np.asarray`` would, without
        first scanning the list for a common type, so both values are
        the ones :attr:`mean` and :meth:`percentile` return.
        """
        samples = self._samples
        if samples is None:
            return self.mean, self.percentile(percentile)
        self._require_data()
        if not 0.0 <= percentile <= 100.0:
            raise SimulationError("percentile must be in [0, 100]")
        window = np.fromiter(samples, dtype=np.float64, count=len(samples))
        return (float(np.mean(window)),
                float(np.percentile(window, percentile)))

    def percentile(self, percentile: float) -> float:
        """Latency percentile; exact before the spill, sketch after."""
        self._require_data()
        if not 0.0 <= percentile <= 100.0:
            raise SimulationError("percentile must be in [0, 100]")
        if self._samples is not None:
            return float(np.percentile(self._samples, percentile))
        self._flush_pending()
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
        the spill.  Pending post-spill samples are flushed first (the
        flush replays them in arrival order, so it is invisible in the
        results).
        """
        self._flush_pending()
        state: dict[str, object] = {
            "exact_capacity": self.exact_capacity,
            "bins": STATE_BINS,
            "backend": STATE_BACKEND,
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
        if (state["backend"] != STATE_BACKEND
                or int(state["bins"]) != STATE_BINS):
            raise SimulationError(
                f"unsupported accumulator state backend {state['backend']!r}"
                f" with {state['bins']} bins (only {STATE_BACKEND!r} with "
                f"{STATE_BINS})")
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
