"""Bounded-memory latency statistics for long simulations.

The bus used to keep every delivered packet's latency in a Python list and
run ``np.percentile`` over the whole history on demand — O(n) memory and
O(n log n) per query, which makes multi-hour scenario runs slow and
unbounded.  :class:`LatencyAccumulator` keeps the exact sample window up
to a fixed capacity (so short runs report *bit-identical* statistics to
the old list-based code), then spills into one of two bounded streaming
backends and answers percentile queries from it from then on:

* ``backend="histogram"`` (the default) — a fixed-size log-spaced
  histogram plus running moments; resolution is frozen at the value
  range observed at spill time.
* ``backend="sketch"`` — a mergeable KLL-style
  :class:`~repro.cohort.sketch.QuantileSketch`, whose rank error is
  independent of the value range and survives merges; the cohort engine
  uses this so per-member p50/p99 outlive a 10^6-member merge without
  retaining members.

Memory is bounded by ``exact_capacity`` samples plus the backend's fixed
state regardless of how long the simulation runs.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..errors import SimulationError

#: Samples kept exactly before spilling to the histogram.  Large enough
#: that every seed experiment config stays in exact mode (bit-identical
#: to the pre-streaming implementation), small enough to bound memory.
DEFAULT_EXACT_CAPACITY = 65_536

#: Histogram resolution after the spill.
DEFAULT_BINS = 512

#: Post-spill samples buffered before being folded into the histogram in
#: one vectorised pass.  The fold replays the buffered values in arrival
#: order (sequential float adds for the running total), so buffering is
#: invisible in the results — it only amortises the per-sample
#: ``np.searchsorted`` cost the dense-body hour used to pay.
PENDING_FLUSH_THRESHOLD = 4096

#: Recognised post-spill streaming backends.
BACKENDS = ("histogram", "sketch")


class LatencyAccumulator:
    """Streaming mean / percentile estimator with an exact warm-up window.

    Parameters
    ----------
    exact_capacity:
        Number of samples retained exactly.  While under this bound the
        accumulator behaves identically to keeping a list (``mean`` uses
        ``np.mean``, ``percentile`` uses ``np.percentile``).  Beyond it,
        the samples are folded into the streaming backend.
    bins:
        Number of histogram bins used after the spill (histogram backend).
    backend:
        Post-spill percentile machinery: ``"histogram"`` (log-spaced
        bins, the long-simulation default) or ``"sketch"`` (mergeable
        KLL quantile sketch, the cohort default).  The two backends are
        indistinguishable while the accumulator is exact; they merge
        into each other when mixed (the sketch absorbs histogram bins at
        their merge representatives and vice versa).
    """

    def __init__(self, exact_capacity: int = DEFAULT_EXACT_CAPACITY,
                 bins: int = DEFAULT_BINS,
                 backend: str = "histogram") -> None:
        if exact_capacity < 1:
            raise SimulationError("exact capacity must be positive")
        if bins < 2:
            raise SimulationError("histogram needs at least two bins")
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown accumulator backend {backend!r} "
                f"(known: {', '.join(BACKENDS)})")
        self.exact_capacity = exact_capacity
        self.bins = bins
        self.backend = backend
        self.count = 0
        self._samples: list[float] | None = []
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._edges: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        #: Post-spill quantile sketch (``backend="sketch"`` only).
        self._sketch = None
        #: Post-spill samples awaiting their vectorised backend fold.
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
        if self.backend == "sketch" and (
                len(samples) >= self.exact_capacity if samples is not None
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
        reaches the backend in arrival order (running total by
        sequential float additions, sketch by
        :meth:`~repro.cohort.sketch.QuantileSketch.add_many`).  The
        samples become one float64 array, checked once before any is
        recorded: negative ones always, non-finite ones on the sketch
        backend whenever they (or the window they spill) would reach the
        sketch.
        """
        array = np.asarray(values, dtype=np.float64)
        if not array.size:
            return
        negative = array < 0.0
        if negative.any():
            raise SimulationError(
                "latency must be non-negative: "
                f"{float(array[negative.argmax()])}")
        if self.backend == "sketch":
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
        if self._sketch is not None:
            self._sketch.add_many(array)
        else:
            indices = np.searchsorted(self._edges, array, side="right")
            np.add.at(self._counts, indices, 1)

    def _refuse_non_finite(self, values, added: int | None = None) -> None:
        """Sketch backend: raise, before anything is recorded, if this call
        would hand the sketch a non-finite sample.

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
        finite = np.isfinite(values)
        if not finite.all():
            raise SimulationError(
                "quantile sketch values must be finite: "
                f"{np.asarray(values)[np.argmin(finite)]}")

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
        extrema — before any remaining weight folds into the streaming
        backend with weighted inserts (``QuantileSketch.add_repeated``,
        or one vectorised histogram update), costing O(distinct values)
        instead of O(total weight).  The macro-tick fast path ingests a
        whole steady-state segment's latencies this way.  The batch is
        checked like :meth:`add_many`'s before any of it is recorded.
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
        if self.backend == "sketch":
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
                # sample that pushes it past capacity, seeing exactly
                # the extrema observed up to that point.
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
        if self._sketch is not None:
            for value, count in spilled:
                self._sketch.add_repeated(value, count)
        else:
            indices = np.searchsorted(
                self._edges, [value for value, _ in spilled], side="right")
            np.add.at(self._counts, indices,
                      np.asarray([count for _, count in spilled],
                                 dtype=np.int64))

    def _flush_pending(self) -> None:
        """Fold buffered post-spill samples into the backend.

        The running total replays the buffered values in arrival order —
        the same sequence of float additions the unbuffered code
        performed — and the bin counts (histogram) or inserts (sketch)
        are applied afterwards.
        """
        pending = self._pending
        if not pending:
            return
        total = self._total
        for value in pending:
            total += value
        self._total = total
        if self._sketch is not None:
            self._sketch.add_many(pending)
        else:
            indices = np.searchsorted(self._edges, pending, side="right")
            np.add.at(self._counts, indices, 1)
        # Cleared in place: the simulator kernel holds an alias to this
        # list, which must survive the flush.
        pending.clear()

    def _spill(self) -> None:
        """Fold the exact window into the streaming backend and drop it."""
        samples = self._samples
        assert samples is not None
        self._total = math.fsum(samples)
        if self.backend == "sketch":
            from ..cohort.sketch import QuantileSketch
            self._sketch = QuantileSketch()
            self._sketch.add_many(samples)
            self._samples = None
            return
        # A log-spaced grid cannot include zero, so exact-zero samples
        # (and anything below 1 ns) deliberately land in the bottom
        # open-ended bin, whose bounds and merge representative clamp to
        # the exactly tracked ``_min`` — zeros stay zeros in queries
        # instead of being silently promoted to the 1 ns floor.
        low = max(self._min, 1e-9)
        high = max(self._max, low * (1.0 + 1e-9))
        # Log-spaced interior edges; the outermost bins are open-ended so
        # later samples outside the observed range still land somewhere.
        self._edges = np.logspace(math.log10(low), math.log10(high),
                                  self.bins - 1)
        self._counts = np.zeros(self.bins, dtype=np.int64)
        indices = np.searchsorted(self._edges, np.asarray(samples),
                                  side="right")
        np.add.at(self._counts, indices, 1)
        assert int(self._counts.sum()) == len(samples)
        self._samples = None

    def _bin_index(self, value: float) -> int:
        return int(np.searchsorted(self._edges, value, side="right"))

    # -- merging -----------------------------------------------------------

    def merge(self, other: "LatencyAccumulator") -> None:
        """Fold *other*'s samples into this accumulator, in order.

        While both sides are exact and the union fits the exact window,
        the merge is a plain concatenation — bit-identical to having
        added the samples sequentially, which is what makes shard-merged
        cohort statistics reproduce a serial run exactly.  Once either
        side has spilled (or the union would), the merge folds into this
        accumulator's backend.  Histogram backend: exact samples land in
        their true bins, foreign interior bins are re-binned at their
        geometric midpoint (the natural representative under log
        spacing), and the foreign *open-ended* outer bins — which have
        no finite midpoint — at the observed ``_min``/``_max`` (see
        :meth:`_merge_representative`).  Sketch backend: exact samples
        stream in, a foreign sketch merges losslessly level-by-level,
        and a foreign histogram folds in as weighted merge
        representatives.
        """
        if other.count == 0:
            return
        # Bring both sides' histograms up to date before reading or
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
        # Merge min/max before spilling so the open-ended outer bins are
        # bounded by the true combined range.
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        if self.count == 0:
            # Nothing locally yet: seed the window from other, then retry
            # (possible spill happens against other's own range).
            if other._samples is not None:
                self._samples = []
                for value in other._samples:
                    self.add(value)
                return
            self._samples = None
            self.backend = other.backend
            self.bins = other.bins
            self._edges = (None if other._edges is None
                           else other._edges.copy())
            self._counts = (None if other._counts is None
                            else other._counts.copy())
            if other._sketch is not None:
                from ..cohort.sketch import QuantileSketch
                self._sketch = QuantileSketch.from_state(
                    other._sketch.to_state())
            self._total = other._total
            self.count = other.count
            return
        if self._samples is not None:
            self._spill()
        self.count += other.count
        if other._samples is not None:
            self._total += math.fsum(other._samples)
            if self._sketch is not None:
                self._sketch.add_many(other._samples)
            else:
                indices = np.searchsorted(self._edges,
                                          np.asarray(other._samples),
                                          side="right")
                np.add.at(self._counts, indices, 1)
            return
        self._total += other._total
        if self._sketch is not None:
            if other._sketch is not None:
                self._sketch.merge(other._sketch)
            else:
                # Foreign histogram: fold each bin at its merge
                # representative, weighted by its count.
                for index in range(other.bins):
                    weight = int(other._counts[index])
                    if weight:
                        self._sketch.add_repeated(
                            other._merge_representative(index), weight)
            return
        if other._sketch is not None:
            # Foreign sketch into a local histogram: every retained value
            # lands in its true bin, carrying its compaction weight.
            values, weights = [], []
            for value, weight in other._sketch.weighted_items():
                values.append(value)
                weights.append(weight)
            if values:
                indices = np.searchsorted(self._edges, np.asarray(values),
                                          side="right")
                np.add.at(self._counts, indices,
                          np.asarray(weights, dtype=np.int64))
            return
        midpoints = np.array([other._merge_representative(index)
                              for index in range(other.bins)])
        assert np.isfinite(midpoints).all()
        indices = np.searchsorted(self._edges, midpoints, side="right")
        np.add.at(self._counts, indices, other._counts)

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
        """Latency percentile; exact before the spill, backend after."""
        self._require_data()
        if not 0.0 <= percentile <= 100.0:
            raise SimulationError("percentile must be in [0, 100]")
        if self._samples is not None:
            return float(np.percentile(self._samples, percentile))
        self._flush_pending()
        if self._sketch is not None:
            estimate = self._sketch.percentile(percentile)
            return float(min(max(estimate, self._min), self._max))
        target = percentile / 100.0 * self.count
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, target, side="left"))
        index = min(index, self.bins - 1)
        below = float(cumulative[index - 1]) if index > 0 else 0.0
        in_bin = float(self._counts[index])
        fraction = 0.5
        if in_bin > 0.0:
            fraction = min(max((target - below) / in_bin, 0.0), 1.0)
        low, high = self._bin_bounds(index)
        # Geometric rank interpolation matches the log spacing of the
        # edges; fall back to linear if a bound ever touches zero.
        if low > 0.0 and high > 0.0:
            estimate = low * (high / low) ** fraction
        else:
            estimate = low + fraction * (high - low)
        return float(min(max(estimate, self._min), self._max))

    def _merge_representative(self, index: int) -> float:
        """The single value standing in for one bin during a merge.

        Interior bins use their geometric midpoint (the natural
        representative under log spacing).  The outermost bins are
        open-ended — they collect whatever fell outside the spill-time
        range and have no meaningful midpoint — so their samples merge
        at the *observed* extremes: the exactly tracked ``_min`` for the
        bottom bin and ``_max`` for the top bin.  A post-spill outlier
        therefore stays in the merged tail instead of being dragged
        toward the frozen edges.
        """
        edges = self._edges
        assert edges is not None
        if index == 0:
            return min(self._min, float(edges[0]))
        if index >= len(edges):
            return max(self._max, float(edges[-1]))
        low, high = float(edges[index - 1]), float(edges[index])
        if low > 0.0 and high > 0.0:
            return math.sqrt(low * high)
        return 0.5 * (low + high)

    def _bin_bounds(self, index: int) -> tuple[float, float]:
        """The value range of one bin.

        The outermost bins are open-ended and collect samples outside the
        warm-up range; they are bounded by the exactly tracked min/max so
        a tail that grows after the spill is not capped at the frozen
        edges (congestion onset after warm-up).
        """
        edges = self._edges
        assert edges is not None
        if index == 0:
            return min(self._min, float(edges[0])), float(edges[0])
        if index >= len(edges):
            return float(edges[-1]), max(self._max, float(edges[-1]))
        return float(edges[index - 1]), float(edges[index])

    def _require_data(self) -> None:
        if self.count == 0:
            raise SimulationError("no packets delivered yet")

    # -- serialisation -----------------------------------------------------

    def to_state(self) -> dict[str, object]:
        """Faithful plain-data snapshot of this accumulator.

        Everything the binary shard codec needs to reconstruct the
        accumulator *bit-exactly* on the other side of a process or file
        boundary: the exact window while exact, the histogram or sketch
        state after the spill.  Pending post-spill samples are flushed
        first (the flush replays them in arrival order, so it is
        invisible in the results).
        """
        self._flush_pending()
        state: dict[str, object] = {
            "exact_capacity": self.exact_capacity,
            "bins": self.bins,
            "backend": self.backend,
            "count": self.count,
            "min": self._min,
            "max": self._max,
        }
        if self._samples is not None:
            state["mode"] = "exact"
            state["samples"] = list(self._samples)
            return state
        state["total"] = self._total
        if self._sketch is not None:
            state["mode"] = "sketch"
            state["sketch"] = self._sketch.to_state()
            return state
        state["mode"] = "histogram"
        state["edges"] = self._edges.tolist()
        state["counts"] = self._counts.tolist()
        return state

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "LatencyAccumulator":
        """Rebuild an accumulator exactly from :meth:`to_state` output."""
        accumulator = cls(exact_capacity=int(state["exact_capacity"]),
                          bins=int(state["bins"]),
                          backend=str(state["backend"]))
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
        accumulator._samples = None
        accumulator._total = float(state["total"])
        if mode == "sketch":
            from ..cohort.sketch import QuantileSketch
            accumulator._sketch = QuantileSketch.from_state(state["sketch"])
            return accumulator
        if mode != "histogram":
            raise SimulationError(f"unknown accumulator state mode {mode!r}")
        accumulator._edges = np.asarray(state["edges"], dtype=np.float64)
        accumulator._counts = np.asarray(state["counts"], dtype=np.int64)
        return accumulator
