"""Mergeable quantile sketches for long-run latency and cohort statistics.

:class:`~repro.netsim.stats.LatencyAccumulator` keeps an exact sample
window (bit-identical, but one retained float per sample) and spills
into this sketch beyond it: the DES packet latencies of a long run and
the per-member metrics of a 10^6-member cohort alike.  Its rank error
does not depend on the value range seen before the spill.

:class:`QuantileSketch` is a KLL-style compactor sketch (Karnin, Lang &
Liberty, FOCS'16) with *deterministic* alternating compaction offsets
instead of coin flips, so a fixed seed and merge order reproduce the
same sketch byte-for-byte — the reproducibility contract everything in
this repository keeps.  Properties:

* **Bounded size** — at most ~3·k retained values regardless of how many
  samples were added (k = 200 by default ⇒ a few KiB), so a sketch for
  every member metric ships in a flat-size shard frame.
* **Mergeable** — ``merge`` concatenates level buffers and re-compacts;
  merging shard sketches in shard order is deterministic and loses no
  more rank accuracy than having streamed the samples into one sketch.
* **Documented rank-error envelope** — the randomised KLL guarantee is
  ε ≈ 2.3/k; with deterministic offsets we document and property-test
  the looser :func:`QuantileSketch.rank_error_bound` = 4/k (2 % at the
  default k), measured against ``np.percentile`` on uniform, lognormal,
  sorted and constant streams in ``tests/cohort/test_sketch.py``.

* **One compaction core** — ``add``, ``add_many``, ``add_repeated`` and
  ``merge`` check their input, then share one unchecked loop that
  appends values in runs and compacts; ``add_many`` of a batch gives the
  state the loop of ``add`` calls would, bit for bit.

Values must be finite (percentile queries on ``inf``/``nan`` are
meaningless); callers that track non-finite markers (e.g. "no brownout"
as ``inf``) keep them in exact counters instead.  A batch with any
non-finite value is rejected before anything is recorded.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

import numpy as np

from ..errors import SimulationError

#: Default compactor size; rank-error envelope is ``4 / k`` (2 %).
DEFAULT_K = 200

#: Capacity decay per level below the top (the KLL geometric schedule).
_LEVEL_DECAY = 2.0 / 3.0

#: Floor on any level's capacity.
_MIN_CAPACITY = 2


class QuantileSketch:
    """Deterministic KLL-style streaming quantile sketch.

    Parameters
    ----------
    k:
        Compactor size parameter.  Larger is more accurate and bigger:
        the sketch retains at most ``~3k`` values and answers rank
        queries within :attr:`rank_error_bound` = ``4 / k`` of the true
        normalised rank.
    """

    __slots__ = ("k", "count", "_min", "_max", "_levels", "_flips",
                 "_capacities", "_total_capacity", "_size")

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k < 8:
            raise SimulationError(f"sketch parameter k must be >= 8: {k}")
        self.k = k
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        #: ``_levels[i]`` holds values of weight ``2**i``; level 0 is the
        #: insertion buffer, higher levels are produced by compaction.
        self._levels: list[list[float]] = [[]]
        #: Per-level alternating compaction offset (the deterministic
        #: stand-in for KLL's coin flip).
        self._flips: list[bool] = [False]
        #: Per-level capacities, their sum, and the number of retained
        #: values — kept current so an insert costs O(1), not a re-sum
        #: over every level.
        self._capacities: list[int] = []
        self._total_capacity = 0
        self._size = 0
        self._refresh_capacities()

    # -- recording ---------------------------------------------------------

    def add(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        if not math.isfinite(value):
            raise SimulationError(
                f"quantile sketch values must be finite: {value}")
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._levels[0].append(value)
        self._size += 1
        self._compact()

    def add_many(self, values) -> None:
        """Record every value of the sequence *values*, in order.

        Every value is checked before any is recorded, so a call that
        raises leaves the sketch untouched.  The checked values then go
        through the same compaction loop as :meth:`add`, so the sketch
        ends in exactly the state the equivalent loop of :meth:`add`
        calls would: the extrema are the first occurrences of the
        smallest and largest value (``-0.0`` and ``0.0`` tie), and the
        compactions see the same buffers.
        """
        array = np.asarray(values, dtype=np.float64)
        if not array.size:
            return
        finite = np.isfinite(array)
        if not finite.all():
            raise SimulationError(
                "quantile sketch values must be finite: "
                f"{float(array[finite.argmin()])}")
        self.count += array.size
        low = float(array[array.argmin()])
        if low < self._min:
            self._min = low
        high = float(array[array.argmax()])
        if high > self._max:
            self._max = high
        self._compact(array)

    def add_repeated(self, value: float, weight: int) -> None:
        """Record *value* ``weight`` times in O(log weight) inserts.

        Decomposes the weight into powers of two and inserts the value
        directly at the matching levels — how the macro-tick fast path's
        weighted latency batches fold in without a per-sample loop.
        """
        if weight < 0:
            raise SimulationError(f"weight must be non-negative: {weight}")
        if weight == 0:
            return
        value = float(value)
        if not math.isfinite(value):
            raise SimulationError(
                f"quantile sketch values must be finite: {value}")
        self.count += weight
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        remaining = weight
        while remaining:
            level = remaining.bit_length() - 1
            self._ensure_level(level)
            self._levels[level].append(value)
            self._size += 1
            remaining -= 1 << level
        self._compact()

    def merge(self, other: "QuantileSketch") -> None:
        """Fold *other* into this sketch (level-wise concatenation).

        Both sketches must share ``k``: the capacity schedule, and with
        it the rank-error envelope, is a function of ``k``.
        """
        if other.k != self.k:
            raise SimulationError(
                f"cannot merge a k={other.k} sketch into a k={self.k} sketch")
        if other.count == 0:
            return
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._ensure_level(len(other._levels) - 1)
        for level, items in enumerate(other._levels):
            self._levels[level].extend(items)
        self._size += other._size
        self._compact()

    # -- compaction --------------------------------------------------------

    def _ensure_level(self, level: int) -> None:
        if len(self._levels) > level:
            return
        while len(self._levels) <= level:
            self._levels.append([])
            self._flips.append(False)
        self._refresh_capacities()

    def _refresh_capacities(self) -> None:
        """Recompute the capacity schedule (it depends on the level count)."""
        top = len(self._levels) - 1
        self._capacities = [
            max(_MIN_CAPACITY, math.ceil(self.k * _LEVEL_DECAY ** (top - level)))
            for level in range(len(self._levels))]
        self._total_capacity = sum(self._capacities)

    def _compact(self, values=()) -> None:
        """Append the checked float64 array *values* (none by default) to
        level 0 and compact to capacity.

        The one compaction loop.  It compacts while the sketch holds more
        than its total capacity, and otherwise appends the next run of
        *values* — a run that ends on the value whose :meth:`add` would
        overflow the capacity, so every compaction sees the buffers the
        loop of :meth:`add` calls would.  A compaction halves the lowest
        level holding at least its capacity (one always does while the
        sketch is over capacity, since every capacity is at least two):
        the level is sorted in place, an odd-sized level keeps its
        largest value so weights stay exact, and every other value of
        the rest moves one level up from an alternating offset, flipped
        every compaction — deterministic, but unbiased over repeated
        compactions the same way KLL's coin flip is in expectation.
        """
        levels, flips = self._levels, self._flips
        capacities, total = self._capacities, self._total_capacity
        bottom, size = levels[0], self._size
        position, end = 0, len(values)
        while True:
            if size > total:
                level = 0
                while len(levels[level]) < capacities[level]:
                    level += 1
                items = levels[level]
                items.sort()
                even = len(items) & ~1
                flip = flips[level]
                flips[level] = not flip
                if level + 1 == len(levels):
                    self._ensure_level(level + 1)
                    capacities, total = self._capacities, self._total_capacity
                levels[level + 1] += items[flip:even:2]
                del items[:even]
                size -= even >> 1
            elif position < end:
                stop = min(position + total - size + 1, end)
                bottom += values[position:stop].tolist()
                size += stop - position
                position = stop
            else:
                break
        self._size = size

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    @property
    def min_value(self) -> float:
        self._require_data()
        return self._min

    @property
    def max_value(self) -> float:
        self._require_data()
        return self._max

    @property
    def retained(self) -> int:
        """Number of values currently held (the memory bound)."""
        return self._size

    @property
    def rank_error_bound(self) -> float:
        """Documented normalised rank-error envelope of this sketch."""
        return 4.0 / self.k

    def weighted_items(self) -> Iterator[tuple[float, int]]:
        """Every retained value with its weight (unordered)."""
        for level, items in enumerate(self._levels):
            weight = 1 << level
            for value in items:
                yield value, weight

    def quantile(self, fraction: float) -> float:
        """Value at normalised rank *fraction* (0 → min, 1 → max)."""
        self._require_data()
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError("quantile fraction must be in [0, 1]")
        if fraction == 0.0:
            return self._min
        if fraction == 1.0:
            return self._max
        weighted = sorted(self.weighted_items())
        target = fraction * self.count
        cumulative = 0
        for value, weight in weighted:
            cumulative += weight
            if cumulative >= target:
                return min(max(value, self._min), self._max)
        return self._max

    def percentile(self, percentile: float) -> float:
        """Value at *percentile* (0–100)."""
        if not 0.0 <= percentile <= 100.0:
            raise SimulationError("percentile must be in [0, 100]")
        return self.quantile(percentile / 100.0)

    def _require_data(self) -> None:
        if self.count == 0:
            raise SimulationError("quantile sketch is empty")

    # -- serialisation -----------------------------------------------------

    def to_state(self) -> dict[str, object]:
        """Plain-data snapshot (the shard codec's serialisation hook)."""
        return {
            "k": self.k,
            "count": self.count,
            "min": self._min,
            "max": self._max,
            "flips": list(self._flips),
            "levels": [list(items) for items in self._levels],
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "QuantileSketch":
        """Rebuild a sketch exactly from :meth:`to_state` output."""
        sketch = cls(k=int(state["k"]))
        sketch.count = int(state["count"])
        sketch._min = float(state["min"])
        sketch._max = float(state["max"])
        levels = [list(map(float, items)) for items in state["levels"]]
        flips = [bool(flip) for flip in state["flips"]]
        if not levels:
            levels, flips = [[]], [False]
        if len(flips) != len(levels):
            raise SimulationError(
                "sketch state levels/flips length mismatch")
        sketch._levels = levels
        sketch._flips = flips
        sketch._size = sum(len(items) for items in levels)
        sketch._refresh_capacities()
        return sketch
