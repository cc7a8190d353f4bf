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

* **Bounded size** — at most one level-0 buffer (B < k values) plus
  ~3·k compacted values, so ~4·k retained regardless of how many
  samples were added (k = 200 by default ⇒ a few KiB), and a sketch for
  every member metric ships in a flat-size shard frame.
* **Mergeable** — ``merge`` concatenates level buffers and re-compacts;
  merging shard sketches in shard order is deterministic and loses no
  more rank accuracy than having streamed the samples into one sketch.
* **Documented rank-error envelope** — the randomised KLL guarantee is
  ε ≈ 2.3/k; with deterministic offsets we document and property-test
  the looser :func:`QuantileSketch.rank_error_bound` = 4/k (2 % at the
  default k), measured against ``np.percentile`` on uniform, lognormal,
  sorted and constant streams in ``tests/cohort/test_sketch.py``.

* **Array-speed ingest, split-invariant** — weight-1 values fill a
  level-0 buffer of fixed size B that is compacted each time it fills
  (KLL's lazy compaction): the full buffer is sorted and every other
  value, from an offset that alternates buffer by buffer, moves to
  level 1, whose compactions then run as before.  ``add_many`` sorts
  every full buffer of a batch with one numpy sort.  Where a buffer
  fills depends on the number of values alone, so ``add``, ``add_many``
  and any split of a stream into batches end in the same state, bit
  for bit.  The sort is on int64 total-order keys, so ``-0.0`` sorts
  before ``0.0`` whatever sort algorithm numpy dispatches to.

Values must be finite (percentile queries on ``inf``/``nan`` are
meaningless); callers that track non-finite markers (e.g. "no brownout"
as ``inf``) keep them in exact counters instead.  A batch with any
non-finite value is rejected before anything is recorded.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..errors import SimulationError

#: Default compactor size; rank-error envelope is ``4 / k`` (2 %).
DEFAULT_K = 200

#: Capacity decay per level below the top (the KLL geometric schedule).
_LEVEL_DECAY = 2.0 / 3.0

#: Floor on any level's capacity.
_MIN_CAPACITY = 2

#: The 63 magnitude bits of an IEEE-754 double.  XOR-ing them into a
#: negative double's bits (read as int64) turns the bits into keys whose
#: integer order is the float order, with ``-0.0`` before ``0.0``; the
#: same XOR maps a key back.
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def buffer_size(k: int) -> int:
    """Level-0 buffer size B for compactor size *k*: ``7k/8``, even.

    Levels 1 and up hold at most their capacities, ~3·k plus two per
    level of the ``_MIN_CAPACITY`` floor; the ``k/8`` left below k keeps
    the buffer and those levels within 4·k for streams of up to ~10^9
    values at the default k.
    """
    return (k - k // 8) & ~1


class QuantileSketch:
    """Deterministic KLL-style streaming quantile sketch.

    Parameters
    ----------
    k:
        Compactor size parameter.  Larger is more accurate and bigger:
        the sketch retains at most ``~4k`` values and answers rank
        queries within :attr:`rank_error_bound` = ``4 / k`` of the true
        normalised rank.
    """

    __slots__ = ("k", "count", "_min", "_max", "_levels", "_flips",
                 "_capacities", "_total_capacity", "_size", "_width")

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k < 8:
            raise SimulationError(f"sketch parameter k must be >= 8: {k}")
        self.k = k
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        #: ``_levels[i]`` holds values of weight ``2**i``; level 0 is the
        #: insertion buffer of ``_width`` values, higher levels are
        #: produced by compaction.
        self._levels: list[list[float]] = [[]]
        self._width = buffer_size(k)
        #: Per-level alternating compaction offset (the deterministic
        #: stand-in for KLL's coin flip).
        self._flips: list[bool] = [False]
        #: Capacities of levels 1 and up (``_capacities[0]`` is unused),
        #: their sum, and the number of values those levels hold — kept
        #: current so a compaction check is O(1), not a re-sum.
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
        buffer = self._levels[0]
        buffer.append(value)
        if len(buffer) == self._width:
            self._ingest(())

    def add_many(self, values) -> None:
        """Record every value of the sequence *values*, in order.

        Every value is checked before any is recorded, so a call that
        raises leaves the sketch untouched.  The sketch ends in exactly
        the state the equivalent loop of :meth:`add` calls would: the
        extrema are the first occurrences of the smallest and largest
        value (``-0.0`` and ``0.0`` tie), and the level-0 buffer fills
        and compacts at the same values.
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
        self._ingest(array)

    def add_repeated(self, value: float, weight: int) -> None:
        """Record *value* ``weight`` times in O(log weight) inserts.

        Decomposes the weight into powers of two and inserts the value
        directly at the matching levels — how the macro-tick fast path's
        weighted latency batches fold in without a per-sample loop.  An
        odd weight's last unit goes through the level-0 buffer like an
        :meth:`add`.
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
        if weight > 1:
            self._ensure_level(weight.bit_length() - 1)
            for level in range(1, weight.bit_length()):
                if weight >> level & 1:
                    self._levels[level].append(value)
                    self._size += 1
            self._compact()
        if weight & 1:
            self._ingest((value,))

    def merge(self, other: "QuantileSketch") -> None:
        """Fold *other* into this sketch.

        Levels 1 and up concatenate level by level and re-compact; then
        *other*'s level-0 buffer goes through this sketch's buffer like
        an :meth:`add_many`.  Both sketches must share ``k``: the
        capacity schedule, and with it the rank-error envelope, is a
        function of ``k``.
        """
        if other.k != self.k:
            raise SimulationError(
                f"cannot merge a k={other.k} sketch into a k={self.k} sketch")
        if other.count == 0:
            return
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        buffer, upper = list(other._levels[0]), other._levels[1:]
        if upper:
            self._ensure_level(len(upper))
            for level, items in enumerate(upper, start=1):
                self._levels[level] += items
            self._size += other._size
            self._compact()
        if buffer:
            self._ingest(buffer)

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
        self._capacities = [0] + [
            max(_MIN_CAPACITY, math.ceil(self.k * _LEVEL_DECAY ** (top - level)))
            for level in range(1, top + 1)]
        self._total_capacity = sum(self._capacities)

    def _ingest(self, values) -> None:
        """Append the checked weight-1 *values* to the level-0 buffer and
        compact every buffer they fill.

        The full buffers are the rows of one ``(rows, B)`` array, sorted
        by one ``np.sort`` of their total-order keys.  Row ``r`` keeps
        every other value from offset ``flip ^ (r & 1)`` — the level-0
        flip alternates buffer by buffer — and the halves reach level 1
        one after the other, each followed by :meth:`_compact`, so the
        state is that of compacting each buffer as it filled.
        """
        buffer, width = self._levels[0], self._width
        values = (np.concatenate((buffer, values)) if buffer
                  else np.asarray(values, dtype=np.float64))
        rows = len(values) // width
        if rows:
            bits = values[:rows * width].view(np.int64)
            keys = bits >> 63
            keys &= _MAGNITUDE
            keys ^= bits
            keys = keys.reshape(rows, width)
            keys.sort(axis=1)
            flip = self._flips[0]
            offsets = (np.arange(rows) + flip) & 1
            halves = keys.reshape(rows, width // 2, 2)[
                np.arange(rows), :, offsets]
            del keys  # bound the peak to two batch-sized temporaries
            bits = halves >> 63
            bits &= _MAGNITUDE
            halves ^= bits
            self._flips[0] = flip ^ bool(rows & 1)
            self._ensure_level(1)
            self._compact(half.tolist() for half in halves.view(np.float64))
        buffer[:] = values[rows * width:].tolist()

    def _compact(self, runs: Iterable[list[float]] = ((),)) -> None:
        """Append each run of *runs* to level 1 in turn, compacting
        levels 1 and up to capacity after each (with no runs given, just
        compact).

        The one compaction loop above the buffer.  It compacts while
        levels 1 and up hold more than their total capacity.  A
        compaction halves the lowest level holding at least its capacity
        (one always does while the levels are over capacity, since every
        capacity is at least two): the level is sorted in place, an
        odd-sized level keeps its largest value so weights stay exact,
        and every other value of the rest moves one level up from an
        alternating offset, flipped every compaction — deterministic,
        but unbiased over repeated compactions the same way KLL's coin
        flip is in expectation.
        """
        levels, flips = self._levels, self._flips
        capacities, total = self._capacities, self._total_capacity
        size = self._size
        for run in runs:
            levels[1] += run
            size += len(run)
            level = 1
            while size > total:
                while len(levels[level]) < capacities[level]:
                    level += 1
                items = levels[level]
                items.sort()
                even = len(items) & ~1
                flip = flips[level]
                flips[level] = not flip
                grown = level + 1 == len(levels)
                if grown:
                    self._ensure_level(level + 1)
                    capacities, total = self._capacities, self._total_capacity
                levels[level + 1] += items[flip:even:2]
                del items[:even]
                size -= even >> 1
                # The levels below stay under capacity, and this one now
                # holds at most one value, unless a new top level lowered
                # every capacity: then the search starts over.
                level = 1 if grown else level + 1
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
        return self._size + len(self._levels[0])

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
        if len(levels[0]) >= sketch._width:
            raise SimulationError(
                f"sketch state level-0 buffer holds {len(levels[0])} values;"
                f" a k={sketch.k} sketch compacts it at {sketch._width}")
        sketch._levels = levels
        sketch._flips = flips
        sketch._size = sum(len(items) for items in levels[1:])
        sketch._refresh_capacities()
        return sketch
