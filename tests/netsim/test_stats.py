"""Tests for repro.netsim.stats (bounded/streaming latency statistics)."""

from __future__ import annotations

import copy
import dataclasses
import math
import struct
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort.sketch import QuantileSketch
from repro.errors import SimulationError
from repro.netsim.stats import LatencyAccumulator, _window_percentile
from repro.scenarios import get_scenario


def plain_bytes(value) -> bytes:
    """Plain state data with every float as its IEEE-754 bytes, so NaN
    compares by bit pattern and ``-0.0`` differs from ``0.0``."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return b"{" + b";".join(key.encode() + b"=" + plain_bytes(item)
                                for key, item in sorted(value.items())) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(map(plain_bytes, value)) + b"]"
    return repr(value).encode()


def state_bytes(accumulator: LatencyAccumulator) -> bytes:
    """``to_state()`` compared by bytes."""
    return plain_bytes(accumulator.to_state())


class TestExactWindow:
    def test_matches_numpy_exactly_under_capacity(self):
        accumulator = LatencyAccumulator(exact_capacity=1000)
        rng = np.random.default_rng(0)
        samples = rng.exponential(0.01, size=500).tolist()
        for sample in samples:
            accumulator.add(sample)
        assert accumulator.is_exact
        assert accumulator.count == 500
        assert accumulator.mean == float(np.mean(samples))
        for percentile in (50.0, 90.0, 99.0):
            assert accumulator.percentile(percentile) == \
                float(np.percentile(samples, percentile))

    @pytest.mark.parametrize("size", (1, 500, 1500),
                             ids=lambda size: f"{size}-sketch")
    def test_mean_and_percentile_match_the_separate_queries(self, size):
        """``mean`` and ``percentile``, the queries a run's result reads,
        read the window as numpy does, or the running total and the
        clamped sketch after the spill."""
        # 1500 samples spill the 1000-sample window into the sketch.
        accumulator = LatencyAccumulator(exact_capacity=1000)
        rng = np.random.default_rng(1)
        samples = rng.exponential(0.01, size=size).tolist()
        for sample in samples:
            accumulator.add(sample)
        for percentile in (0.0, 50.0, 99.0, 100.0):
            if size <= 1000:
                expected = (float(np.mean(samples)),
                            float(np.percentile(samples, percentile)))
            else:
                expected = (accumulator._total / size, min(max(
                    accumulator._sketch.percentile(percentile),
                    min(samples)), max(samples)))
            assert (accumulator.mean,
                    accumulator.percentile(percentile)) == expected
        with pytest.raises(SimulationError):
            accumulator.percentile(101.0)
        with pytest.raises(SimulationError):
            _ = LatencyAccumulator().mean
        with pytest.raises(SimulationError):
            LatencyAccumulator().percentile(50.0)

    def test_min_max_tracked(self):
        accumulator = LatencyAccumulator()
        for value in (0.3, 0.1, 0.2):
            accumulator.add(value)
        assert accumulator.min_seconds == 0.1
        assert accumulator.max_seconds == 0.3

    def test_empty_accumulator_raises(self):
        accumulator = LatencyAccumulator()
        with pytest.raises(SimulationError):
            _ = accumulator.mean
        with pytest.raises(SimulationError):
            accumulator.percentile(99.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            LatencyAccumulator(exact_capacity=0)
        accumulator = LatencyAccumulator()
        with pytest.raises(SimulationError):
            accumulator.add(-1.0)
        accumulator.add(0.5)
        with pytest.raises(SimulationError):
            accumulator.percentile(101.0)


class TestInfiniteExactWindow:
    """An exact window holding ``+inf`` (a member that never delivered)
    reads order statistics, where ``np.percentile`` reads ``nan``."""

    @staticmethod
    def window(values, *, batch: bool = False) -> LatencyAccumulator:
        accumulator = LatencyAccumulator()
        if batch:
            accumulator.add_many(np.array(values))
        else:
            for value in values:
                accumulator.add(value)
        return accumulator

    @pytest.mark.parametrize("batch", (False, True))
    def test_all_infinite_reads_inf(self, batch):
        accumulator = self.window([math.inf] * 3, batch=batch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for percentile in (0.0, 50.0, 99.0, 100.0):
                assert accumulator.percentile(percentile) == math.inf
                assert (accumulator.mean,
                        accumulator.percentile(percentile)) == (
                    math.inf, math.inf)
        assert accumulator.max_seconds == math.inf

    @pytest.mark.parametrize(("values", "expected"), [
        ([1.0, 2.0, math.inf],
         {0.0: 1.0, 25.0: 1.5, 50.0: 2.0, 75.0: math.inf, 100.0: math.inf}),
        ([1.0, math.inf, math.inf],
         {0.0: 1.0, 25.0: math.inf, 50.0: math.inf, 100.0: math.inf}),
        ([math.inf, 3.0, 0.0, 4.0, 5.0],
         {0.0: 0.0, 25.0: 3.0, 60.0: 4.4, 75.0: 5.0, 80.0: math.inf}),
    ])
    def test_rank_on_a_sample_reads_it_and_toward_inf_reads_inf(
            self, values, expected):
        accumulator = self.window(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for percentile, value in expected.items():
                assert accumulator.percentile(percentile) == value
                assert accumulator.mean == float(np.mean(values))

    def test_nan_sample_still_reads_nan(self):
        for values in ([1.0, math.nan, math.inf], [1.0, math.nan]):
            accumulator = self.window(values)
            assert math.isnan(accumulator.percentile(50.0))
            assert math.isnan(accumulator.mean)

    def test_finite_window_reads_numpy_bit_for_bit(self):
        values = [0.0, -0.0, 1e-300, 0.25, 0.75, 2.0 ** 60]
        accumulator = self.window(values)
        for percentile in (0.0, 10.0, 20.0, 33.3, 50.0, 99.0, 100.0):
            expected = float(np.percentile(np.array(values), percentile))
            observed = accumulator.percentile(percentile)
            assert observed == expected
            assert math.copysign(1.0, observed) == \
                math.copysign(1.0, expected)


class TestStreamingSpill:
    def make_spilled(self, n: int = 5000,
                     capacity: int = 256) -> tuple[LatencyAccumulator, list]:
        accumulator = LatencyAccumulator(exact_capacity=capacity)
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-6.0, sigma=0.8, size=n).tolist()
        for sample in samples:
            accumulator.add(sample)
        return accumulator, samples

    def test_memory_bounded_after_spill(self):
        accumulator, samples = self.make_spilled()
        assert not accumulator.is_exact
        assert accumulator.retained_samples == 0
        assert accumulator.count == len(samples)

    def test_streaming_mean_close_to_exact(self):
        accumulator, samples = self.make_spilled()
        assert accumulator.mean == pytest.approx(float(np.mean(samples)),
                                                 rel=1e-9)

    def test_streaming_percentiles_close_to_exact(self):
        accumulator, samples = self.make_spilled()
        for percentile in (50.0, 90.0):
            exact = float(np.percentile(samples, percentile))
            assert accumulator.percentile(percentile) == \
                pytest.approx(exact, rel=0.05)
        # p99 sits in the sparse upper tail, where the sketch's rank
        # error moves the value most; it stays bounded by the exactly
        # tracked max.
        exact_p99 = float(np.percentile(samples, 99.0))
        estimate_p99 = accumulator.percentile(99.0)
        assert estimate_p99 == pytest.approx(exact_p99, rel=0.35)
        assert exact_p99 * 0.9 <= estimate_p99 <= max(samples)
        assert accumulator.percentile(100.0) == max(samples)

    def test_percentiles_clamped_to_observed_range(self):
        accumulator, samples = self.make_spilled()
        assert accumulator.percentile(0.0) >= min(samples)
        assert accumulator.percentile(100.0) <= max(samples)

    def test_out_of_range_samples_after_spill_move_the_max(self):
        accumulator, samples = self.make_spilled(capacity=128)
        accumulator.add(min(samples) / 100.0)
        accumulator.add(max(samples) * 100.0)
        assert accumulator.count == len(samples) + 2
        assert accumulator.max_seconds == max(samples) * 100.0

    def test_tail_growth_after_spill_not_capped_at_warmup_range(self):
        """Congestion onset after warm-up must move the top percentiles."""
        accumulator = LatencyAccumulator(exact_capacity=64)
        for _ in range(100):
            accumulator.add(0.001)  # calm warm-up, then latency explodes
        for _ in range(100):
            accumulator.add(1.0)
        assert accumulator.percentile(100.0) == 1.0
        # The 1000x tail is visible, though the warm-up window saw only
        # 0.001.
        assert accumulator.percentile(99.0) > 0.5
        assert accumulator.percentile(0.0) == 0.001

    def test_identical_samples_spill_safely(self):
        accumulator = LatencyAccumulator(exact_capacity=4)
        for _ in range(10):
            accumulator.add(0.002)
        assert not accumulator.is_exact
        assert accumulator.mean == pytest.approx(0.002)
        assert accumulator.percentile(99.0) == pytest.approx(0.002)


class TestMerge:
    """Shard-merge semantics: exact concatenation, then sketch merges."""

    def fill(self, samples, capacity=1000) -> LatencyAccumulator:
        accumulator = LatencyAccumulator(exact_capacity=capacity)
        for sample in samples:
            accumulator.add(sample)
        return accumulator

    def test_exact_merge_is_bit_identical_to_sequential(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(0.01, size=600).tolist()
        serial = self.fill(samples)
        left = self.fill(samples[:350])
        left.merge(self.fill(samples[350:]))
        assert left.is_exact
        assert left.count == serial.count
        assert left.mean == serial.mean
        assert left.min_seconds == serial.min_seconds
        assert left.max_seconds == serial.max_seconds
        for percentile in (0.0, 50.0, 90.0, 99.0, 100.0):
            assert left.percentile(percentile) == \
                serial.percentile(percentile)

    def test_merge_into_empty_adopts_other(self):
        rng = np.random.default_rng(4)
        samples = rng.exponential(0.01, size=100).tolist()
        target = LatencyAccumulator(exact_capacity=1000)
        target.merge(self.fill(samples))
        assert target.count == 100
        assert target.percentile(50.0) == \
            float(np.percentile(samples, 50.0))

    def test_merge_of_empty_is_noop(self):
        accumulator = self.fill([0.1, 0.2])
        accumulator.merge(LatencyAccumulator())
        assert accumulator.count == 2
        assert accumulator.mean == pytest.approx(0.15)

    def test_merge_spills_when_union_exceeds_capacity(self):
        rng = np.random.default_rng(5)
        samples = rng.lognormal(mean=-6.0, sigma=0.5, size=400).tolist()
        left = self.fill(samples[:200], capacity=256)
        left.merge(self.fill(samples[200:], capacity=256))
        assert not left.is_exact
        assert left.retained_samples == 0
        assert left.count == 400
        assert left.mean == pytest.approx(float(np.mean(samples)), rel=1e-9)
        assert left.percentile(50.0) == pytest.approx(
            float(np.percentile(samples, 50.0)), rel=0.05)

    def test_merging_two_spilled_sketches_keeps_moments_and_median(self):
        rng = np.random.default_rng(6)
        low = rng.lognormal(mean=-7.0, sigma=0.4, size=2000).tolist()
        high = rng.lognormal(mean=-5.0, sigma=0.4, size=2000).tolist()
        left = self.fill(low, capacity=128)
        right = self.fill(high, capacity=128)
        assert not left.is_exact and not right.is_exact
        left.merge(right)
        combined = low + high
        assert left.count == 4000
        assert left.mean == pytest.approx(float(np.mean(combined)),
                                          rel=1e-9)
        assert left.max_seconds == max(combined)
        assert left.min_seconds == min(combined)
        assert left.percentile(50.0) == pytest.approx(
            float(np.percentile(combined, 50.0)), rel=0.25)

    def test_merge_exact_into_spilled_feeds_the_sketch(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-6.0, sigma=0.5, size=3000).tolist()
        extra = rng.lognormal(mean=-6.0, sigma=0.5, size=50).tolist()
        spilled = self.fill(samples, capacity=128)
        spilled.merge(self.fill(extra))
        combined = samples + extra
        assert spilled.count == len(combined)
        assert spilled.mean == pytest.approx(float(np.mean(combined)),
                                             rel=1e-9)

    def test_merge_spilled_outliers_stay_in_the_tail(self):
        """Regression: outliers added after the spill, far outside the
        warm-up range (e.g. 500 s over ~2 ms samples), keep their true
        values through a merge, so the merged tail percentiles do not
        collapse toward the warm-up range.
        """
        left = self.fill([0.001] * 40, capacity=32)
        left.add(100.0)     # above left's warm-up range
        right = self.fill([0.002] * 40, capacity=32)
        right.add(500.0)    # above right's warm-up range
        right.add(1e-12)    # below right's warm-up range
        assert not left.is_exact and not right.is_exact
        left.merge(right)
        assert left.count == 83
        assert left.max_seconds == 500.0
        assert left.min_seconds == 1e-12
        # ~2.4% of the mass sits at 100/500 s: p99 must stay far above
        # the ~millisecond bulk instead of collapsing below it.
        assert left.percentile(99.0) > 1.0
        # The exact running total is untouched by the merge.
        expected_mean = ([0.001] * 40 + [100.0] + [0.002] * 40
                         + [500.0] + [1e-12])
        assert left.mean == pytest.approx(
            float(np.mean(expected_mean)), rel=1e-9)

    def test_merged_sketch_floor_is_the_observed_min(self):
        left = self.fill(np.linspace(0.01, 0.02, 40).tolist(), capacity=32)
        right = self.fill(np.linspace(0.01, 0.02, 40).tolist(), capacity=32)
        right.add(1e-7)     # far below right's warm-up range
        left.merge(right)
        assert left.min_seconds == 1e-7
        assert left.percentile(0.0) == pytest.approx(1e-7, rel=1e-6)

    def test_empty_adopts_spilled_other(self):
        rng = np.random.default_rng(8)
        samples = rng.lognormal(mean=-6.0, sigma=0.5, size=2000).tolist()
        spilled = self.fill(samples, capacity=128)
        target = LatencyAccumulator()
        target.merge(spilled)
        assert not target.is_exact
        assert target.count == 2000
        assert target.mean == pytest.approx(float(np.mean(samples)),
                                            rel=1e-9)
        # The adopted sketch is a copy, not a shared buffer.
        target.add(1.0)
        assert spilled.count == 2000

    @pytest.mark.parametrize("values", (
        [1.0, -0.0],
        [1.0, 2.0, 3.0],
        [1.0, 2.0, 3.0, 4.0, 5.0, 0.5],
    ), ids=("union-fits", "union-spills", "both-spilled"))
    def test_self_merge_folds_a_snapshot(self, values):
        """``a.merge(a)`` leaves what merging a copy of *a* leaves."""
        accumulator = LatencyAccumulator(exact_capacity=4)
        accumulator.add_many(values)
        expected = LatencyAccumulator.from_state(accumulator.to_state())
        expected.merge(LatencyAccumulator.from_state(accumulator.to_state()))
        accumulator.merge(accumulator)
        assert accumulator.count == 2 * len(values)
        assert accumulator.is_exact == (2 * len(values) <= 4)
        assert state_bytes(accumulator) == state_bytes(expected)
        assert accumulator._total == expected._total


class TestZeroLatencySamples:
    """Exact zeros survive the spill: queries keep reporting them as
    (effectively) zero rather than promoting them to a positive floor."""

    def spill_with_zeros(self, zeros, others, capacity=32):
        accumulator = LatencyAccumulator(exact_capacity=capacity)
        for value in [0.0] * zeros + list(others):
            accumulator.add(value)
        assert not accumulator.is_exact
        return accumulator

    def test_all_zero_samples(self):
        accumulator = self.spill_with_zeros(40, [])
        assert accumulator.mean == 0.0
        assert accumulator.min_seconds == 0.0
        for percentile in (0.0, 50.0, 100.0):
            assert accumulator.percentile(percentile) == 0.0

    def test_mixed_zeros_keep_low_percentiles_at_zero(self):
        accumulator = self.spill_with_zeros(30, [0.01] * 10)
        assert accumulator.percentile(0.0) == 0.0
        # Half the mass is exactly zero, and the median estimate lands
        # in it rather than on a positive floor.
        assert accumulator.percentile(50.0) <= 1e-9
        assert accumulator.percentile(99.0) == pytest.approx(0.01, rel=0.05)
        assert accumulator.mean == pytest.approx(0.0025, rel=1e-9)

    def test_zeros_added_after_spill(self):
        accumulator = self.spill_with_zeros(1, np.linspace(0.01, 0.02, 40))
        accumulator.add(0.0)
        assert accumulator.min_seconds == 0.0
        assert accumulator.percentile(0.0) == 0.0

    def test_merging_spilled_zero_accumulators(self):
        left = self.spill_with_zeros(20, [0.01] * 20)
        right = self.spill_with_zeros(20, [0.02] * 20)
        left.merge(right)
        assert left.count == 80
        assert left.min_seconds == 0.0
        assert left.percentile(0.0) == 0.0
        assert left.mean == pytest.approx((0.01 + 0.02) * 20 / 80, rel=1e-9)


class TestSketchBackend:
    def spilled(self, values, capacity: int = 16) -> LatencyAccumulator:
        accumulator = LatencyAccumulator(exact_capacity=capacity)
        for value in values:
            accumulator.add(float(value))
        return accumulator

    def test_exact_window_behaviour_unchanged(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(0.0, 1.0, 50)
        accumulator = LatencyAccumulator()
        for value in samples:
            accumulator.add(float(value))
        # Below the exact window no sketch exists: queries answer from
        # the sample list, bit for bit.
        assert accumulator._sketch is None
        for percentile in (1.0, 50.0, 99.0):
            assert (accumulator.percentile(percentile)
                    == float(np.percentile(samples, percentile)))
        assert accumulator.mean == float(np.mean(samples))

    def test_spilled_percentiles_within_rank_error(self):
        rng = np.random.default_rng(8)
        samples = rng.lognormal(0.0, 1.5, 20_000)
        accumulator = self.spilled(samples)
        ordered = np.sort(samples)
        for percentile in (10.0, 50.0, 90.0, 99.0):
            estimate = accumulator.percentile(percentile)
            left = np.searchsorted(ordered, estimate, "left") / len(ordered)
            right = np.searchsorted(ordered, estimate, "right") / len(ordered)
            fraction = percentile / 100.0
            error = max(0.0, left - fraction, fraction - right)
            assert error <= 0.02 + 1e-12  # 4/k at the default k = 200

    def test_memory_stays_bounded(self):
        accumulator = self.spilled(np.linspace(0.0, 1.0, 100_000))
        assert accumulator._sketch.retained <= 4 * accumulator._sketch.k

    def test_sketch_merges_with_sketch(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0, 1.0, 4000)
        merged = self.spilled(samples[:2000])
        merged.merge(self.spilled(samples[2000:]))
        assert merged.count == 4000
        assert merged.mean == pytest.approx(float(np.mean(samples)),
                                            rel=1e-9)
        assert merged.percentile(50.0) == pytest.approx(0.5, abs=0.03)

    @staticmethod
    def snapshot(accumulator: LatencyAccumulator) -> tuple:
        # The state by bytes: a NaN in the window compares by its bits.
        return (accumulator.count, accumulator._total, accumulator._min,
                accumulator._max, state_bytes(accumulator))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_after_spill_rejected_before_recording(
            self, bad):
        accumulator = LatencyAccumulator(exact_capacity=4)
        accumulator.add_many([1.0, 2.0, 3.0, 4.0, 5.0])
        before = self.snapshot(accumulator)
        with pytest.raises(SimulationError, match="finite"):
            accumulator.add_many([1.0, bad, 2.0])
        with pytest.raises(SimulationError, match="finite"):
            accumulator.add(bad)
        assert self.snapshot(accumulator) == before
        assert accumulator.count == 5
        assert accumulator._total == 15.0
        assert accumulator._sketch.count == 5
        accumulator.add_many([6.0])
        assert accumulator.count == 6

    @pytest.mark.parametrize("add_many", [False, True])
    def test_spill_of_a_non_finite_window_rejected_before_recording(
            self, add_many):
        # The exact window keeps a dead member's NaN; the sample that
        # would fold it into the sketch is refused instead.
        accumulator = LatencyAccumulator(exact_capacity=4)
        accumulator.add_many([1.0, math.nan, 2.0, 3.0])
        before = self.snapshot(accumulator)
        with pytest.raises(SimulationError, match="finite"):
            if add_many:
                accumulator.add_many([4.0])
            else:
                accumulator.add(4.0)
        assert self.snapshot(accumulator) == before
        assert accumulator.is_exact

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_batch_after_spill_rejected_before_recording(
            self, bad):
        accumulator = LatencyAccumulator(exact_capacity=4)
        accumulator.add_many([1.0, 2.0, 3.0, 4.0, 5.0])
        before = self.snapshot(accumulator)
        with pytest.raises(SimulationError, match="finite"):
            accumulator.add_batch([2.0, bad], [3, 2])
        assert self.snapshot(accumulator) == before
        assert accumulator.count == 5
        assert accumulator._total == 15.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_batch_spilling_a_non_finite_value_rejected_before_recording(
            self, bad):
        accumulator = LatencyAccumulator(exact_capacity=4)
        before = self.snapshot(accumulator)
        with pytest.raises(SimulationError, match="finite"):
            accumulator.add_batch([1.0, bad], [3, 3])
        assert self.snapshot(accumulator) == before
        assert accumulator.count == 0
        assert accumulator.is_exact

    def test_non_finite_batch_that_reaches_no_sketch_accepted(self):
        # The window may keep a non-finite value, and a zero count
        # records nothing at all.
        accumulator = LatencyAccumulator(exact_capacity=4)
        accumulator.add_batch([1.0, math.nan, math.inf], [2, 2, 0])
        assert accumulator.count == 4
        assert accumulator.is_exact
        spilled = LatencyAccumulator(exact_capacity=4)
        spilled.add_many([1.0, 2.0, 3.0, 4.0, 5.0])
        spilled.add_batch([math.inf, 2.0], [0, 2])
        assert spilled.count == 7
        assert spilled._sketch.count == 7

    def test_rejected_merge_into_spilled_records_nothing(self):
        accumulator = LatencyAccumulator(exact_capacity=4)
        accumulator.add_many([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        other = LatencyAccumulator()
        other.add_many([0.7, math.nan])
        before = self.snapshot(accumulator)
        with pytest.raises(SimulationError, match="finite"):
            accumulator.merge(other)
        assert self.snapshot(accumulator) == before
        assert accumulator.count == accumulator._sketch.count == 6

    def test_rejected_merge_of_a_spilling_exact_union_records_nothing(self):
        # Both sides exact, but the union overflows the window: every
        # sample of both would reach the sketch, so the NaN is refused.
        accumulator = LatencyAccumulator(exact_capacity=4)
        accumulator.add_many([0.1, 0.2])
        other = LatencyAccumulator()
        other.add_many([math.nan, 0.7, 0.8])
        before = self.snapshot(accumulator)
        with pytest.raises(SimulationError, match="finite"):
            accumulator.merge(other)
        assert self.snapshot(accumulator) == before
        assert accumulator.is_exact
        # An empty accumulator replays the window it would spill.
        empty = LatencyAccumulator(exact_capacity=2)
        before = self.snapshot(empty)
        with pytest.raises(SimulationError, match="finite"):
            empty.merge(other)
        assert self.snapshot(empty) == before


class TestDesPostSpillAccuracy:
    """A spilled DES run reports percentiles within the sketch's rank
    error of the same run's exact samples."""

    @pytest.mark.parametrize("arbitration", ("fifo", "tdma", "polling"))
    def test_dense_body_percentiles_within_rank_error(self, arbitration):
        spec = dataclasses.replace(get_scenario("dense_50_leaf"),
                                   arbitration=arbitration)
        spilled = spec.build(seed=0, duration_seconds=60.0,
                             latency_exact_capacity=512)
        result = spilled.run(60.0)
        exact = spec.build(seed=0, duration_seconds=60.0)
        exact.run(60.0)
        accumulator = spilled.bus.stats.latency
        reference = exact.bus.stats.latency
        assert not accumulator.is_exact and reference.is_exact
        assert accumulator.count == reference.count > 4 * 512
        assert result.p99_latency_seconds == accumulator.percentile(99.0)
        samples = np.sort(reference._samples)
        bound = accumulator._sketch.rank_error_bound
        for percentile in (50.0, 99.0):
            estimate = accumulator.percentile(percentile)
            below = np.searchsorted(samples, estimate, "left") / len(samples)
            above = np.searchsorted(samples, estimate, "right") / len(samples)
            target = percentile / 100.0
            assert below - bound <= target <= above + bound


class TestStateRoundTrip:
    def round_trip(self, accumulator: LatencyAccumulator):
        return LatencyAccumulator.from_state(accumulator.to_state())

    def test_exact_state_round_trips_bit_exactly(self):
        accumulator = LatencyAccumulator()
        for value in (0.0, 1e-9, 0.5, 0.5, 2.0):
            accumulator.add(value)
        restored = self.round_trip(accumulator)
        assert restored.to_state() == accumulator.to_state()
        assert restored.percentile(50.0) == accumulator.percentile(50.0)

    def test_histogram_state_rejected(self):
        accumulator = LatencyAccumulator(exact_capacity=8)
        for value in np.linspace(0.001, 1.0, 100):
            accumulator.add(float(value))
        state = accumulator.to_state()
        del state["sketch"]
        state.update(mode="histogram", edges=[0.5] * 511, counts=[0] * 512)
        with pytest.raises(SimulationError, match="mode 'histogram'"):
            LatencyAccumulator.from_state(state)

    def test_sketch_state_round_trips(self):
        accumulator = LatencyAccumulator(exact_capacity=8)
        for value in np.linspace(0.001, 1.0, 100):
            accumulator.add(float(value))
        restored = self.round_trip(accumulator)
        assert restored.to_state() == accumulator.to_state()
        for percentile in (10.0, 50.0, 99.0):
            assert (restored.percentile(percentile)
                    == accumulator.percentile(percentile))

    def test_empty_state_round_trips(self):
        restored = self.round_trip(LatencyAccumulator())
        assert restored.count == 0

    def test_count_mismatch_rejected(self):
        accumulator = LatencyAccumulator()
        accumulator.add(0.5)
        state = accumulator.to_state()
        state["count"] = 7
        with pytest.raises(SimulationError):
            LatencyAccumulator.from_state(state)

    def test_restored_accumulator_keeps_accumulating(self):
        accumulator = LatencyAccumulator(exact_capacity=8)
        for value in np.linspace(0.01, 1.0, 50):
            accumulator.add(float(value))
        restored = self.round_trip(accumulator)
        restored.add(2.0)
        assert restored.count == 51
        assert restored.max_seconds == 2.0


class TestAddBatch:
    """add_batch(values, counts) must equal the equivalent add() loop."""

    @staticmethod
    def loop_reference(pairs, capacity):
        reference = LatencyAccumulator(exact_capacity=capacity)
        for value, count in pairs:
            for _ in range(count):
                reference.add(value)
        return reference

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(min_value=1e-6, max_value=10.0,
                            allow_nan=False, allow_infinity=False),
                  st.integers(min_value=1, max_value=40)),
        min_size=1, max_size=30))
    def test_batch_matches_loop(self, pairs):
        # Capacity 16 exercises all three regimes in one strategy:
        # staying exact, spilling mid-batch, and all-streaming.
        batched = LatencyAccumulator(exact_capacity=16)
        batched.add_batch([value for value, _ in pairs],
                          [count for _, count in pairs])
        reference = self.loop_reference(pairs, 16)
        assert batched.count == reference.count
        assert batched.min_seconds == reference.min_seconds
        assert batched.max_seconds == reference.max_seconds
        assert batched.mean == pytest.approx(reference.mean)
        assert batched.is_exact == reference.is_exact
        if batched.is_exact:
            # The exact window admits strict equality with the
            # per-sample loop.
            for percentile in (10.0, 50.0, 90.0, 99.0):
                assert batched.percentile(percentile) == \
                    reference.percentile(percentile)
            return
        # The KLL sketch compacts on different schedules for weighted
        # and per-sample inserts, so the invariant is its documented
        # rank bound against the true distribution, not bit equality.
        samples = np.sort(np.repeat([value for value, _ in pairs],
                                    [count for _, count in pairs]))
        epsilon = batched._sketch.rank_error_bound + 1.0 / len(samples)
        for percentile in (10.0, 50.0, 90.0, 99.0):
            value = batched.percentile(percentile)
            below = np.searchsorted(samples, value, side="left")
            above = np.searchsorted(samples, value, side="right")
            target = percentile / 100.0
            assert below / len(samples) - epsilon <= target
            assert above / len(samples) + epsilon >= target

    def test_empty_batch_is_a_no_op(self):
        accumulator = LatencyAccumulator()
        accumulator.add_batch([], [])
        assert accumulator.count == 0

    def test_mismatched_lengths_rejected(self):
        accumulator = LatencyAccumulator()
        with pytest.raises(SimulationError):
            accumulator.add_batch([0.1, 0.2], [1])

    def test_negative_values_rejected(self):
        accumulator = LatencyAccumulator()
        with pytest.raises(SimulationError):
            accumulator.add_batch([-0.1], [1])

    @pytest.mark.parametrize("count", (2.5, np.float64(0.5), math.nan,
                                       math.inf))
    @pytest.mark.parametrize("spilled", (False, True))
    def test_counts_that_are_not_whole_rejected_before_recording(
            self, count, spilled):
        accumulator = LatencyAccumulator(exact_capacity=4)
        accumulator.add_many([0.1] * (6 if spilled else 1))
        before = state_bytes(accumulator), accumulator._total
        with pytest.raises(SimulationError, match="whole number"):
            accumulator.add_batch([0.2, 0.3], [3, count])
        assert (state_bytes(accumulator), accumulator._total) == before

    @pytest.mark.parametrize("counts", (
        [2, 3, 0],
        [np.int64(2), np.int32(3), np.uint8(0)],
        [2.0, np.float64(3.0), -0.0],
        np.bincount([0, 0, 1, 1, 1]).tolist() + [0],
        np.array([2, 3, 0]),
    ), ids=("int", "numpy-int", "integral-float", "bincount", "array"))
    def test_whole_counts_match_the_add_loop(self, counts):
        values = [0.25, 0.5, 7.0]
        for capacity in (8, 4):  # stays exact; spills mid-batch
            batched = LatencyAccumulator(exact_capacity=capacity)
            batched.add_batch(values, counts)
            reference = self.loop_reference(
                zip(values, (2, 3, 0)), capacity)
            assert batched.count == reference.count == 5
            assert batched.is_exact == (capacity == 8)
            if batched.is_exact:
                assert state_bytes(batched) == state_bytes(reference)


class ListWindow:
    """Reference model: the accumulator with its historical list window.

    Written for clarity, not speed: one sample at a time into a list,
    which spills into a sketch one sample at a time (the sketch's state
    does not depend on batching).  An operation that would hand the
    sketch a non-finite sample raises from the sketch, and the caller
    keeps the model from before the operation.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.count = 0
        self.window: list[float] | None = []
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.sketch: QuantileSketch | None = None

    def _extrema(self, value: float) -> None:
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def _spill(self) -> None:
        self.total = math.fsum(self.window)
        self.sketch = QuantileSketch()
        for value in self.window:
            self.sketch.add(value)
        self.window = None

    def add(self, value) -> None:
        value = float(value)
        if value < 0:
            raise SimulationError("negative")
        self.count += 1
        self._extrema(value)
        if self.window is not None:
            self.window.append(value)
            if len(self.window) > self.capacity:
                self._spill()
            return
        self.total += value
        self.sketch.add(value)

    def add_many(self, values) -> None:
        for value in values:
            self.add(value)

    def add_batch(self, values, counts) -> None:
        if any(value < 0 for value in values):
            raise SimulationError("negative")
        for value, count in zip(values, counts):
            while count and self.window is not None:
                self.add(value)
                count -= 1
            if count:
                self.count += count
                self._extrema(float(value))
                self.total += float(value) * count
                self.sketch.add_repeated(float(value), count)

    def merge(self, other: "ListWindow") -> None:
        if other.count == 0:
            return
        if (self.window is not None and other.window is not None
                and self.count + other.count <= self.capacity):
            self.window.extend(other.window)
            self.count += other.count
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            return
        if other.window is not None and self.count == 0:
            self.add_many(other.window)
            return
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self.count == 0:
            self.window = None
            self.sketch = copy.deepcopy(other.sketch)
            self.total = other.total
            self.count = other.count
            return
        if self.window is not None:
            self._spill()
        self.count += other.count
        if other.window is not None:
            self.total += math.fsum(other.window)
            for value in other.window:
                self.sketch.add(value)
            return
        self.total += other.total
        self.sketch.merge(other.sketch)

    def mean(self) -> float:
        if self.window is not None:
            return float(np.mean(np.array(self.window, dtype=np.float64)))
        return self.total / self.count

    def percentile(self, percentile: float) -> float:
        if self.window is not None:
            return _window_percentile(
                np.array(self.window, dtype=np.float64), percentile, self.max)
        return float(min(max(self.sketch.percentile(percentile), self.min),
                         self.max))


#: A quiet NaN with a payload other than ``float("nan")``'s.
NAN_PAYLOAD = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]

MODEL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 0.25, 1.0, 3.0, math.nan,
                     NAN_PAYLOAD, math.inf, -math.inf]),
    st.floats(min_value=0.0, max_value=10.0))

MODEL_OPS = st.one_of(
    st.tuples(st.just("add"), MODEL_VALUES),
    st.tuples(st.just("add_many"), st.lists(MODEL_VALUES, max_size=6),
              st.booleans()),
    st.tuples(st.just("add_batch"),
              st.lists(st.tuples(MODEL_VALUES, st.integers(0, 5)),
                       max_size=4)),
    st.tuples(st.just("merge"), st.lists(MODEL_VALUES, max_size=9),
              st.sampled_from([2, 3, 5])),
    st.tuples(st.just("merge_self")),
)


class TestRawWindowMatchesListModel:
    """The raw-double window against the list-window model, by bytes."""

    @staticmethod
    def apply(accumulator, model, op):
        """Run *op* on both; they must agree on refusing it.  Returns the
        model to go on with (the one from before a refused op)."""
        name, *args = op
        if name == "merge":
            values, capacity = args
            other = LatencyAccumulator(exact_capacity=capacity)
            other_model = ListWindow(capacity)
            for value in values:
                other_model = TestRawWindowMatchesListModel.apply(
                    other, other_model, ("add", value))

        def run(target, real: bool) -> None:
            if name == "add":
                target.add(args[0])
            elif name == "add_many":
                values, as_array = args
                # The kernel hands over an ``array("d")`` batch.
                target.add_many(array("d", values) if real and as_array
                                else values)
            elif name == "add_batch":
                target.add_batch([value for value, _ in args[0]],
                                 [count for _, count in args[0]])
            elif name == "merge":
                target.merge(other if real else other_model)
            else:
                target.merge(target if real else copy.deepcopy(target))

        trial = copy.deepcopy(model)
        try:
            run(trial, False)
        except SimulationError:
            trial = None
        try:
            run(accumulator, True)
        except SimulationError:
            assert trial is None, op
            return model
        assert trial is not None, op
        return trial

    @staticmethod
    def assert_same(accumulator: LatencyAccumulator, model: ListWindow):
        pack = struct.Struct("<d").pack
        assert accumulator.count == model.count
        assert pack(accumulator._min) == pack(model.min)
        assert pack(accumulator._max) == pack(model.max)
        assert pack(accumulator._total) == pack(model.total)
        assert accumulator.is_exact == (model.window is not None)
        if model.window is not None:
            assert isinstance(accumulator._samples, array)
            assert accumulator._samples.tobytes() == np.array(
                model.window, dtype=np.float64).tobytes()
        else:
            assert accumulator._samples is None
            assert plain_bytes(accumulator._sketch.to_state()) == \
                plain_bytes(model.sketch.to_state())
        if not model.count:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert pack(accumulator.mean) == pack(model.mean())
            for percentile in (0.0, 25.0, 50.0, 99.0, 100.0):
                assert pack(accumulator.percentile(percentile)) == \
                    pack(model.percentile(percentile))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.lists(MODEL_OPS, max_size=12))
    def test_op_sequences_match_the_list_window(self, capacity, ops):
        accumulator = LatencyAccumulator(exact_capacity=capacity)
        model = ListWindow(capacity)
        for op in ops:
            model = self.apply(accumulator, model, op)
            self.assert_same(accumulator, model)
        restored = LatencyAccumulator.from_state(accumulator.to_state())
        self.assert_same(restored, model)
