"""Tests for repro.netsim.stats (bounded/streaming latency statistics)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netsim.stats import LatencyAccumulator


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

    @pytest.mark.parametrize("backend", ("histogram", "sketch"))
    @pytest.mark.parametrize("size", (1, 500, 1500))
    def test_mean_and_percentile_match_the_separate_queries(self, backend,
                                                            size):
        # 1500 samples spill the 1000-sample window.
        accumulator = LatencyAccumulator(exact_capacity=1000,
                                         backend=backend)
        rng = np.random.default_rng(1)
        for sample in rng.exponential(0.01, size=size).tolist():
            accumulator.add(sample)
        for percentile in (0.0, 50.0, 99.0, 100.0):
            assert accumulator.mean_and_percentile(percentile) == (
                accumulator.mean, accumulator.percentile(percentile))
        with pytest.raises(SimulationError):
            accumulator.mean_and_percentile(101.0)
        with pytest.raises(SimulationError):
            LatencyAccumulator().mean_and_percentile(50.0)

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
        with pytest.raises(SimulationError):
            LatencyAccumulator(bins=1)
        accumulator = LatencyAccumulator()
        with pytest.raises(SimulationError):
            accumulator.add(-1.0)
        accumulator.add(0.5)
        with pytest.raises(SimulationError):
            accumulator.percentile(101.0)


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
        # Interior bins interpolate by rank: near-exact.
        for percentile in (50.0, 90.0):
            exact = float(np.percentile(samples, percentile))
            assert accumulator.percentile(percentile) == \
                pytest.approx(exact, rel=0.05)
        # p99 falls in the open-ended top bin (the warm-up window saw
        # only ~98.7% of the distribution): coarser, but bounded by the
        # frozen top edge and the exactly tracked max.
        exact_p99 = float(np.percentile(samples, 99.0))
        estimate_p99 = accumulator.percentile(99.0)
        assert estimate_p99 == pytest.approx(exact_p99, rel=0.35)
        assert exact_p99 * 0.9 <= estimate_p99 <= max(samples)
        assert accumulator.percentile(100.0) == max(samples)

    def test_percentiles_clamped_to_observed_range(self):
        accumulator, samples = self.make_spilled()
        assert accumulator.percentile(0.0) >= min(samples)
        assert accumulator.percentile(100.0) <= max(samples)

    def test_out_of_range_samples_after_spill_land_in_edge_bins(self):
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
        # The 1000x tail is visible (the frozen warm-up edges top out at
        # 0.001; the open bin reaches towards the tracked max).
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
    """Shard-merge semantics: exact concatenation, then histogram folds."""

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

    def test_merging_two_spilled_histograms_rebins(self):
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

    def test_merge_exact_into_spilled_adopts_histogram(self):
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
        """Regression: samples in the open-ended outer bins of a spilled
        accumulator merge at the observed min/max, not at a 'geometric
        midpoint' of the artificial clamped span.

        Before the fix, an outlier landing in the open top bin after the
        spill (e.g. 500 s over ~2 ms edges) was re-binned at
        sqrt(edge * max) — hundreds of times below its true value — and
        the merged tail percentiles collapsed toward the warm-up range.
        """
        left = self.fill([0.001] * 40, capacity=32)
        left.add(100.0)     # open top bin of left
        right = self.fill([0.002] * 40, capacity=32)
        right.add(500.0)    # open top bin of right
        right.add(1e-12)    # open bottom bin of right
        assert not left.is_exact and not right.is_exact
        left.merge(right)
        assert left.count == 83
        assert left.max_seconds == 500.0
        assert left.min_seconds == 1e-12
        # ~2.4% of the mass sits at 100/500 s: p99 must stay far above
        # the ~millisecond bulk instead of collapsing below it.
        assert left.percentile(99.0) > 1.0
        # The exact running total is untouched by the re-binning.
        expected_mean = ([0.001] * 40 + [100.0] + [0.002] * 40
                         + [500.0] + [1e-12])
        assert left.mean == pytest.approx(
            float(np.mean(expected_mean)), rel=1e-9)

    def test_merge_bottom_open_bin_uses_observed_min(self):
        left = self.fill(np.linspace(0.01, 0.02, 40).tolist(), capacity=32)
        right = self.fill(np.linspace(0.01, 0.02, 40).tolist(), capacity=32)
        right.add(1e-7)     # far below right's frozen bottom edge
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
        # The adopted histogram is a copy, not a shared buffer.
        target.add(1.0)
        assert spilled.count == 2000


class TestZeroLatencySamples:
    """Exact zeros survive the spill: a log-spaced histogram cannot hold
    zero, so zeros land in the bottom open bin whose bounds clamp to the
    tracked minimum — queries must keep reporting them as (effectively)
    zero rather than promoting them to the 1 ns edge floor."""

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
        # Half the mass is exactly zero; the median estimate may sit
        # anywhere inside the bottom open bin but never above its edge.
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
        accumulator = LatencyAccumulator(exact_capacity=capacity,
                                         backend="sketch")
        for value in values:
            accumulator.add(float(value))
        return accumulator

    def test_exact_window_behaviour_unchanged(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(0.0, 1.0, 50)
        histogram = LatencyAccumulator(backend="histogram")
        sketch = LatencyAccumulator(backend="sketch")
        for value in samples:
            histogram.add(float(value))
            sketch.add(float(value))
        # Below the exact window the backend is irrelevant: both answer
        # from the same sample list, bit for bit.
        for percentile in (1.0, 50.0, 99.0):
            assert (sketch.percentile(percentile)
                    == histogram.percentile(percentile))
        assert sketch.mean == histogram.mean

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

    def test_sketch_merges_with_histogram(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(0.0, 1.0, 2000)
        sketch_side = self.spilled(samples[:1000])
        histogram_side = LatencyAccumulator(exact_capacity=16,
                                            backend="histogram")
        for value in samples[1000:]:
            histogram_side.add(float(value))
        sketch_side.merge(histogram_side)
        assert sketch_side.count == 2000
        assert sketch_side.percentile(50.0) == pytest.approx(0.5, abs=0.05)

    def test_histogram_absorbs_sketch(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(0.0, 1.0, 2000)
        histogram_side = LatencyAccumulator(exact_capacity=16,
                                            backend="histogram")
        for value in samples[:1000]:
            histogram_side.add(float(value))
        sketch_side = self.spilled(samples[1000:])
        histogram_side.merge(sketch_side)
        assert histogram_side.count == 2000
        assert histogram_side.percentile(50.0) == pytest.approx(0.5,
                                                                abs=0.05)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            LatencyAccumulator(backend="theodolite")

    @staticmethod
    def snapshot(accumulator: LatencyAccumulator) -> tuple:
        return (accumulator.count, accumulator._total, accumulator._min,
                accumulator._max, list(accumulator._pending),
                accumulator.to_state())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_after_spill_rejected_before_recording(
            self, bad):
        accumulator = LatencyAccumulator(exact_capacity=4, backend="sketch")
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
        accumulator = LatencyAccumulator(exact_capacity=4, backend="sketch")
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
        accumulator = LatencyAccumulator(exact_capacity=4, backend="sketch")
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
        accumulator = LatencyAccumulator(exact_capacity=4, backend="sketch")
        before = self.snapshot(accumulator)
        with pytest.raises(SimulationError, match="finite"):
            accumulator.add_batch([1.0, bad], [3, 3])
        assert self.snapshot(accumulator) == before
        assert accumulator.count == 0
        assert accumulator.is_exact

    def test_non_finite_batch_that_reaches_no_sketch_accepted(self):
        # The window may keep a non-finite value, and a zero count
        # records nothing at all.
        accumulator = LatencyAccumulator(exact_capacity=4, backend="sketch")
        accumulator.add_batch([1.0, math.nan, math.inf], [2, 2, 0])
        assert accumulator.count == 4
        assert accumulator.is_exact
        spilled = LatencyAccumulator(exact_capacity=4, backend="sketch")
        spilled.add_many([1.0, 2.0, 3.0, 4.0, 5.0])
        spilled.add_batch([math.inf, 2.0], [0, 2])
        assert spilled.count == 7
        assert spilled._sketch.count == 7


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

    def test_histogram_state_round_trips(self):
        accumulator = LatencyAccumulator(exact_capacity=8,
                                         backend="histogram")
        for value in np.linspace(0.001, 1.0, 100):
            accumulator.add(float(value))
        restored = self.round_trip(accumulator)
        assert restored.to_state() == accumulator.to_state()
        for percentile in (10.0, 50.0, 99.0):
            assert (restored.percentile(percentile)
                    == accumulator.percentile(percentile))

    def test_sketch_state_round_trips(self):
        accumulator = LatencyAccumulator(exact_capacity=8, backend="sketch")
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
        accumulator = LatencyAccumulator(exact_capacity=8, backend="sketch")
        for value in np.linspace(0.01, 1.0, 50):
            accumulator.add(float(value))
        restored = self.round_trip(accumulator)
        restored.add(2.0)
        assert restored.count == 51
        assert restored.max_seconds == 2.0


class TestAddBatch:
    """add_batch(values, counts) must equal the equivalent add() loop."""

    @staticmethod
    def loop_reference(pairs, capacity, backend):
        reference = LatencyAccumulator(exact_capacity=capacity,
                                       backend=backend)
        for value, count in pairs:
            for _ in range(count):
                reference.add(value)
        return reference

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(min_value=1e-6, max_value=10.0,
                            allow_nan=False, allow_infinity=False),
                  st.integers(min_value=1, max_value=40)),
        min_size=1, max_size=30),
        st.sampled_from(["sketch", "histogram"]))
    def test_batch_matches_loop(self, pairs, backend):
        # Capacity 16 exercises all three regimes in one strategy:
        # staying exact, spilling mid-batch, and all-streaming.
        batched = LatencyAccumulator(exact_capacity=16, backend=backend)
        batched.add_batch([value for value, _ in pairs],
                          [count for _, count in pairs])
        reference = self.loop_reference(pairs, 16, backend)
        assert batched.count == reference.count
        assert batched.min_seconds == reference.min_seconds
        assert batched.max_seconds == reference.max_seconds
        assert batched.mean == pytest.approx(reference.mean)
        assert batched.is_exact == reference.is_exact
        if backend == "histogram" or batched.is_exact:
            # Deterministic binning (and the exact window) admit strict
            # equality with the per-sample loop.
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
