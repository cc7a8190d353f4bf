"""Tests for the deterministic KLL-style quantile sketch.

The central property: for any input stream, every percentile estimate
stays within the sketch's documented rank-error envelope (``4 / k``) of
the true normalised rank — measured with *interval* ranks, because on
tied data the point rank of an exactly-correct answer can be arbitrary
(``searchsorted`` on a constant stream puts every value at rank 0 or 1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort import QuantileSketch
from repro.errors import SimulationError

FRACTIONS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def interval_rank_error(samples: np.ndarray, estimate: float,
                        fraction: float) -> float:
    """Normalised rank error, tolerant of ties.

    An estimate that equals a tied value occupies the whole rank
    interval [searchsorted-left, searchsorted-right]; the error is its
    distance from the target fraction to the *nearest* end of that
    interval (zero whenever the target lies inside it).
    """
    ordered = np.sort(samples)
    left = np.searchsorted(ordered, estimate, side="left") / len(ordered)
    right = np.searchsorted(ordered, estimate, side="right") / len(ordered)
    return max(0.0, left - fraction, fraction - right)


def assert_within_envelope(sketch: QuantileSketch,
                           samples: np.ndarray) -> None:
    for fraction in FRACTIONS:
        estimate = sketch.quantile(fraction)
        error = interval_rank_error(samples, estimate, fraction)
        assert error <= sketch.rank_error_bound, (
            f"q{fraction}: estimate {estimate} has rank error {error:.4f} "
            f"> bound {sketch.rank_error_bound:.4f}")


class TestAccuracy:
    @pytest.mark.parametrize("make_stream", [
        lambda rng: rng.uniform(0.0, 1.0, 50_000),
        lambda rng: rng.lognormal(0.0, 2.0, 50_000),
        lambda rng: np.sort(rng.uniform(0.0, 1.0, 50_000)),
        lambda rng: np.sort(rng.uniform(0.0, 1.0, 50_000))[::-1],
        lambda rng: np.full(50_000, 3.25),
        lambda rng: np.where(rng.uniform(size=50_000) < 0.9, 0.0, 1e6),
    ], ids=["uniform", "lognormal", "sorted", "reversed", "constant",
            "zeros-and-spikes"])
    def test_streams_stay_within_envelope(self, make_stream):
        rng = np.random.default_rng(11)
        samples = make_stream(rng)
        sketch = QuantileSketch()
        for value in samples:
            sketch.add(float(value))
        assert_within_envelope(sketch, samples)

    def test_merged_shards_stay_within_envelope(self):
        rng = np.random.default_rng(5)
        samples = rng.lognormal(0.0, 1.0, 80_000)
        merged = QuantileSketch()
        for chunk in np.array_split(samples, 8):
            shard = QuantileSketch()
            for value in chunk:
                shard.add(float(value))
            merged.merge(shard)
        assert merged.count == len(samples)
        assert_within_envelope(merged, samples)

    def test_retained_size_is_bounded(self):
        sketch = QuantileSketch()
        rng = np.random.default_rng(3)
        for value in rng.uniform(size=200_000):
            sketch.add(float(value))
        # The KLL bound: ~3k values however long the stream ran.
        assert sketch.retained <= 4 * sketch.k

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=2000))
    def test_any_finite_stream_within_envelope(self, values):
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)
        assert_within_envelope(sketch, np.asarray(values))


class TestDeterminism:
    def test_same_stream_same_sketch(self):
        rng = np.random.default_rng(9)
        samples = rng.uniform(size=10_000)
        first, second = QuantileSketch(), QuantileSketch()
        for value in samples:
            first.add(float(value))
            second.add(float(value))
        assert first.to_state() == second.to_state()

    def test_merge_order_is_deterministic(self):
        rng = np.random.default_rng(2)
        chunks = [rng.uniform(size=5_000) for _ in range(4)]

        def merged():
            total = QuantileSketch()
            for chunk in chunks:
                shard = QuantileSketch()
                for value in chunk:
                    shard.add(float(value))
                total.merge(shard)
            return total

        assert merged().to_state() == merged().to_state()


class TestWeightedInsertion:
    def test_add_repeated_matches_repeated_add_counts(self):
        sketch = QuantileSketch()
        sketch.add_repeated(1.0, 1000)
        sketch.add_repeated(2.0, 13)
        assert sketch.count == 1013
        assert sketch.min_value == 1.0
        assert sketch.max_value == 2.0
        total_weight = sum(weight for _, weight in sketch.weighted_items())
        assert total_weight == 1013

    def test_add_repeated_percentiles(self):
        sketch = QuantileSketch()
        sketch.add_repeated(0.0, 900)
        sketch.add_repeated(100.0, 100)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(0.99) == 100.0

    def test_zero_weight_is_a_noop(self):
        sketch = QuantileSketch()
        sketch.add_repeated(5.0, 0)
        assert sketch.is_empty

    def test_negative_weight_rejected(self):
        with pytest.raises(SimulationError):
            QuantileSketch().add_repeated(1.0, -1)


class TestStateRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False, allow_infinity=False),
                    max_size=1500))
    def test_state_round_trip_is_exact(self, values):
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)
        restored = QuantileSketch.from_state(sketch.to_state())
        assert restored.to_state() == sketch.to_state()
        if values:
            for fraction in FRACTIONS:
                assert restored.quantile(fraction) == sketch.quantile(fraction)

    def test_mismatched_state_rejected(self):
        state = QuantileSketch().to_state()
        state["flips"] = []
        with pytest.raises(SimulationError):
            QuantileSketch.from_state(state)


class TestValidation:
    def test_non_finite_values_rejected(self):
        sketch = QuantileSketch()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                sketch.add(bad)
            with pytest.raises(SimulationError):
                sketch.add_repeated(bad, 3)

    def test_rejected_add_many_records_nothing(self):
        sketch = QuantileSketch()
        sketch.add_many([3.0, -1.0])
        before = sketch.to_state()
        with pytest.raises(SimulationError):
            sketch.add_many([1.0] * 500 + [float("nan")])
        assert sketch.to_state() == before
        assert sketch.retained == 2

    def test_merge_rejects_a_different_k(self):
        coarse, fine = QuantileSketch(k=50), QuantileSketch(k=200)
        fine.add_many(np.linspace(0.0, 1.0, 1000))
        with pytest.raises(SimulationError, match="k=200"):
            coarse.merge(fine)
        assert coarse.is_empty

    def test_empty_sketch_refuses_queries(self):
        with pytest.raises(SimulationError):
            QuantileSketch().quantile(0.5)

    def test_quantile_bounds_checked(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(SimulationError):
            sketch.quantile(1.5)
        with pytest.raises(SimulationError):
            sketch.percentile(200.0)

    def test_tiny_k_rejected(self):
        with pytest.raises(SimulationError):
            QuantileSketch(k=4)

    def test_endpoints_are_exact(self):
        sketch = QuantileSketch()
        rng = np.random.default_rng(7)
        samples = rng.uniform(size=30_000)
        for value in samples:
            sketch.add(float(value))
        assert sketch.quantile(0.0) == samples.min()
        assert sketch.quantile(1.0) == samples.max()
