"""Tests for repro.energy.ledger."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.energy.ledger import EnergyLedger
from repro.errors import EnergyError


class TestEnergyLedger:
    def test_post_and_total(self):
        ledger = EnergyLedger()
        ledger.post("radio", 1.0)
        ledger.post("radio", 2.0)
        ledger.post("sensor", 0.5)
        assert ledger.total_energy() == pytest.approx(3.5)
        assert ledger.total_energy("radio") == pytest.approx(3.0)
        assert ledger.total_energy("sensor") == pytest.approx(0.5)

    def test_post_power_integrates_duration(self):
        ledger = EnergyLedger()
        ledger.post_power("cpu", power_watts=2.0, duration_seconds=3.0)
        assert ledger.total_energy("cpu") == pytest.approx(6.0)

    def test_breakdown(self):
        ledger = EnergyLedger()
        ledger.post("a", 1.0)
        ledger.post("b", 2.0)
        ledger.post("a", 3.0)
        assert ledger.breakdown() == {"a": 4.0, "b": 2.0}

    def test_components_preserve_first_seen_order(self):
        ledger = EnergyLedger()
        ledger.post("z", 1.0)
        ledger.post("a", 1.0)
        ledger.post("z", 1.0)
        assert ledger.components() == ["z", "a"]

    def test_average_power(self):
        ledger = EnergyLedger()
        ledger.post("x", 10.0)
        assert ledger.average_power(5.0) == pytest.approx(2.0)

    def test_average_power_requires_positive_horizon(self):
        ledger = EnergyLedger()
        ledger.post("x", 1.0)
        with pytest.raises(EnergyError):
            ledger.average_power(0.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_average_power_rejects_non_finite_horizon(self, horizon):
        # NaN used to return NaN, and inf a silent 0.0 W.
        ledger = EnergyLedger()
        ledger.post("x", 1.0)
        with pytest.raises(EnergyError):
            ledger.average_power(horizon)
        with pytest.raises(EnergyError):
            ledger.average_power(horizon, "x")

    def test_negative_energy_rejected(self):
        with pytest.raises(EnergyError):
            EnergyLedger().post("x", -1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(EnergyError):
            EnergyLedger().post_power("x", -1.0, 1.0)

    def test_merge_combines_entries(self):
        first = EnergyLedger()
        first.post("a", 1.0)
        second = EnergyLedger()
        second.post("b", 2.0)
        merged = first.merge(second)
        assert merged.total_energy() == pytest.approx(3.0)
        # Originals are untouched.
        assert first.total_energy() == pytest.approx(1.0)
        assert second.total_energy() == pytest.approx(2.0)

    def test_clear(self):
        ledger = EnergyLedger()
        ledger.post("a", 1.0)
        ledger.clear()
        assert ledger.total_energy() == 0.0
        assert ledger.components() == []

    def test_unknown_component_total_is_zero(self):
        ledger = EnergyLedger()
        ledger.post("a", 1.0)
        assert ledger.total_energy("missing") == 0.0

    @given(st.lists(
        st.tuples(st.sampled_from(["radio", "cpu", "sensor"]),
                  st.floats(min_value=0.0, max_value=100.0)),
        max_size=50,
    ))
    def test_total_equals_sum_of_breakdown(self, postings):
        ledger = EnergyLedger()
        for component, energy in postings:
            ledger.post(component, energy)
        assert ledger.total_energy() == pytest.approx(
            sum(ledger.breakdown().values())
        )


class TestStreamingMode:
    """The ledger keeps O(1) state per component and answers exactly."""

    def test_default_ledger_retains_no_entries(self):
        ledger = EnergyLedger()
        for index in range(1000):
            ledger.post("radio", 0.001, timestamp_seconds=float(index))
        assert ledger.posted_count == 1000

    def test_streaming_totals_bit_identical_to_exact(self):
        """Running totals add in posting order: the same float sequence
        as re-summing the postings one by one."""
        import random

        rng = random.Random(7)
        postings = [(rng.choice("abc"), rng.random()) for _ in range(500)]
        ledger = EnergyLedger()
        for component, energy in postings:
            ledger.post(component, energy)
        grand = 0.0
        totals: dict[str, float] = {}
        for component, energy in postings:
            grand += energy
            totals[component] = totals.get(component, 0.0) + energy
        assert ledger.total_energy() == grand
        assert ledger.breakdown() == totals
        assert ledger.components() == list(totals)
        assert ledger.posted_count == len(postings)

    def test_components_order_first_posted(self):
        ledger = EnergyLedger()
        ledger.post("z", 1.0)
        ledger.post("a", 1.0)
        ledger.post("z", 1.0)
        assert ledger.components() == ["z", "a"]


class TestPowerTrace:
    def test_energy_lands_in_time_buckets(self):
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post("x", 5.0, timestamp_seconds=0.0)
        ledger.post("x", 3.0, timestamp_seconds=15.0)
        trace = ledger.trace_energy_joules()
        assert trace.tolist() == [5.0, 3.0, 0.0, 0.0]
        assert ledger.power_trace_watts().tolist() == [0.5, 0.3, 0.0, 0.0]

    def test_overflow_lands_in_last_bucket(self):
        ledger = EnergyLedger(trace_bucket_seconds=1.0, trace_buckets=2)
        ledger.post("x", 7.0, timestamp_seconds=100.0)
        assert ledger.trace_energy_joules().tolist() == [0.0, 7.0]

    def test_invalid_trace_configuration_rejected(self):
        with pytest.raises(EnergyError):
            EnergyLedger(trace_bucket_seconds=0.0)
        with pytest.raises(EnergyError):
            EnergyLedger(trace_buckets=0)

    @pytest.mark.parametrize("buckets", [2.5, math.nan, 4.0, "4"])
    def test_non_integer_bucket_count_rejected(self, buckets):
        # A float count used to get past the ``< 1`` check and raise a
        # bare TypeError from ``[0.0] * trace_buckets``.
        with pytest.raises(EnergyError, match="whole number of buckets"):
            EnergyLedger(trace_buckets=buckets)

    def test_numpy_integer_bucket_count_accepted(self):
        assert EnergyLedger(trace_buckets=np.int64(3)).trace_buckets == 3

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_non_finite_trace_width_rejected(self, width):
        # A NaN width used to construct, and its first post then raised
        # a bare ValueError after updating the totals.
        with pytest.raises(EnergyError):
            EnergyLedger(trace_bucket_seconds=width)


class TestMergeExact:
    def test_merge_adds_totals_and_traces(self):
        first = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        second = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        first.post("a", 1.0, timestamp_seconds=5.0)
        second.post("a", 2.0, timestamp_seconds=5.0)
        second.post("b", 4.0, timestamp_seconds=25.0)
        merged = first.merge(second)
        assert merged.total_energy() == 7.0
        assert merged.breakdown() == {"a": 3.0, "b": 4.0}
        assert merged.components() == ["a", "b"]
        assert merged.posted_count == 3
        assert merged.trace_energy_joules().tolist() == [3.0, 0.0, 4.0, 0.0]

    def test_merge_mismatched_trace_config_rejected(self):
        with pytest.raises(EnergyError):
            EnergyLedger(trace_buckets=4).merge(EnergyLedger(trace_buckets=8))

    def test_clear_resets_streaming_state(self):
        ledger = EnergyLedger()
        ledger.post("a", 1.0, timestamp_seconds=10.0)
        ledger.clear()
        assert ledger.total_energy() == 0.0
        assert ledger.posted_count == 0
        assert float(ledger.trace_energy_joules().sum()) == 0.0


class TestPostInterval:
    def test_spreads_uniformly_across_buckets(self):
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post_interval("x", 6.0, 5.0, 35.0)
        # 30 s at 0.2 J/s: 5 s in bucket 0, 10 s in 1 and 2, 5 s in 3.
        assert ledger.trace_energy_joules().tolist() == \
            pytest.approx([1.0, 2.0, 2.0, 1.0])
        assert ledger.total_energy("x") == pytest.approx(6.0)

    def test_end_on_bucket_edge_does_not_smear(self):
        """An interval ending exactly on a bucket edge must leave the
        bucket that starts there untouched (half-open convention)."""
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post_interval("x", 4.0, 0.0, 20.0)
        assert ledger.trace_energy_joules().tolist() == \
            pytest.approx([2.0, 2.0, 0.0, 0.0])

    def test_overflow_clamps_to_last_bucket(self):
        ledger = EnergyLedger(trace_bucket_seconds=1.0, trace_buckets=2)
        ledger.post_interval("x", 9.0, 0.5, 3.5)
        trace = ledger.trace_energy_joules()
        assert trace.tolist() == pytest.approx([1.5, 7.5])

    def test_zero_length_degenerates_to_point_post(self):
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post_interval("x", 3.0, 15.0, 15.0)
        assert ledger.trace_energy_joules().tolist() == [0.0, 3.0, 0.0, 0.0]

    def test_subnormal_length_degenerates_to_point_post(self):
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post_interval("x", 1.0, 0.0, 5e-324)
        assert ledger.trace_energy_joules().tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_invalid_intervals_rejected(self):
        ledger = EnergyLedger()
        with pytest.raises(EnergyError):
            ledger.post_interval("x", -1.0, 0.0, 1.0)
        with pytest.raises(EnergyError):
            ledger.post_interval("x", 1.0, 2.0, 1.0)

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=200.0),
           st.floats(min_value=0.0, max_value=50.0))
    def test_trace_conserves_posted_energy(self, start, span, energy):
        ledger = EnergyLedger(trace_bucket_seconds=7.0, trace_buckets=6)
        ledger.post_interval("x", energy, start, start + span)
        assert float(ledger.trace_energy_joules().sum()) == \
            pytest.approx(energy)
        assert ledger.total_energy() == pytest.approx(energy)


class TestNonFiniteInputs:
    """Checked posts reject NaN/inf before the totals change."""

    @staticmethod
    def assert_untouched(ledger):
        assert ledger.posted_count == 0
        assert ledger.total_energy() == 0.0
        assert ledger.breakdown() == {}
        assert ledger.trace_energy_joules().tolist() == [0.0] * 64

    @pytest.mark.parametrize("kwargs", [
        {"energy_joules": math.nan}, {"energy_joules": math.inf},
        {"energy_joules": 1.0, "duration_seconds": math.nan},
        {"energy_joules": 1.0, "duration_seconds": math.inf},
        {"energy_joules": 1.0, "timestamp_seconds": math.nan},
        {"energy_joules": 1.0, "timestamp_seconds": math.inf},
    ])
    def test_post_rejects(self, kwargs):
        ledger = EnergyLedger()
        with pytest.raises(EnergyError):
            ledger.post("x", **kwargs)
        self.assert_untouched(ledger)

    @pytest.mark.parametrize(("power", "duration"), [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
        (1e300, 1e300)])
    def test_post_power_rejects(self, power, duration):
        ledger = EnergyLedger()
        with pytest.raises(EnergyError):
            ledger.post_power("x", power, duration)
        self.assert_untouched(ledger)

    @pytest.mark.parametrize(("energy", "start", "end"), [
        (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (1.0, math.nan, 1.0),
        (1.0, 0.0, math.nan), (1.0, 0.0, math.inf),
        (1.0, -math.inf, 1.0)])
    def test_post_interval_rejects(self, energy, start, end):
        ledger = EnergyLedger()
        with pytest.raises(EnergyError):
            ledger.post_interval("x", energy, start, end)
        self.assert_untouched(ledger)


class TestPostFast:
    def test_matches_post_in_both_modes(self):
        checked = EnergyLedger()
        fast = EnergyLedger()
        for i, energy in enumerate((0.1, 0.2, 0.0, 3.0)):
            stamp = 97.0 * i - 50.0  # clamps at both trace ends
            checked.post("x", energy, duration_seconds=2.0,
                         timestamp_seconds=stamp)
            fast.post_fast("x", energy, stamp)
        assert fast.breakdown() == checked.breakdown()
        assert fast.total_energy() == checked.total_energy()
        assert fast.posted_count == checked.posted_count
        assert fast.trace_energy_joules().tolist() == \
            checked.trace_energy_joules().tolist()


class TestPostPowersFast:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e-3),
                    min_size=1, max_size=4),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=-100.0, max_value=1e5))
    def test_matches_one_post_fast_per_load(self, powers, duration, stamp):
        loads = {f"c{i}": watts for i, watts in enumerate(powers)}
        one_by_one = EnergyLedger()
        batched = EnergyLedger()
        for ledger in (one_by_one, batched):
            ledger.post_fast("wir_tx", 0.25, 1.0)  # a prior total to add to
        for component, watts in loads.items():
            one_by_one.post_fast(component, watts * duration, stamp)
        batched.post_powers_fast(loads, duration, stamp)
        assert batched.breakdown() == one_by_one.breakdown()
        assert batched.components() == one_by_one.components()
        assert batched.total_energy() == one_by_one.total_energy()
        assert batched.posted_count == one_by_one.posted_count
        assert batched.trace_energy_joules().tolist() == \
            one_by_one.trace_energy_joules().tolist()
