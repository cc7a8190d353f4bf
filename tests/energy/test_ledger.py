"""Tests for repro.energy.ledger."""

from __future__ import annotations

import math

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
    """The default ledger keeps no entries yet answers identically."""

    def test_default_ledger_retains_no_entries(self):
        ledger = EnergyLedger()
        for index in range(1000):
            ledger.post("radio", 0.001, timestamp_seconds=float(index))
        assert not ledger.keeps_entries
        assert ledger.entries is None
        assert ledger.retained_entries == 0
        assert ledger.posted_count == 1000

    def test_exact_mode_retains_entries(self):
        ledger = EnergyLedger(keep_entries=True)
        ledger.post("radio", 1.0)
        ledger.post("cpu", 2.0)
        assert ledger.keeps_entries
        assert len(ledger.entries) == 2
        assert ledger.retained_entries == 2

    def test_streaming_totals_bit_identical_to_exact(self):
        """Running totals add in posting order — the same float sequence
        the exact mode's entry re-scan would produce."""
        import random

        rng = random.Random(7)
        postings = [(rng.choice("abc"), rng.random()) for _ in range(500)]
        streaming = EnergyLedger()
        exact = EnergyLedger(keep_entries=True)
        for component, energy in postings:
            streaming.post(component, energy)
            exact.post(component, energy)
        assert streaming.total_energy() == exact.total_energy()
        assert streaming.breakdown() == exact.breakdown()
        assert streaming.components() == exact.components()
        # And the exact mode's totals equal re-summing its entries.
        resummed = 0.0
        for entry in exact.entries:
            resummed += entry.energy_joules
        assert exact.total_energy() == resummed

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

    def test_merge_keeps_entries_only_when_both_sides_do(self):
        exact = EnergyLedger(keep_entries=True)
        exact.post("a", 1.0)
        streaming = EnergyLedger()
        streaming.post("b", 2.0)
        assert not exact.merge(streaming).keeps_entries
        both = exact.merge(exact)
        assert both.keeps_entries
        assert both.retained_entries == 2

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

    def test_exact_mode_retains_interval_entry(self):
        ledger = EnergyLedger(keep_entries=True)
        ledger.post_interval("x", 2.0, 1.0, 5.0, note="leap")
        (entry,) = ledger.entries
        assert entry.energy_joules == 2.0
        assert entry.timestamp_seconds == 1.0
        assert entry.duration_seconds == 4.0
        assert entry.note == "leap"

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
        assert ledger.retained_entries == 0

    @pytest.mark.parametrize("kwargs", [
        {"energy_joules": math.nan}, {"energy_joules": math.inf},
        {"energy_joules": 1.0, "duration_seconds": math.nan},
        {"energy_joules": 1.0, "duration_seconds": math.inf},
        {"energy_joules": 1.0, "timestamp_seconds": math.nan},
        {"energy_joules": 1.0, "timestamp_seconds": math.inf},
    ])
    def test_post_rejects(self, kwargs):
        ledger = EnergyLedger(keep_entries=True)
        with pytest.raises(EnergyError):
            ledger.post("x", **kwargs)
        self.assert_untouched(ledger)

    @pytest.mark.parametrize(("power", "duration"), [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
        (1e300, 1e300)])
    def test_post_power_rejects(self, power, duration):
        ledger = EnergyLedger(keep_entries=True)
        with pytest.raises(EnergyError):
            ledger.post_power("x", power, duration)
        self.assert_untouched(ledger)

    @pytest.mark.parametrize(("energy", "start", "end"), [
        (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (1.0, math.nan, 1.0),
        (1.0, 0.0, math.nan), (1.0, 0.0, math.inf),
        (1.0, -math.inf, 1.0)])
    def test_post_interval_rejects(self, energy, start, end):
        ledger = EnergyLedger(keep_entries=True)
        with pytest.raises(EnergyError):
            ledger.post_interval("x", energy, start, end)
        self.assert_untouched(ledger)


class TestPostFast:
    def test_matches_post_in_both_modes(self):
        for keep in (False, True):
            checked = EnergyLedger(keep_entries=keep)
            fast = EnergyLedger(keep_entries=keep)
            for i, energy in enumerate((0.1, 0.2, 0.0, 3.0)):
                stamp = 97.0 * i - 50.0  # clamps at both trace ends
                checked.post("x", energy, duration_seconds=2.0,
                             timestamp_seconds=stamp, note="n")
                fast.post_fast("x", energy, stamp, 2.0, "n")
            assert fast.breakdown() == checked.breakdown()
            assert fast.total_energy() == checked.total_energy()
            assert fast.posted_count == checked.posted_count
            assert fast.trace_energy_joules().tolist() == \
                checked.trace_energy_joules().tolist()
            assert fast.entries == checked.entries

    def test_post_returns_the_retained_entry(self):
        ledger = EnergyLedger(keep_entries=True)
        entry = ledger.post("x", 1.0, duration_seconds=2.0,
                            timestamp_seconds=3.0, note="n")
        assert ledger.entries == [entry]
        assert EnergyLedger().post("x", 1.0, 2.0, 3.0, "n") == entry


class TestPostPowersFast:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e-3),
                    min_size=1, max_size=4),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=-100.0, max_value=1e5),
           st.booleans())
    def test_matches_one_post_fast_per_load(self, powers, duration, stamp,
                                            keep):
        loads = {f"c{i}": watts for i, watts in enumerate(powers)}
        one_by_one = EnergyLedger(keep_entries=keep)
        batched = EnergyLedger(keep_entries=keep)
        for ledger in (one_by_one, batched):
            ledger.post_fast("wir_tx", 0.25, 1.0)  # a prior total to add to
        for component, watts in loads.items():
            one_by_one.post_fast(component, watts * duration, stamp,
                                 duration)
        batched.post_powers_fast(loads, duration, stamp)
        assert batched.breakdown() == one_by_one.breakdown()
        assert batched.components() == one_by_one.components()
        assert batched.total_energy() == one_by_one.total_energy()
        assert batched.posted_count == one_by_one.posted_count
        assert batched.trace_energy_joules().tolist() == \
            one_by_one.trace_energy_joules().tolist()
        assert batched.entries == one_by_one.entries
