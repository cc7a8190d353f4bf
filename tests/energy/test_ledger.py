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
            ledger.post("radio", 0.001)
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


class TestNonFiniteInputs:
    """Checked posts reject NaN/inf before the totals change."""

    @staticmethod
    def assert_untouched(ledger):
        assert ledger.posted_count == 0
        assert ledger.total_energy() == 0.0
        assert ledger.breakdown() == {}

    @pytest.mark.parametrize("kwargs", [
        {"energy_joules": math.nan}, {"energy_joules": math.inf},
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


class TestPostFast:
    def test_matches_post_in_both_modes(self):
        checked = EnergyLedger()
        fast = EnergyLedger()
        for energy in (0.1, 0.2, 0.0, 3.0):
            checked.post("x", energy)
            fast.post_fast("x", energy)
        assert fast.breakdown() == checked.breakdown()
        assert fast.total_energy() == checked.total_energy()
        assert fast.posted_count == checked.posted_count


class TestPostPowersFast:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e-3),
                    min_size=1, max_size=4),
           st.floats(min_value=0.0, max_value=10.0))
    def test_matches_one_post_fast_per_load(self, powers, duration):
        loads = {f"c{i}": watts for i, watts in enumerate(powers)}
        one_by_one = EnergyLedger()
        batched = EnergyLedger()
        for ledger in (one_by_one, batched):
            ledger.post_fast("wir_tx", 0.25)  # a prior total to add to
        for component, watts in loads.items():
            one_by_one.post_fast(component, watts * duration)
        batched.post_powers_fast(loads, duration)
        assert batched.breakdown() == one_by_one.breakdown()
        assert batched.components() == one_by_one.components()
        assert batched.total_energy() == one_by_one.total_energy()
        assert batched.posted_count == one_by_one.posted_count
