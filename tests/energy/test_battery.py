"""Tests for repro.energy.battery."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.energy.battery import (
    Battery,
    BatteryChemistry,
    BatterySpec,
    battery_life_seconds,
    coin_cell_cr2032,
    coin_cell_high_capacity,
    lipo_headset,
    lipo_smartphone,
    lipo_smartwatch,
)
from repro.errors import ConfigurationError, EnergyError


class TestBatterySpec:
    def test_high_capacity_coin_cell_energy(self):
        spec = coin_cell_high_capacity()
        assert spec.capacity_mah == 1000.0
        assert spec.energy_joules == pytest.approx(10_800.0)

    def test_cr2032_energy(self):
        spec = coin_cell_cr2032()
        assert spec.energy_joules == pytest.approx(225e-3 * 3600 * 3.0)

    def test_nominal_voltage_defaults_by_chemistry(self):
        lipo = lipo_smartwatch()
        assert lipo.nominal_voltage == pytest.approx(3.7)
        coin = coin_cell_cr2032()
        assert coin.nominal_voltage == pytest.approx(3.0)

    def test_explicit_voltage_wins(self):
        spec = lipo_smartphone()
        assert spec.nominal_voltage == pytest.approx(3.85)

    def test_usable_fraction_derates_energy(self):
        spec = BatterySpec(name="derated", capacity_mah=100.0, usable_fraction=0.8)
        assert spec.usable_energy_joules == pytest.approx(0.8 * spec.energy_joules)

    def test_leakage_power_is_small(self):
        spec = coin_cell_high_capacity()
        # 1 %/year of 10.8 kJ is well under a microwatt.
        assert spec.leakage_power_watts < units.microwatt(5.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BatterySpec(name="bad", capacity_mah=-1.0)

    def test_invalid_usable_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            BatterySpec(name="bad", capacity_mah=10.0, usable_fraction=0.0)

    def test_invalid_self_discharge_rejected(self):
        with pytest.raises(ConfigurationError):
            BatterySpec(name="bad", capacity_mah=10.0, self_discharge_per_year=1.5)

    def test_headset_pack_larger_than_watch(self):
        assert lipo_headset().energy_joules > lipo_smartwatch().energy_joules

    def test_cell_constants_match_their_closed_forms(self):
        for spec in (coin_cell_cr2032(), lipo_smartphone(),
                     BatterySpec(name="derated", capacity_mah=3.3,
                                 usable_fraction=0.7,
                                 self_discharge_per_year=0.2)):
            energy = units.mAh(spec.capacity_mah, volts=spec.nominal_voltage)
            assert spec.energy_joules == energy
            assert spec.usable_energy_joules == energy * spec.usable_fraction
            assert spec.leakage_power_watts == (
                energy * spec.leakage_fraction_per_year
                / units.SECONDS_PER_YEAR)
            assert spec.empty_threshold_joules == math.ulp(
                spec.usable_energy_joules)

    def test_cell_constants_are_not_fields(self):
        spec = coin_cell_cr2032()
        assert [f.name for f in dataclasses.fields(spec)] == [
            "name", "capacity_mah", "chemistry", "voltage",
            "usable_fraction", "self_discharge_per_year"]
        scaled = dataclasses.replace(spec, capacity_mah=2.0)
        assert scaled.energy_joules == units.mAh(2.0)
        assert scaled != spec and coin_cell_cr2032() == spec


class TestBatteryLifeProjection:
    def test_simple_division(self):
        spec = BatterySpec(name="ideal", capacity_mah=1000.0,
                           self_discharge_per_year=0.0)
        life = battery_life_seconds(spec, units.milliwatt(1.0))
        assert life == pytest.approx(10_800.0 / 1e-3)

    def test_zero_load_is_limited_by_self_discharge(self):
        spec = coin_cell_high_capacity()
        life = battery_life_seconds(spec, 0.0)
        assert math.isfinite(life)
        # Self-discharge of 1 %/year drains the cell in about a century.
        assert life > units.years(50.0)

    def test_zero_load_zero_leakage_is_infinite(self):
        spec = BatterySpec(name="ideal", capacity_mah=10.0,
                           self_discharge_per_year=0.0)
        assert battery_life_seconds(spec, 0.0) == math.inf

    def test_harvesting_extends_life(self):
        spec = coin_cell_high_capacity()
        base = battery_life_seconds(spec, units.microwatt(100.0))
        harvested = battery_life_seconds(
            spec, units.microwatt(100.0),
            harvested_power_watts=units.microwatt(50.0),
        )
        assert harvested > base

    def test_full_harvesting_gives_infinite_life(self):
        spec = coin_cell_high_capacity()
        life = battery_life_seconds(
            spec, units.microwatt(50.0),
            harvested_power_watts=units.microwatt(200.0),
        )
        assert life == math.inf

    def test_negative_load_rejected(self):
        with pytest.raises(EnergyError):
            battery_life_seconds(coin_cell_high_capacity(), -1.0)

    def test_negative_harvest_rejected(self):
        with pytest.raises(EnergyError):
            battery_life_seconds(coin_cell_high_capacity(), 1.0,
                                 harvested_power_watts=-1.0)

    def test_fig3_anchor_point(self):
        """A 30 uW node on the 1000 mAh cell exceeds the one-year threshold."""
        life = battery_life_seconds(coin_cell_high_capacity(), units.microwatt(30.0))
        assert life > units.years(1.0)

    @given(st.floats(min_value=1e-6, max_value=10.0))
    def test_life_monotonically_decreases_with_load(self, load):
        spec = coin_cell_high_capacity()
        heavier = battery_life_seconds(spec, load * 2.0)
        lighter = battery_life_seconds(spec, load)
        assert heavier < lighter


class TestStatefulBattery:
    def test_starts_full(self):
        cell = Battery(spec=coin_cell_cr2032())
        assert cell.state_of_charge_fraction == pytest.approx(1.0)
        assert not cell.is_empty

    def test_drain_reduces_charge(self):
        cell = Battery(spec=coin_cell_cr2032())
        delivered = cell.drain(100.0)
        assert delivered == 100.0
        assert cell.state_of_charge_joules == pytest.approx(
            cell.spec.usable_energy_joules - 100.0
        )

    def test_overdrain_raises_without_clip(self):
        cell = Battery(spec=BatterySpec(name="tiny", capacity_mah=1.0))
        with pytest.raises(EnergyError):
            cell.drain(1e9)

    def test_overdrain_clips_when_requested(self):
        cell = Battery(spec=BatterySpec(name="tiny", capacity_mah=1.0))
        delivered = cell.drain(1e9, clip=True)
        assert delivered == pytest.approx(cell.spec.usable_energy_joules)
        assert cell.is_empty

    def test_charge_clips_at_capacity(self):
        cell = Battery(spec=coin_cell_cr2032())
        stored = cell.charge(1e9)
        assert stored == pytest.approx(0.0)
        cell.drain(500.0)
        stored = cell.charge(1e9)
        assert stored == pytest.approx(500.0)

    def test_negative_operations_rejected(self):
        cell = Battery(spec=coin_cell_cr2032())
        with pytest.raises(EnergyError):
            cell.drain(-1.0)
        with pytest.raises(EnergyError):
            cell.charge(-1.0)

    def test_run_sustains_full_duration_when_charged(self):
        cell = Battery(spec=coin_cell_high_capacity())
        sustained = cell.run(units.milliwatt(1.0), 3600.0)
        assert sustained == pytest.approx(3600.0)

    def test_run_cuts_short_when_cell_empties(self):
        cell = Battery(spec=BatterySpec(name="tiny", capacity_mah=1.0))
        sustained = cell.run(1.0, 1e6)
        assert sustained < 1e6
        assert cell.is_empty

    def test_run_with_surplus_harvest_recharges(self):
        cell = Battery(spec=coin_cell_cr2032())
        cell.drain(100.0)
        sustained = cell.run(units.microwatt(10.0), 1000.0,
                             harvested_power_watts=units.milliwatt(1.0))
        assert sustained == pytest.approx(1000.0)
        assert cell.state_of_charge_joules > cell.spec.usable_energy_joules - 100.0

    def test_projected_life_matches_closed_form(self):
        cell = Battery(spec=coin_cell_high_capacity())
        projected = cell.projected_life_seconds(units.microwatt(100.0))
        closed_form = battery_life_seconds(
            coin_cell_high_capacity(), units.microwatt(100.0)
        )
        assert projected == pytest.approx(closed_form, rel=1e-6)

    def test_initial_charge_above_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery(spec=coin_cell_cr2032(), state_of_charge_joules=1e9)

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1,
                    max_size=30))
    def test_drain_conservation_property(self, drains):
        """Total delivered energy never exceeds the usable capacity."""
        cell = Battery(spec=BatterySpec(name="prop", capacity_mah=1.0))
        delivered = sum(cell.drain(amount, clip=True) for amount in drains)
        assert delivered <= cell.spec.usable_energy_joules + 1e-9
        assert cell.state_of_charge_joules >= -1e-12


class TestChemistryTables:
    def test_all_chemistries_have_voltage_and_leakage(self):
        from repro.energy.battery import NOMINAL_VOLTAGE, SELF_DISCHARGE_PER_YEAR

        for chemistry in BatteryChemistry:
            assert chemistry in NOMINAL_VOLTAGE
            assert chemistry in SELF_DISCHARGE_PER_YEAR
            assert NOMINAL_VOLTAGE[chemistry] > 0
            assert 0 <= SELF_DISCHARGE_PER_YEAR[chemistry] < 1


class TestSocBoundaryRobustness:
    """Satellite: SoC clamps exactly at [0, capacity] and `is_empty`
    tolerates float residue at the empty boundary."""

    def test_charge_to_exactly_full_is_exact(self):
        cell = Battery(spec=coin_cell_cr2032())
        cell.drain(123.456789)
        cell.charge(1e9)
        assert cell.state_of_charge_joules == cell.spec.usable_energy_joules
        assert cell.state_of_charge_fraction == 1.0

    def test_is_empty_tolerates_ulp_residue(self):
        cell = Battery(spec=coin_cell_cr2032())
        usable = cell.spec.usable_energy_joules
        # Drain in three uneven chunks that mathematically sum to the
        # whole capacity; float rounding may leave ±1 ulp behind.
        cell.drain(usable * 0.3, clip=True)
        cell.drain(usable * 0.33, clip=True)
        cell.drain(usable - usable * 0.3 - usable * 0.33, clip=True)
        assert cell.state_of_charge_joules <= math.ulp(usable)
        assert cell.is_empty

    def test_fraction_clamped_even_with_manual_residue(self):
        cell = Battery(spec=coin_cell_cr2032())
        cell.state_of_charge_joules = -1e-18  # adversarial residue
        assert cell.state_of_charge_fraction == 0.0
        cell.state_of_charge_joules = cell.spec.usable_energy_joules * (1 + 1e-16)
        assert cell.state_of_charge_fraction == 1.0

    @given(st.lists(
        st.tuples(
            st.sampled_from(["drain", "charge", "run", "run_harvest"]),
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
        ),
        max_size=50,
    ))
    def test_soc_fraction_never_leaves_unit_interval(self, operations):
        """Property: arbitrary drain/charge/run sequences keep the state
        of charge inside [0, capacity] — the satellite's contract."""
        cell = Battery(spec=BatterySpec(name="prop", capacity_mah=1.0))
        usable = cell.spec.usable_energy_joules
        for kind, amount, duration in operations:
            if kind == "drain":
                cell.drain(amount, clip=True)
            elif kind == "charge":
                cell.charge(amount)
            elif kind == "run":
                cell.run(amount * 1e-3, duration)
            else:
                cell.run(amount * 1e-3, duration,
                         harvested_power_watts=amount * 2e-3)
            assert 0.0 <= cell.state_of_charge_fraction <= 1.0
            assert 0.0 <= cell.state_of_charge_joules <= usable


class TestNonFiniteInputs:
    """NaN, inf and negative inputs raise before the charge changes."""

    BAD = (math.nan, math.inf, -math.inf, -1.0)

    @pytest.mark.parametrize("energy", BAD)
    def test_drain_rejects(self, energy):
        cell = Battery(spec=coin_cell_cr2032())
        with pytest.raises(EnergyError):
            cell.drain(energy, clip=True)
        assert cell.state_of_charge_fraction == 1.0

    @pytest.mark.parametrize("bad", BAD)
    def test_run_rejects(self, bad):
        cell = Battery(spec=coin_cell_cr2032())
        for load, duration, harvest in ((bad, 1.0, 0.0), (1e-3, bad, 0.0),
                                        (1e-3, 1.0, bad)):
            with pytest.raises(EnergyError):
                cell.run(load, duration, harvested_power_watts=harvest)
        assert cell.state_of_charge_fraction == 1.0

    @pytest.mark.parametrize("energy", (math.nan, -1.0))
    def test_charge_rejects(self, energy):
        cell = Battery(spec=coin_cell_cr2032(), state_of_charge_joules=1.0)
        with pytest.raises(EnergyError):
            cell.charge(energy)
        assert cell.state_of_charge_joules == 1.0


class TestUncheckedCores:
    """``drain_fast``/``run_fast`` are the arithmetic behind the checked
    methods, so the two give identical charge and return values."""

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e4),
                              st.floats(min_value=0.0, max_value=1e3),
                              st.floats(min_value=0.0, max_value=1e3)),
                    min_size=1, max_size=20))
    def test_cores_match_checked_methods(self, operations):
        checked = Battery(spec=coin_cell_cr2032())
        fast = Battery(spec=coin_cell_cr2032())
        for amount, duration, harvest in operations:
            assert fast.drain_fast(amount) == checked.drain(amount,
                                                            clip=True)
            assert fast.run_fast(amount * 1e-3, duration, harvest * 1e-3) \
                == checked.run(amount * 1e-3, duration,
                               harvested_power_watts=harvest * 1e-3)
            assert fast.state_of_charge_joules == \
                checked.state_of_charge_joules

    def test_overdrain_without_clip_leaves_the_charge(self):
        cell = Battery(spec=coin_cell_cr2032(), state_of_charge_joules=1.0)
        with pytest.raises(EnergyError, match="exceeds"):
            cell.drain(2.0)
        assert cell.state_of_charge_joules == 1.0
        assert cell.drain_fast(2.0) == 1.0
        assert cell.is_empty
