"""Tests for repro.energy.runtime (NodeEnergyState)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.energy.battery import BatterySpec, coin_cell_cr2032
from repro.energy.harvester import (
    HarvestingEnvironment,
    indoor_photovoltaic,
    rf_ambient,
)
from repro.energy.ledger import EnergyLedger
from repro.energy.runtime import NodeEnergyState
from repro.errors import EnergyError


def tiny_cell(capacity_mah: float = 1e-4) -> BatterySpec:
    """A cell small enough to die within a short test interval."""
    return BatterySpec(name="tiny", capacity_mah=capacity_mah,
                       self_discharge_per_year=0.0)


class TestUnconstrainedState:
    def test_no_battery_never_dies(self):
        state = NodeEnergyState()
        state.drain("tx", 1e9, timestamp_seconds=1.0)
        state.advance({"sensing": 1.0}, 1e6, 1e6)
        assert state.alive
        assert state.state_of_charge_fraction == 1.0
        assert state.death_seconds is None

    def test_consumption_still_posted(self):
        state = NodeEnergyState()
        state.drain("tx", 2.0, timestamp_seconds=0.5)
        state.advance({"sensing": 3.0}, 2.0, 2.5)
        assert state.ledger.total_energy("tx") == pytest.approx(2.0)
        assert state.ledger.total_energy("sensing") == pytest.approx(6.0)


class TestBatteryDrain:
    def test_impulse_drain_reduces_charge(self):
        state = NodeEnergyState.from_spec(battery=tiny_cell())
        usable = state.battery.spec.usable_energy_joules
        delivered = state.drain("tx", usable / 2.0, timestamp_seconds=1.0)
        assert delivered == pytest.approx(usable / 2.0)
        assert state.state_of_charge_fraction == pytest.approx(0.5)
        assert state.alive

    def test_impulse_overdrain_kills_at_timestamp(self):
        state = NodeEnergyState.from_spec(battery=tiny_cell())
        state.drain("tx", 1e9, timestamp_seconds=42.0)
        assert not state.alive
        assert state.death_seconds == 42.0

    def test_dead_state_consumes_and_posts_nothing(self):
        state = NodeEnergyState.from_spec(battery=tiny_cell())
        state.drain("tx", 1e9, timestamp_seconds=1.0)
        posted = state.ledger.total_energy()
        assert state.drain("tx", 1.0, timestamp_seconds=2.0) == 0.0
        assert state.advance({"sensing": 1.0}, 1.0, 3.0) == 0.0
        assert state.ledger.total_energy() == posted

    def test_interval_death_is_interpolated(self):
        # 1.08 J usable at a constant 0.1 W dies 10.8 s into an interval.
        state = NodeEnergyState.from_spec(battery=tiny_cell())
        usable = state.battery.spec.usable_energy_joules
        sustained = state.advance({"load": 0.1}, 100.0, 100.0)
        assert sustained == pytest.approx(usable / 0.1)
        assert state.death_seconds == pytest.approx(usable / 0.1)
        # Only the sustained fraction of demand was served and posted.
        assert state.ledger.total_energy("load") == pytest.approx(usable)

    def test_self_discharge_included_by_default(self):
        leaky = BatterySpec(name="leaky", capacity_mah=1e-4,
                            self_discharge_per_year=0.5)
        state = NodeEnergyState.from_spec(battery=leaky)
        assert state.leakage_power_watts > 0.0
        without = NodeEnergyState.from_spec(battery=leaky)
        without.include_self_discharge = False
        assert without.leakage_power_watts == 0.0

    def test_initial_charge_fraction(self):
        state = NodeEnergyState.from_spec(battery=tiny_cell(),
                                          initial_charge_fraction=0.25)
        assert state.state_of_charge_fraction == pytest.approx(0.25)
        with pytest.raises(EnergyError):
            NodeEnergyState.from_spec(battery=tiny_cell(),
                                      initial_charge_fraction=0.0)


class TestHarvesting:
    def test_surplus_harvest_recharges_up_to_full(self):
        state = NodeEnergyState.from_spec(
            battery=tiny_cell(),
            harvester=rf_ambient(peak_power_watts=units.microwatt(100.0)),
            initial_charge_fraction=0.5,
        )
        state.advance({"load": units.microwatt(10.0)}, 100.0, 100.0)
        assert state.state_of_charge_fraction > 0.5
        assert state.harvested_joules == pytest.approx(
            units.microwatt(100.0) * 100.0)

    def test_environment_scales_harvest_income(self):
        indoor = NodeEnergyState.from_spec(
            battery=tiny_cell(), harvester=indoor_photovoltaic(),
            environment=HarvestingEnvironment.INDOOR_DIM)
        sunny = NodeEnergyState.from_spec(
            battery=tiny_cell(), harvester=indoor_photovoltaic(),
            environment=HarvestingEnvironment.OUTDOOR_SUN)
        assert sunny.harvest_power_watts > indoor.harvest_power_watts

    def test_net_positive_node_never_dies(self):
        state = NodeEnergyState.from_spec(
            battery=tiny_cell(),
            harvester=rf_ambient(peak_power_watts=units.microwatt(50.0)))
        sustained = state.advance(
            {"load": units.microwatt(10.0)}, 1e5, 1e5)
        assert sustained == 1e5
        assert state.alive
        assert math.isinf(state.projected_life_seconds(
            units.microwatt(10.0)))


class TestLowBatterySignal:
    def test_threshold_crossing_reported(self):
        state = NodeEnergyState.from_spec(battery=tiny_cell(),
                                          low_battery_fraction=0.5)
        assert not state.is_low_battery()
        usable = state.battery.spec.usable_energy_joules
        state.drain("tx", usable * 0.6, timestamp_seconds=1.0)
        assert state.is_low_battery()

    def test_unarmed_state_never_reports_low(self):
        state = NodeEnergyState.from_spec(battery=tiny_cell())
        state.drain("tx", state.battery.spec.usable_energy_joules * 0.99,
                    timestamp_seconds=1.0)
        assert not state.is_low_battery()

    def test_invalid_threshold_rejected(self):
        with pytest.raises(EnergyError):
            NodeEnergyState.from_spec(battery=tiny_cell(),
                                      low_battery_fraction=1.5)


class TestValidation:
    def test_negative_interval_rejected(self):
        state = NodeEnergyState()
        with pytest.raises(EnergyError):
            state.advance({}, -1.0, 0.0)

    def test_negative_load_rejected(self):
        state = NodeEnergyState()
        with pytest.raises(EnergyError):
            state.advance({"x": -1.0}, 1.0, 1.0)

    def test_shared_ledger_is_used(self):
        ledger = EnergyLedger()
        state = NodeEnergyState.from_spec(battery=tiny_cell(), ledger=ledger)
        state.drain("tx", 1e-4, timestamp_seconds=0.0)
        assert ledger.total_energy("tx") == pytest.approx(1e-4)


class TestNonFiniteInputs:
    """NaN/inf energy inputs raise before any state changes."""

    @staticmethod
    def full_cr2032() -> NodeEnergyState:
        return NodeEnergyState.from_spec(battery=coin_cell_cr2032())

    @staticmethod
    def assert_untouched(state: NodeEnergyState) -> None:
        assert state.alive and state.death_seconds is None
        if state.battery is not None:
            assert state.state_of_charge_fraction == 1.0
        assert state.harvested_joules == 0.0
        assert state.ledger.posted_count == 0
        assert state.ledger.total_energy() == 0.0

    @pytest.mark.parametrize(("energy", "stamp"), [
        (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1e-3, math.nan),
        (1e-3, math.inf)])
    def test_drain_rejects(self, energy, stamp):
        # A NaN drain used to deliver the whole 2430 J and kill the node.
        state = self.full_cr2032()
        with pytest.raises(EnergyError):
            state.drain("wir_tx", energy, stamp)
        self.assert_untouched(state)

    @pytest.mark.parametrize("energy", (math.nan, math.inf, -1.0))
    def test_batteryless_drain_rejects(self, energy):
        state = NodeEnergyState()
        with pytest.raises(EnergyError):
            state.drain("wir_tx", energy, 1.0)
        self.assert_untouched(state)

    @pytest.mark.parametrize(("loads", "duration", "end"), [
        ({"sensing": 1e-3}, math.nan, 1.0),
        ({"sensing": 1e-3}, math.inf, 1.0),
        ({"sensing": 1e-3}, 1.0, math.nan),
        ({"sensing": 1e-3, "isa": math.nan}, 1.0, 1.0),
        ({"sensing": math.inf}, 1.0, 1.0),
        # Each load is finite but their total overflows to inf.
        ({"sensing": 1e308, "isa": 1e308}, 1.0, 1.0),
    ])
    def test_advance_rejects(self, loads, duration, end):
        # A NaN duration or load used to empty the cell, then raise a
        # bare ValueError from the ledger.
        for state in (self.full_cr2032(), NodeEnergyState()):
            with pytest.raises(EnergyError):
                state.advance(loads, duration, end)
            self.assert_untouched(state)


# One operation of a random energy history: ("drain", component, joules,
# gap) or ("advance", {component: watts}, duration, 0.0).  Time moves
# forward by the gap or the duration.
_components = st.sampled_from(["wir_tx", "wir_retx", "arq_ack"])
_loads = st.dictionaries(st.sampled_from(["sensing", "isa", "wir_sleep"]),
                         st.floats(min_value=0.0, max_value=0.05),
                         max_size=3)
_operation = st.one_of(
    st.tuples(st.just("drain"), _components,
              st.floats(min_value=0.0, max_value=0.4),
              st.floats(min_value=0.0, max_value=30.0)),
    st.tuples(st.just("advance"), _loads,
              st.floats(min_value=0.0, max_value=60.0), st.just(0.0)),
)


class TestLedgerModeEquivalence:
    @given(battery=st.sampled_from([None, 0.1, 0.3]),
           harvest=st.booleans(),
           operations=st.lists(_operation, max_size=40))
    def test_streaming_and_exact_ledgers_agree(self, battery, harvest,
                                               operations):
        """Property: every drain or advance grows the books by exactly
        what it posts.  A drain adds the delivered energy to its
        component and the grand total; an advance adds
        ``watts * sustained`` per load, in the loads' order, and a
        brownout stamps the sustained interval's end.  ``posted_count``
        grows by the number of posts.  A ~1 J cell browns out mid-interval
        under 0.05 W loads."""
        ledger = EnergyLedger()
        state = NodeEnergyState.from_spec(
            battery=(None if battery is None else BatterySpec(
                name="prop", capacity_mah=battery,
                self_discharge_per_year=0.5)),
            harvester=(rf_ambient(peak_power_watts=units.microwatt(
                500.0)) if harvest else None),
            ledger=ledger)
        now = 0.0
        for kind, what, amount, gap in operations:
            alive = state.death_seconds is None
            totals = ledger.breakdown()
            grand = ledger.total_energy()
            posted = ledger.posted_count
            if kind == "drain":
                now += gap
                delivered = state.drain(what, amount, now)
                posts = {what: delivered} if alive and (
                    battery is None or delivered > 0.0) else {}
            else:
                now += amount
                sustained = state.advance(what, amount, now)
                posts = ({component: watts * sustained
                          for component, watts in what.items()}
                         if alive and amount != 0.0 else {})
                if alive and state.death_seconds is not None:
                    assert state.death_seconds == now - amount + sustained
            for component, energy in posts.items():
                totals[component] = totals.get(component, 0.0) + energy
                grand += energy
            assert ledger.breakdown() == totals
            assert ledger.total_energy() == grand
            assert ledger.posted_count == posted + len(posts)
        if state.battery is not None:
            assert 0.0 <= state.state_of_charge_fraction <= 1.0

    def test_brownout_mid_interval_keeps_sustained_duration(self):
        state = NodeEnergyState.from_spec(
            battery=tiny_cell(0.1))
        state.drain("wir_tx", 0.5, 2.0)  # of 1.08 J
        sustained = state.advance({"sensing": 0.1}, 100.0, 110.0)
        assert 0.0 < sustained < 100.0
        assert state.death_seconds == 10.0 + sustained
        assert state.ledger.total_energy("sensing") == 0.1 * sustained
