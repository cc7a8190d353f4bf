"""Tests for the NodeConfig front door (the sole way to attach nodes)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.comm.eqs_hbc import wir_commercial
from repro.energy.battery import BatterySpec
from repro.errors import SimulationError
from repro.netsim import NodeConfig
from repro.netsim.simulator import BodyNetworkSimulator
from repro.netsim.traffic import PeriodicSource


def _source() -> PeriodicSource:
    return PeriodicSource.from_rate(2000.0,
                                    bits_per_packet=256.0)


def _battery(joules: float = 0.05) -> BatterySpec:
    return BatterySpec(name="coin", capacity_mah=joules / (3.6 * 3.0),
                       self_discharge_per_year=0.0)


class TestAttach:
    def test_attach_registers_the_node(self):
        simulator = BodyNetworkSimulator(wir_commercial())
        node = simulator.attach(NodeConfig("ecg", _source(),
                                           sensing_power_watts=1e-6))
        assert simulator.nodes["ecg"] is node
        assert node.sensing_power_watts == 1e-6

    def test_duplicate_name_is_rejected(self):
        simulator = BodyNetworkSimulator(wir_commercial())
        simulator.attach(NodeConfig("ecg", _source()))
        with pytest.raises(SimulationError, match="already exists"):
            simulator.attach(NodeConfig("ecg", _source()))

    def test_invalid_stride_is_rejected(self):
        simulator = BodyNetworkSimulator(wir_commercial())
        with pytest.raises(SimulationError, match="stride"):
            simulator.attach(NodeConfig("ecg", _source(),
                                        low_battery_stride=0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("power", ["sensing_power_watts",
                                       "isa_power_watts",
                                       "coding_power_watts"])
    def test_non_finite_power_is_rejected_at_attach(self, power, value):
        # NaN slips past a bare ``< 0`` guard; it must not survive to
        # the end of a run and only then fail in the ledger.
        simulator = BodyNetworkSimulator(wir_commercial())
        with pytest.raises(SimulationError, match="finite"):
            simulator.attach(NodeConfig("ecg", _source(), **{power: value}))
        assert "ecg" not in simulator.nodes

    def test_battery_config_arms_the_energy_runtime(self):
        simulator = BodyNetworkSimulator(wir_commercial())
        node = simulator.attach(NodeConfig("ecg", _source(),
                                           battery=_battery(),
                                           initial_charge_fraction=0.5))
        assert node.energy is not None
        assert node.energy.state_of_charge_fraction == pytest.approx(0.5)

    def test_config_is_frozen_and_reusable(self):
        config = NodeConfig("ecg", _source())
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.name = "other"
        first = BodyNetworkSimulator(wir_commercial())
        second = BodyNetworkSimulator(wir_commercial())
        first.attach(config)
        second.attach(config)
        assert "ecg" in first.nodes and "ecg" in second.nodes


class TestAddNodeRemoved:
    def test_add_node_shim_is_gone(self):
        # The deprecation cycle is complete (frozen in PR 8, deleted
        # here): the keyword-soup front end must not quietly return.
        simulator = BodyNetworkSimulator(wir_commercial())
        with pytest.raises(AttributeError):
            simulator.add_node("ecg", _source())
