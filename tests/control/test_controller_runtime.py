"""Controller runtime: attach-time validation, the cadence stream and
the tx-power premium on battery nodes."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.control import Action, ControllerSpec, Observation, StaticController
from repro.control.runtime import TX_BOOST_COMPONENT
from repro.energy.battery import BatterySpec
from repro.errors import SimulationError
from repro.netsim import BodyNetworkSimulator, PeriodicSource
from repro.netsim.config import NodeConfig
from repro.scenarios import get_scenario
from repro.scenarios.environment import BodyPlacement, EnvironmentSpec


def dense_simulator():
    return get_scenario("dense_50_leaf").build(seed=0)


class FixedCadence(StaticController):
    """A live controller with an arbitrary (possibly invalid) cadence."""

    def __init__(self, cadence: float | None) -> None:
        super().__init__()
        self.cadence_seconds = cadence
        self.observations: list[Observation] = []

    def evaluate(self, observation: Observation):
        self.observations.append(observation)
        return None


class TestCadenceValidation:
    @pytest.mark.parametrize("cadence", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_cadence_rejected_before_registration(self, cadence):
        simulator = dense_simulator()
        name = next(iter(simulator.nodes))
        with pytest.raises(SimulationError, match="cadence"):
            simulator.attach_controller(name, FixedCadence(cadence))
        assert simulator.controllers == {}
        assert simulator.nodes[name].controller is None
        assert len(simulator.queue) == 0
        # Nothing half-registered: the node takes a valid controller and
        # the run terminates.
        controller = FixedCadence(0.25)
        simulator.attach_controller(name, controller)
        simulator.run(1.0)
        assert len(controller.observations) == 4


class TestCadenceStream:
    def test_ticks_bypass_the_event_queue(self, monkeypatch):
        simulator = dense_simulator()
        spec = ControllerSpec(kind="per_backoff", cadence_seconds=0.1)
        runtimes = [simulator.attach_controller(name, spec)
                    for name in list(simulator.nodes)[:3]]
        assert len(simulator.queue) == 0
        steps = []
        step = simulator.queue.step
        monkeypatch.setattr(simulator.queue, "step",
                            lambda: steps.append(1) or step())
        simulator.run(1.0)
        assert steps == []
        assert [runtime.evaluations for runtime in runtimes] == [10] * 3

    def test_ticks_resume_across_runs_in_sequence(self):
        # Two chunks equal one call: the stream persists across kernel
        # entries, like queued events.
        observed = []
        for chunks in ((2.0,), (0.7, 2.0)):
            simulator = dense_simulator()
            name = next(iter(simulator.nodes))
            controller = FixedCadence(0.3)
            simulator.attach_controller(name, controller)
            for end in chunks:
                simulator._run_kernel(end)
            observed.append([(o.time_seconds, o.window_seconds)
                             for o in controller.observations])
        assert observed[0] == observed[1]
        assert len(observed[0]) == 6


def commute_battery_spec():
    """commute_walk with its ECG patch on a CR2032 scaled to ~13 min."""
    spec = get_scenario("commute_walk")
    nodes = tuple(
        dataclasses.replace(node, battery="cr2032", battery_scale=1e-5)
        if node.name == "ecg_patch" else node
        for node in spec.nodes)
    return dataclasses.replace(spec, nodes=nodes)


class TestBoostDrainsBattery:
    """The tx-power premium is paid from the cell that sent the bits."""

    def run_body(self, controller: ControllerSpec | None):
        environment = EnvironmentSpec(
            name="boost_drain", description="one boosted battery body",
            bodies=(BodyPlacement(scenario=commute_battery_spec(),
                                  controller=controller),))
        built = environment.build(seed=0)
        (_, result), = built.run()
        return built.bodies[0].simulator, result

    def test_boosted_node_dies_earlier_and_within_its_cell(self):
        _, plain = self.run_body(None)
        simulator, boosted = self.run_body(
            ControllerSpec(kind="per_backoff", cadence_seconds=5.0))
        node = simulator.nodes["ecg_patch"]
        premium = node.ledger.total_energy(TX_BOOST_COMPONENT)
        assert premium > 0.0
        assert premium == simulator.controllers["ecg_patch"] \
            .tx_boost_energy_joules
        assert plain.per_node_first_death_seconds["ecg_patch"] \
            == pytest.approx(802.7839529393841, abs=1e-9)
        assert boosted.per_node_first_death_seconds["ecg_patch"] \
            == pytest.approx(802.555170418478, abs=1e-9)
        assert node.ledger.total_energy() \
            <= node.energy.battery.spec.usable_energy_joules


class BoostAlways(StaticController):
    """Asks for a large transmit boost at every tick."""

    cadence_seconds = 0.1

    def evaluate(self, observation: Observation):
        if observation.kind == "cadence":
            return Action(tx_power_offset_db=20.0)
        return None


def test_tail_premium_browns_out_at_the_horizon():
    # No energy tick falls inside the run, so the whole premium is the
    # tail ``finalize`` settles; it is ~99x the frame energy the cell
    # was sized for, so paying it empties the cell at the horizon.
    technology = wir_commercial()
    rate = units.kilobit_per_second(64.0)
    joules = 10.0 * rate * technology.tx_energy_per_bit()
    simulator = BodyNetworkSimulator(technology, rng=0,
                                     energy_update_interval_seconds=100.0)
    simulator.attach(NodeConfig(
        "patch", PeriodicSource.from_rate(rate),
        battery=BatterySpec(name="tiny", capacity_mah=joules / (3.6 * 3.0),
                            self_discharge_per_year=0.0)))
    runtime = simulator.attach_controller("patch", BoostAlways())
    result = simulator.run(1.0)
    assert runtime.offset_db == 20.0
    assert result.per_node_first_death_seconds == {"patch": 1.0}
    node = simulator.nodes["patch"]
    # Clipped at empty: the posts sum to the cell, up to rounding.
    assert node.ledger.total_energy() == pytest.approx(
        node.energy.battery.spec.usable_energy_joules, rel=1e-12)
