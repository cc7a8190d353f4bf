"""Closed-loop energy runtime inside the discrete-event simulator.

Brownouts, low-battery duty-cycle adaptation and harvest credit must all
emerge from the event queue — and the default (batteryless) path must
stay exactly the historical kernel, which the golden-hex FIFO regression
pins separately.
"""

from __future__ import annotations

import math

import pytest

from repro import units
from repro.energy.battery import BatterySpec
from repro.energy.harvester import rf_ambient
from repro.errors import SimulationError
from repro.comm.eqs_hbc import wir_commercial
from repro.netsim.simulator import BodyNetworkSimulator
from repro.netsim.traffic import PeriodicSource
from repro.netsim.config import NodeConfig


def small_cell(joules: float) -> BatterySpec:
    """A cell holding exactly *joules* (3 V lithium, no self-discharge)."""
    return BatterySpec(name="test-cell", capacity_mah=joules / (3.6 * 3.0),
                       self_discharge_per_year=0.0)


def build(duration_budget_joules: float | None = None, **node_kwargs):
    simulator = BodyNetworkSimulator(wir_commercial(), rng=0,
                                     energy_update_interval_seconds=1.0)
    battery = (small_cell(duration_budget_joules)
               if duration_budget_joules is not None else None)
    simulator.attach(NodeConfig(
        "leaf",
        PeriodicSource.from_rate(units.kilobit_per_second(8.0)),
        sensing_power_watts=units.microwatt(100.0),
        battery=battery,
        **node_kwargs,
    ))
    return simulator


class TestBrownout:
    def test_node_dies_when_battery_empties(self):
        # ~101 uW total load with a 0.001 J cell dies after ~10 s.
        simulator = build(duration_budget_joules=1e-3)
        result = simulator.run(60.0)
        assert result.dead_node_count == 1
        assert "leaf" in result.per_node_first_death_seconds
        death = result.per_node_first_death_seconds["leaf"]
        assert 5.0 < death < 15.0
        assert result.first_death_seconds == death
        assert result.per_node_state_of_charge["leaf"] == pytest.approx(0.0)
        assert result.alive_fraction == 0.0

    def test_dead_node_stops_generating(self):
        starving = build(duration_budget_joules=1e-3).run(60.0)
        healthy = build(duration_budget_joules=1.0).run(60.0)
        assert starving.offered_packets < healthy.offered_packets
        assert healthy.dead_node_count == 0
        assert math.isinf(healthy.first_death_seconds)

    def test_delivered_before_death_frozen_at_brownout(self):
        result = build(duration_budget_joules=1e-3).run(60.0)
        frozen = result.per_node_delivered_before_death["leaf"]
        assert 0 < frozen <= result.delivered_packets

    def test_brownout_event_emitted_once(self):
        result = build(duration_budget_joules=1e-3).run(60.0)
        brownouts = [event for event in result.energy_events
                     if event.kind == "brownout"]
        assert len(brownouts) == 1
        assert brownouts[0].node == "leaf"
        assert brownouts[0].time_seconds == result.first_death_seconds

    def test_backlog_purged_at_brownout(self):
        """A saturated node's queued packets must not deliver for free
        after its cell empties: at most the in-flight transmission
        completes, and everything else reads as offered-but-undelivered."""
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0,
                                         arbitration="polling",
                                         energy_update_interval_seconds=0.5)
        # Offered past what one polling ring can carry (~2.4 ms service
        # vs a 2.05 ms interarrival): a standing backlog builds.
        simulator.attach(NodeConfig(
            "hog",
            PeriodicSource.from_rate(units.megabit_per_second(4.0),
                                     bits_per_packet=8192.0),
            sensing_power_watts=units.microwatt(100.0),
            battery=small_cell(1e-3)))
        result = simulator.run(30.0)
        assert result.dead_node_count == 1
        frozen = result.per_node_delivered_before_death["hog"]
        # No backlog drains post-death: at most one granted/in-flight
        # packet may still complete.
        assert result.delivered_packets <= frozen + 1
        assert result.delivered_fraction < 1.0

    def test_energy_events_chronological(self):
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0,
                                         energy_update_interval_seconds=5.0)
        # Added first, crosses low battery at a tick; the second node
        # browns out at an interpolated time before that tick.
        simulator.attach(NodeConfig(
            "low", PeriodicSource.from_rate(units.kilobit_per_second(8.0)),
            sensing_power_watts=units.microwatt(100.0),
            battery=small_cell(4e-3), low_battery_fraction=0.4))
        simulator.attach(NodeConfig(
            "dead", PeriodicSource.from_rate(units.kilobit_per_second(8.0)),
            sensing_power_watts=units.microwatt(100.0),
            battery=small_cell(1.3e-3)))
        result = simulator.run(60.0)
        times = [event.time_seconds for event in result.energy_events]
        assert len(times) >= 2
        assert times == sorted(times)

    def test_dead_node_cannot_be_woken(self):
        simulator = build(duration_budget_joules=1e-3)
        simulator.run(60.0)
        simulator.set_node_active("leaf", True)
        assert simulator.nodes["leaf"].active is False

    def test_energy_frozen_after_death(self):
        """A dead node consumes nothing for the rest of the run."""
        short = build(duration_budget_joules=1e-3).run(30.0)
        long = build(duration_budget_joules=1e-3).run(300.0)
        # Same cell, same death: total consumed energy is the budget,
        # not budget + static power for the longer horizon.
        short_energy = (short.per_node_average_power_watts["leaf"] * 30.0)
        long_energy = (long.per_node_average_power_watts["leaf"] * 300.0)
        assert long_energy == pytest.approx(short_energy, rel=1e-6)
        assert long_energy == pytest.approx(1e-3, rel=1e-6)


class TestDutyCycleAdaptation:
    @staticmethod
    def tx_heavy(**node_kwargs):
        """A node whose TX energy dominates, so throttling buys life.

        512 kb/s at 100 pJ/bit is ~51 uW of transmit against 5 uW of
        sensing; a 1.7 mJ cell crosses 50% charge ~15 s in, after which
        a 4x traffic throttle cuts the load roughly fourfold.
        """
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0,
                                         energy_update_interval_seconds=1.0)
        simulator.attach(NodeConfig(
            "leaf",
            PeriodicSource.from_rate(units.kilobit_per_second(512.0)),
            sensing_power_watts=units.microwatt(5.0),
            battery=small_cell(1.7e-3),
            **node_kwargs,
        ))
        return simulator

    def test_low_battery_throttles_traffic(self):
        adapted = self.tx_heavy(low_battery_fraction=0.5,
                                low_battery_stride=4).run(60.0)
        unadapted = self.tx_heavy().run(60.0)
        low_events = [event for event in adapted.energy_events
                      if event.kind == "low_battery"]
        assert len(low_events) == 1
        assert low_events[0].state_of_charge_fraction < 0.5
        # Throttled generation offers fewer packets after the crossing.
        assert adapted.offered_packets < unadapted.offered_packets
        # And the throttled node outlives the unadapted one.
        assert (adapted.per_node_state_of_charge["leaf"]
                > unadapted.per_node_state_of_charge["leaf"])

    def test_invalid_stride_rejected(self):
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0)
        with pytest.raises(SimulationError):
            simulator.attach(NodeConfig(
                "leaf", PeriodicSource.from_rate(1000.0),
                battery=small_cell(1.0), low_battery_stride=0))


class TestHarvesting:
    def test_harvester_extends_life(self):
        harvested = build(duration_budget_joules=1e-3,
                          harvester=rf_ambient(
                              peak_power_watts=units.microwatt(60.0)))
        plain = build(duration_budget_joules=1e-3)
        harvested_result = harvested.run(60.0)
        plain_result = plain.run(60.0)
        assert (harvested_result.first_death_seconds
                > plain_result.first_death_seconds)
        assert harvested_result.harvested_joules > 0.0

    def test_net_positive_harvest_is_perpetual(self):
        result = build(duration_budget_joules=1e-3,
                       harvester=rf_ambient(
                           peak_power_watts=units.microwatt(500.0))
                       ).run(60.0)
        assert result.dead_node_count == 0
        assert result.per_node_state_of_charge["leaf"] == pytest.approx(1.0)


class TestStreamingLedgerMemory:
    def test_node_and_hub_ledgers_stay_flat(self):
        """The default ledgers retain zero entries however long the run."""
        simulator = build(duration_budget_joules=1.0)
        result = simulator.run(120.0)
        assert result.delivered_packets > 50
        node = simulator.nodes["leaf"]
        assert node.ledger.retained_entries == 0
        assert node.ledger.posted_count > result.delivered_packets
        assert simulator.hub_ledger.retained_entries == 0

    def test_batteryless_path_ledger_also_flat(self):
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0)
        simulator.attach(NodeConfig(
            "leaf", PeriodicSource.from_rate(units.kilobit_per_second(64.0))))
        simulator.run(10.0)
        assert simulator.nodes["leaf"].ledger.retained_entries == 0
        assert simulator.hub_ledger.retained_entries == 0


class TestEnergyAccountingConsistency:
    def test_battery_node_power_matches_batteryless_accounting(self):
        """Tick-based accounting sums to the same energy as the post-hoc
        whole-run accounting when the battery never limits the node."""
        with_battery = build(duration_budget_joules=10.0).run(60.0)
        without = BodyNetworkSimulator(wir_commercial(), rng=0)
        without.attach(NodeConfig(
            "leaf", PeriodicSource.from_rate(units.kilobit_per_second(8.0)),
            sensing_power_watts=units.microwatt(100.0)))
        without_result = without.run(60.0)
        assert with_battery.per_node_average_power_watts["leaf"] == \
            pytest.approx(without_result.per_node_average_power_watts["leaf"],
                          rel=1e-9)

    def test_interval_validation(self):
        with pytest.raises(SimulationError):
            BodyNetworkSimulator(wir_commercial(),
                                 energy_update_interval_seconds=0.0)


class TestEnergyTickStream:
    """Energy ticks are a kernel stream, never queued events."""

    def test_no_tick_waits_in_the_event_queue(self):
        simulator = build(duration_budget_joules=10.0)
        pending: list[tuple[float, int]] = []
        settled: list[float] = []

        def probe() -> None:
            pending.append((simulator.queue.now, len(simulator.queue)))
            settled.append(simulator.nodes["leaf"].energy_settled_seconds)

        simulator.queue.schedule_at(2.5, probe)
        simulator.queue.schedule_at(3.0, probe)
        simulator.run(5.0)
        # Only the probes were ever queued: the 1 s ticks ran as their
        # own stream, at the whole seconds, and the probe scheduled
        # before the run wins the 3.0 s tie with the tick.
        assert pending == [(2.5, 1), (3.0, 0)]
        assert settled == [2.0, 2.0]
        assert simulator.nodes["leaf"].energy_settled_seconds == 5.0
