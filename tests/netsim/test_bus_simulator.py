"""Tests for repro.netsim.bus and repro.netsim.simulator."""

from __future__ import annotations

import math

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.errors import SimulationError
from repro.netsim.bus import BusStats, Medium
from repro.netsim.simulator import BodyNetworkSimulator
from repro.netsim.traffic import PeriodicSource, PoissonSource
from repro.netsim.config import NodeConfig
from repro.scenarios import get_scenario


def make_simulator(overhead: float = 0.0,
                   arbitration: str | None = None) -> BodyNetworkSimulator:
    return BodyNetworkSimulator(wir_commercial(), rng=0,
                                per_packet_overhead_seconds=overhead,
                                arbitration=arbitration)


def service_seconds(simulator: BodyNetworkSimulator, bits: float) -> float:
    bus = simulator.bus
    return bits / bus.link_rate_bps + bus.per_packet_overhead_seconds


class TestSharedBus:
    """The shared medium, observed through the simulator's kernel."""

    def assert_lone_leaf_latency(self, overhead: float) -> None:
        simulator = make_simulator(overhead=overhead)
        bits = 1e5
        simulator.attach(NodeConfig("a", PeriodicSource(1.0, bits)))
        result = simulator.run(5.5)
        expected = bits / simulator.bus.link_rate_bps + overhead
        assert result.delivered_packets == 5
        latency = simulator.bus.stats.latency
        assert latency.min_seconds == pytest.approx(expected)
        assert latency.max_seconds == pytest.approx(expected)

    def test_single_packet_latency_is_serialization_time(self):
        self.assert_lone_leaf_latency(0.0)

    def test_overhead_charged_per_packet(self):
        self.assert_lone_leaf_latency(0.01)

    def test_fifo_ordering(self):
        """Equal-period leaves generate together; attach order wins."""
        bits = 1e5
        names = ("c", "a", "b")  # attach order differs from name order
        for served, expected in ((1.5, [1, 0, 0]), (2.5, [1, 1, 0])):
            simulator = make_simulator()
            for name in names:
                simulator.attach(NodeConfig(name, PeriodicSource(1.0, bits)))
            # Stop mid-way through a transmission of the first round.
            simulator.run(1.0 + served * service_seconds(simulator, bits))
            assert [simulator.nodes[name].packets_delivered
                    for name in names] == expected

    def test_queueing_delay_accumulates(self):
        simulator = make_simulator()
        bits = 1e5
        for name in ("a", "b", "c"):
            simulator.attach(NodeConfig(name, PeriodicSource(1.0, bits)))
        result = simulator.run(4.5)
        service = service_seconds(simulator, bits)
        latency = simulator.bus.stats.latency
        assert result.delivered_packets == 12
        assert latency.min_seconds == pytest.approx(service)
        assert latency.max_seconds == pytest.approx(3 * service)
        assert result.mean_latency_seconds == pytest.approx(2 * service)

    def test_stats_utilization_and_throughput(self):
        simulator = make_simulator()
        bits = 1e6
        simulator.attach(NodeConfig("a", PeriodicSource(1.0, bits)))
        duration = 2.5
        result = simulator.run(duration)
        service = service_seconds(simulator, bits)
        assert result.delivered_bits == pytest.approx(2 * bits)
        assert result.per_node_goodput_bps["a"] == \
            pytest.approx(2 * bits / duration)
        assert result.bus_utilization == pytest.approx(2 * service / duration)

    @pytest.mark.parametrize("arbitration", ["fifo", "tdma", "polling"])
    def test_drops_when_queue_full(self, arbitration):
        """The kernel's admission bound drops, and every packet is
        accounted for: delivered, dropped, queued or on the medium."""
        simulator = make_simulator(overhead=100e-6, arbitration=arbitration)
        rate = simulator.bus.link_rate_bps
        for index in range(4):
            simulator.attach(NodeConfig(
                f"n{index}", PeriodicSource.from_rate(0.6 * rate)))
        simulator.bus.max_queue_packets = 4
        result = simulator.run(1.0)
        bus = simulator.bus
        assert result.dropped_packets > 0
        in_flight = 1 if bus._chain is not None else 0
        assert result.offered_packets == (result.delivered_packets
                                          + result.dropped_packets
                                          + bus.policy.pending_count()
                                          + in_flight)

    def test_latency_percentiles_require_deliveries(self):
        with pytest.raises(SimulationError):
            BusStats().latency.percentile(99.0)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SimulationError):
            Medium(link_rate_bps=0.0)


class TestNonFiniteInputs:
    """NaN slips through ``x <= 0`` guards; every entry point rejects it."""

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_medium_link_rate(self, rate):
        with pytest.raises(SimulationError):
            Medium(link_rate_bps=rate)

    @pytest.mark.parametrize("overhead", [-1e-6, math.nan, math.inf])
    def test_medium_overhead(self, overhead):
        with pytest.raises(SimulationError):
            Medium(link_rate_bps=1e6, per_packet_overhead_seconds=overhead)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_register_node_link_rate(self, rate):
        medium = Medium(link_rate_bps=1e6)
        with pytest.raises(SimulationError):
            medium.register_node("x", 1e3, link_rate_bps=rate)

    @pytest.mark.parametrize("overhead", [-1e-6, math.nan, math.inf])
    def test_simulator_overhead(self, overhead):
        with pytest.raises(SimulationError):
            BodyNetworkSimulator(wir_commercial(),
                                 per_packet_overhead_seconds=overhead)

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_simulator_energy_update_interval(self, interval):
        with pytest.raises(SimulationError):
            BodyNetworkSimulator(wir_commercial(),
                                 energy_update_interval_seconds=interval)


class TestBodyNetworkSimulator:
    def make_simulator(self) -> BodyNetworkSimulator:
        return BodyNetworkSimulator(wir_commercial(), rng=0)

    def test_runs_and_delivers_packets(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("ecg", PeriodicSource.from_rate(3_000.0),
                           sensing_power_watts=units.microwatt(30.0)))
        result = simulator.run(5.0)
        assert result.delivered_packets > 0
        assert result.dropped_packets == 0

    def test_goodput_tracks_offered_rate(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("audio", PeriodicSource.from_rate(256_000.0)))
        result = simulator.run(5.0)
        assert result.per_node_goodput_bps["audio"] == pytest.approx(256_000.0, rel=0.15)

    def test_leaf_power_dominated_by_sensing_for_low_rate_nodes(self):
        """A 3 kb/s ECG leaf on Wi-R: communication adds < 2 uW on average."""
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("ecg", PeriodicSource.from_rate(3_000.0),
                           sensing_power_watts=units.microwatt(30.0)))
        result = simulator.run(10.0)
        power = result.per_node_average_power_watts["ecg"]
        assert units.microwatt(29.0) <= power <= units.microwatt(34.0)

    def test_hub_receive_energy_positive(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("imu", PeriodicSource.from_rate(9_600.0)))
        result = simulator.run(2.0)
        assert result.hub_rx_energy_joules > 0.0

    def test_latency_grows_with_contention(self):
        lightly_loaded = self.make_simulator()
        lightly_loaded.attach(NodeConfig("n0", PeriodicSource.from_rate(100_000.0)))
        light = lightly_loaded.run(2.0)

        heavily_loaded = self.make_simulator()
        for index in range(30):
            heavily_loaded.attach(NodeConfig(f"n{index}", PeriodicSource.from_rate(100_000.0)))
        heavy = heavily_loaded.run(2.0)
        assert heavy.mean_latency_seconds > light.mean_latency_seconds
        assert heavy.bus_utilization > light.bus_utilization

    def test_poisson_sources_supported(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("events", PoissonSource(
            mean_interarrival_seconds=0.05, mean_bits_per_packet=4096.0,
        )))
        result = simulator.run(5.0)
        assert result.delivered_packets > 10

    def test_duplicate_node_rejected(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("x", PeriodicSource.from_rate(1000.0)))
        with pytest.raises(SimulationError):
            simulator.attach(NodeConfig("x", PeriodicSource.from_rate(1000.0)))

    def test_run_requires_nodes(self):
        with pytest.raises(SimulationError):
            self.make_simulator().run(1.0)

    def test_second_run_rejected(self):
        # Static and hub power are posted for the whole duration when a
        # run returns; a second run would post them again on top.
        simulator = get_scenario("sleep_night").build(seed=0)
        simulator.run(60.0)
        with pytest.raises(SimulationError, match="already run"):
            simulator.run(60.0)
        with pytest.raises(SimulationError, match="already run"):
            simulator.run(30.0)

    def test_describe(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("a", PeriodicSource.from_rate(1000.0)))
        description = simulator.describe()
        assert description["node_count"] == 1
        assert description["technology"] == wir_commercial().name

    def test_deterministic_given_seed(self):
        def run_once() -> float:
            simulator = BodyNetworkSimulator(wir_commercial(), rng=7)
            simulator.attach(NodeConfig("events", PoissonSource(
                mean_interarrival_seconds=0.02, mean_bits_per_packet=2048.0,
            )))
            return simulator.run(2.0).delivered_bits

        assert run_once() == pytest.approx(run_once())
