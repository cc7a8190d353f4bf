"""Tests for repro.netsim.arbitration and the Medium/policy split."""

from __future__ import annotations

import pytest

from repro.comm.ble import ble_1m_phy
from repro.comm.eqs_hbc import wir_commercial
from repro.errors import SimulationError
from repro.netsim.arbitration import (
    FIFOArbitration,
    HubPollingArbitration,
    TDMAArbitration,
    make_policy,
)
from repro.netsim.bus import Medium
from repro.netsim.packet import Packet
from repro.netsim.simulator import BodyNetworkSimulator
from repro.netsim.traffic import PeriodicSource
from repro.netsim.config import NodeConfig


def make_packet(source: str, bits: float = 1e4,
                created_at: float = 0.0) -> Packet:
    return Packet(source=source, destination="hub", bits=bits,
                  created_at=created_at)


class TestPolicyFactory:
    def test_known_policies(self):
        assert isinstance(make_policy("fifo"), FIFOArbitration)
        assert isinstance(make_policy("TDMA"), TDMAArbitration)
        assert isinstance(make_policy("polling"), HubPollingArbitration)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            make_policy("csma")

    def test_medium_attaches_link_rate(self):
        medium = Medium(link_rate_bps=1e6, policy="tdma")
        assert medium.policy.link_rate_bps == 1e6

    def test_explicit_policy_rate_preserved(self):
        policy = TDMAArbitration(link_rate_bps=2e6)
        Medium(link_rate_bps=1e6, policy=policy)
        assert policy.link_rate_bps == 2e6


class TestFIFOArbitration:
    def test_grants_in_submission_order_with_zero_delay(self):
        policy = FIFOArbitration()
        first, second = make_packet("a"), make_packet("b")
        policy.enqueue(first)
        policy.enqueue(second)
        assert policy.pending_count() == 2
        assert policy.next_grant(0.0) == (first, 0.0)
        assert policy.next_grant(0.0) == (second, 0.0)
        assert policy.next_grant(0.0) is None


class TestTDMAArbitration:
    def test_grant_waits_for_owners_slot(self):
        policy = TDMAArbitration(link_rate_bps=1e6,
                                 superframe_seconds=0.010,
                                 guard_seconds=0.0)
        policy.register_node("a", 1e5)
        policy.register_node("b", 1e5)
        policy.enqueue(make_packet("b"))
        packet, delay = policy.next_grant(0.0)
        # Node b's slot starts after node a's 1 ms slot.
        assert packet.source == "b"
        assert delay == pytest.approx(0.001)

    def test_in_slot_grant_is_immediate(self):
        policy = TDMAArbitration(link_rate_bps=1e6,
                                 superframe_seconds=0.010,
                                 guard_seconds=0.0)
        policy.register_node("a", 1e5)
        policy.enqueue(make_packet("a"))
        _, delay = policy.next_grant(0.0)
        assert delay == 0.0

    def test_oversubscribed_schedule_degrades_to_shares(self):
        policy = TDMAArbitration(link_rate_bps=1e5)
        policy.register_node("a", 1e6)  # 10x the link: infeasible
        policy.register_node("b", 1e6)
        policy.enqueue(make_packet("a"))
        packet, delay = policy.next_grant(0.0)
        assert packet.source == "a"
        assert delay < policy.superframe_seconds

    def test_unregistered_source_accepted(self):
        policy = TDMAArbitration(link_rate_bps=1e6)
        policy.enqueue(make_packet("ghost"))
        packet, _ = policy.next_grant(0.0)
        assert packet.source == "ghost"

    def test_simulated_latency_includes_slot_wait(self):
        fifo = BodyNetworkSimulator(wir_commercial(), rng=0)
        tdma = BodyNetworkSimulator(wir_commercial(), rng=0,
                                    arbitration="tdma")
        for simulator in (fifo, tdma):
            for index in range(8):
                simulator.attach(NodeConfig(f"leaf{index}",
                                   PeriodicSource.from_rate(64e3)))
        fifo_result = fifo.run(2.0)
        tdma_result = tdma.run(2.0)
        assert tdma_result.delivered_packets == fifo_result.delivered_packets
        assert tdma_result.mean_latency_seconds > \
            fifo_result.mean_latency_seconds
        assert tdma_result.arbitration == "tdma"


class TestHubPollingArbitration:
    def test_poll_cost_charged_per_grant(self):
        policy = HubPollingArbitration(link_rate_bps=1e6,
                                       poll_overhead_bits=100.0,
                                       turnaround_seconds=1e-4)
        policy.register_node("a", 0.0)
        policy.enqueue(make_packet("a"))
        _, delay = policy.next_grant(0.0)
        assert delay == pytest.approx(100.0 / 1e6 + 1e-4)

    def test_empty_polls_charged_while_walking_the_ring(self):
        policy = HubPollingArbitration(link_rate_bps=1e6,
                                       poll_overhead_bits=0.0,
                                       turnaround_seconds=1e-3)
        for name in ("a", "b", "c"):
            policy.register_node(name, 0.0)
        policy.enqueue(make_packet("c"))
        _, delay = policy.next_grant(0.0)
        # Cursor starts at a: polls a (empty), b (empty), then c.
        assert delay == pytest.approx(3e-3)

    def test_round_robin_cursor_advances(self):
        policy = HubPollingArbitration(link_rate_bps=1e6,
                                       turnaround_seconds=1e-3)
        policy.register_node("a", 0.0)
        policy.register_node("b", 0.0)
        policy.enqueue(make_packet("a"))
        policy.enqueue(make_packet("a"))
        policy.enqueue(make_packet("b"))
        first, _ = policy.next_grant(0.0)
        second, _ = policy.next_grant(0.0)
        third, _ = policy.next_grant(0.0)
        assert [p.source for p in (first, second, third)] == ["a", "b", "a"]

    def test_simulated_polling_slower_than_fifo(self):
        fifo = BodyNetworkSimulator(wir_commercial(), rng=0)
        polling = BodyNetworkSimulator(wir_commercial(), rng=0,
                                       arbitration="polling")
        for simulator in (fifo, polling):
            for index in range(8):
                simulator.attach(NodeConfig(f"leaf{index}",
                                   PeriodicSource.from_rate(64e3)))
        fifo_result = fifo.run(2.0)
        polling_result = polling.run(2.0)
        assert polling_result.delivered_packets == \
            fifo_result.delivered_packets
        assert polling_result.mean_latency_seconds > \
            fifo_result.mean_latency_seconds


class TestMixedTechnologies:
    def test_per_node_rate_slows_serialisation(self):
        medium = Medium(link_rate_bps=4e6)
        medium.register_node("slow", 64e3, link_rate_bps=1e6)
        fast = make_packet("fast", bits=1e6)
        slow = make_packet("slow", bits=1e6)
        assert medium.service_time_seconds(slow) == \
            pytest.approx(4 * medium.service_time_seconds(fast), rel=0.01)

    def test_mixed_simulation_accounts_energy_per_technology(self):
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0)
        simulator.attach(NodeConfig("wir", PeriodicSource.from_rate(64e3)))
        simulator.attach(NodeConfig("ble", PeriodicSource.from_rate(64e3),
                           technology=ble_1m_phy()))
        result = simulator.run(2.0)
        assert result.per_node_goodput_bps["wir"] == \
            pytest.approx(result.per_node_goodput_bps["ble"])
        # BLE burns orders of magnitude more energy per bit than Wi-R.
        assert result.per_node_average_power_watts["ble"] > \
            10 * result.per_node_average_power_watts["wir"]
        assert "BLE 1M PHY" in simulator.describe()["node_technologies"]

    def test_invalid_per_node_rate_rejected(self):
        medium = Medium(link_rate_bps=1e6)
        with pytest.raises(SimulationError):
            medium.register_node("x", 1e3, link_rate_bps=0.0)


class TestDeliveredFraction:
    def test_backlog_counts_against_delivered_fraction(self):
        """A saturated medium reads < 1.0 even before its buffer drops."""
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0)
        rate = wir_commercial().data_rate_bps()
        for index in range(5):
            simulator.attach(NodeConfig(f"leaf{index}",
                               PeriodicSource.from_rate(0.9 * rate)))
        result = simulator.run(2.0)
        assert result.dropped_packets == 0 or result.delivered_fraction < 1.0
        assert result.offered_packets > result.delivered_packets
        assert result.delivered_fraction < 0.5

    def test_unloaded_network_delivers_everything_but_in_flight(self):
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0)
        simulator.attach(NodeConfig("ecg", PeriodicSource.from_rate(3e3)))
        result = simulator.run(10.0)
        assert result.offered_packets >= result.delivered_packets
        assert result.delivered_fraction > 0.9


class TestHubIdleAccounting:
    def test_hub_ledger_includes_receiver_sleep(self):
        simulator = BodyNetworkSimulator(wir_commercial(), rng=0)
        simulator.attach(NodeConfig("ecg", PeriodicSource.from_rate(3e3)))
        result = simulator.run(10.0)
        breakdown = simulator.hub_ledger.breakdown()
        assert breakdown["wir_rx"] > 0.0
        assert breakdown["wir_sleep"] > 0.0
        assert result.hub_energy_joules == pytest.approx(
            breakdown["wir_rx"] + breakdown["wir_sleep"])
        # The mostly idle hub is dominated by sleep power here.
        assert result.hub_energy_joules > result.hub_rx_energy_joules
        assert result.hub_average_power_watts == pytest.approx(
            result.hub_energy_joules / 10.0)
