"""The lossy-link reliability layer: erasures, ARQ, energy, determinism.

Covers the netsim half of the reliability subsystem: the ARQ closed
forms, the per-node seeded erasure process, the medium's
erase-retransmit-lose state machine, the per-attempt energy accounting
and — the hard acceptance bound — that a reliability model with zero
error rates (and the PER = 0 / no-ARQ configuration in general) leaves
the golden-hex pinned lossless kernel bit-identical.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.errors import SimulationError
from repro.netsim import (
    ARQPolicy,
    BodyNetworkSimulator,
    LinkReliability,
    PeriodicSource,
    PoissonSource,
)
from repro.energy.battery import BatterySpec
from repro.netsim.config import NodeConfig
from repro.scenarios import get_scenario

from test_latency_pins import lossy_arq
from test_ledger_pins import mixed_lossy


def build_simulator(error_rate: float | None = None,
                    arq: ARQPolicy | None = ARQPolicy(retry_limit=3),
                    nodes: int = 3, seed: int = 7,
                    reliability_seed: int = 0) -> BodyNetworkSimulator:
    reliability = None
    if error_rate is not None:
        reliability = LinkReliability(seed=reliability_seed, arq=arq)
    simulator = BodyNetworkSimulator(wir_commercial(), rng=seed,
                                     reliability=reliability)
    for index in range(nodes):
        simulator.attach(NodeConfig(
            f"leaf{index}",
            PeriodicSource.from_rate(units.kilobit_per_second(64.0)),
            sensing_power_watts=units.microwatt(30.0),
        ))
        if reliability is not None:
            reliability.set_error_rate(f"leaf{index}", error_rate)
    return simulator


class TestARQPolicy:
    def test_max_attempts(self):
        assert ARQPolicy(retry_limit=3).max_attempts == 4
        assert math.isinf(ARQPolicy(retry_limit=None).max_attempts)

    def test_may_retry_respects_limit(self):
        policy = ARQPolicy(retry_limit=2)
        assert policy.may_retry(1) and policy.may_retry(2)
        assert not policy.may_retry(3)

    def test_unbounded_always_retries(self):
        assert ARQPolicy(retry_limit=None).may_retry(10_000)

    def test_delivery_probability_closed_form(self):
        policy = ARQPolicy(retry_limit=3)
        assert policy.delivery_probability(0.0) == 1.0
        assert policy.delivery_probability(0.5) == pytest.approx(1 - 0.5 ** 4)
        assert policy.delivery_probability(1.0) == 0.0
        assert ARQPolicy(retry_limit=None).delivery_probability(0.999) == 1.0

    def test_expected_attempts_truncated_geometric(self):
        policy = ARQPolicy(retry_limit=3)
        per = 0.3
        assert policy.expected_attempts(per) == pytest.approx(
            (1 - per ** 4) / (1 - per))
        assert policy.expected_attempts(0.0) == 1.0
        assert policy.expected_attempts(1.0) == 4.0
        assert ARQPolicy(retry_limit=None).expected_attempts(0.5) \
            == pytest.approx(2.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            ARQPolicy(retry_limit=-1)
        with pytest.raises(SimulationError):
            ARQPolicy(ack_bits=-1.0)
        with pytest.raises(SimulationError):
            ARQPolicy(ack_turnaround_seconds=-1e-6)
        with pytest.raises(SimulationError):
            ARQPolicy().delivery_probability(1.5)


class TestLinkReliability:
    def test_default_and_explicit_rates(self):
        model = LinkReliability(default_error_rate=0.1)
        model.set_error_rate("a", 0.5)
        assert model.error_rate("a") == 0.5
        assert model.error_rate("unknown") == 0.1

    def test_rates_validated(self):
        with pytest.raises(SimulationError):
            LinkReliability(default_error_rate=-0.1)
        with pytest.raises(SimulationError):
            LinkReliability().set_error_rate("a", 1.5)

    def test_zero_rate_draws_nothing(self):
        model = LinkReliability(seed=3)
        assert not model.draw_erasure("quiet")
        # No generator was even created for the zero-rate node.
        assert "quiet" not in model._rngs

    def test_draws_deterministic_and_order_independent(self):
        first = LinkReliability(seed=11)
        second = LinkReliability(seed=11)
        for node in ("a", "b"):
            first.set_error_rate(node, 0.4)
            second.set_error_rate(node, 0.4)
        # Interleave differently: per-node streams must not care.
        draws_first = [first.draw_erasure("a") for _ in range(50)] \
            + [first.draw_erasure("b") for _ in range(50)]
        draws_second = []
        for _ in range(50):
            draws_second.append(second.draw_erasure("a"))
            second.draw_erasure("b")
        for _ in range(50):
            pass
        assert draws_first[:50] == draws_second

    def test_certain_erasure(self):
        model = LinkReliability()
        model.set_error_rate("a", 1.0)
        assert model.draw_erasure("a")


class TestLossyMedium:
    def test_erasures_reduce_delivered_fraction(self):
        lossy = build_simulator(error_rate=0.3).run(5.0)
        clean = build_simulator(error_rate=0.0).run(5.0)
        assert lossy.reliability_enabled
        assert lossy.erased_attempts > 0
        assert lossy.retransmissions > 0
        assert lossy.delivered_packets < clean.delivered_packets \
            or lossy.lost_packets > 0
        assert lossy.attempts_per_delivered > 1.05

    def test_without_arq_every_erasure_is_a_loss(self):
        result = build_simulator(error_rate=0.3, arq=None).run(5.0)
        assert result.retransmissions == 0
        assert result.lost_packets == result.erased_attempts > 0
        assert result.delivered_fraction < 1.0
        assert result.delivered_packets + result.lost_packets \
            == result.offered_packets

    def test_retry_limit_exhaustion_loses_packets(self):
        result = build_simulator(error_rate=0.9,
                                 arq=ARQPolicy(retry_limit=1)).run(2.0)
        assert result.lost_packets > 0
        # Each offered packet is attempted at most retry_limit + 1 times.
        assert result.erased_attempts <= 2 * result.offered_packets

    def test_certain_erasure_delivers_nothing(self):
        result = build_simulator(error_rate=1.0,
                                 arq=ARQPolicy(retry_limit=2)).run(1.0)
        assert result.delivered_packets == 0
        assert result.lost_packets == result.offered_packets > 0
        assert result.delivered_fraction == 0.0
        # Zero deliveries at non-zero cost is not a perfect link.
        assert math.isinf(result.attempts_per_delivered)

    def test_goodput_excludes_lost_packets(self):
        """Regression: bits of packets the link gave up on are not
        goodput, even though they were accepted at submit time."""
        simulator = build_simulator(error_rate=0.3, arq=None, nodes=1)
        result = simulator.run(20.0)
        assert result.lost_packets > 0
        node = simulator.nodes["leaf0"]
        goodput = result.per_node_goodput_bps["leaf0"]
        assert goodput == pytest.approx(
            (node.bits_sent - node.lost_bits) / 20.0)
        # Delivered bits bound the goodput from below; the lost share
        # must be gone from it (at most one in-flight frame of slack).
        assert goodput * 20.0 <= result.delivered_bits + 8192.0
        assert node.lost_bits == pytest.approx(
            result.lost_packets * 8192.0)

    def test_serialised_bits_match_the_medium(self):
        """Regression: a lost packet's only/final frame was counted in
        both ``bits_sent`` and ``retx_bits``, overstating tx time in the
        sleep split.  Total serialised frames = delivered + erased."""
        for arq in (None, ARQPolicy(retry_limit=2)):
            simulator = build_simulator(error_rate=0.4, arq=arq, nodes=2)
            result = simulator.run(10.0)
            serialised = sum(node.bits_sent + node.retx_bits
                             for node in simulator.nodes.values())
            expected_frames = result.delivered_packets \
                + result.erased_attempts
            # Periodic 8192-bit packets: frame arithmetic is exact up to
            # whatever is still queued or in flight at the horizon.
            in_flight = serialised / 8192.0 - expected_frames
            assert 0.0 <= in_flight <= result.offered_packets \
                - result.delivered_packets - result.lost_packets + 0.5

    def test_latency_includes_retransmission_delay(self):
        lossy = build_simulator(error_rate=0.4, nodes=1).run(5.0)
        clean = build_simulator(error_rate=0.0, nodes=1).run(5.0)
        assert lossy.mean_latency_seconds > clean.mean_latency_seconds

    def test_lossy_runs_reproducible(self):
        first = build_simulator(error_rate=0.3).run(5.0)
        second = build_simulator(error_rate=0.3).run(5.0)
        assert first.delivered_packets == second.delivered_packets
        assert first.erased_attempts == second.erased_attempts
        assert first.mean_latency_seconds == second.mean_latency_seconds
        assert first.retransmission_energy_joules \
            == second.retransmission_energy_joules

    def test_erasure_seed_changes_the_draw_not_the_traffic(self):
        first = build_simulator(error_rate=0.3, reliability_seed=0).run(5.0)
        second = build_simulator(error_rate=0.3, reliability_seed=1).run(5.0)
        assert first.offered_packets == second.offered_packets
        assert first.erased_attempts != second.erased_attempts

    def test_mid_run_error_rate_update(self):
        simulator = build_simulator(error_rate=0.0, nodes=1)
        simulator.queue.schedule_at(
            2.5, lambda: simulator.set_node_error_rate("leaf0", 1.0))
        result = simulator.run(5.0)
        # Clean first half delivers, hopeless second half loses.
        assert result.delivered_packets > 0
        assert result.lost_packets > 0

    def test_set_error_rate_requires_model_and_node(self):
        with pytest.raises(SimulationError):
            build_simulator(error_rate=None).set_node_error_rate("leaf0", 0.1)
        with pytest.raises(SimulationError):
            build_simulator(error_rate=0.1).set_node_error_rate("ghost", 0.1)


class TestLossyEnergyAccounting:
    def test_retransmission_energy_matches_erased_attempts(self):
        simulator = build_simulator(error_rate=0.3)
        result = simulator.run(5.0)
        technology = wir_commercial()
        # Fixed 8192-bit frames: every corrupted attempt posted exactly
        # one frame of wasted transmit energy.
        expected = result.erased_attempts * 8192.0 \
            * technology.tx_energy_per_bit()
        assert result.retransmission_energy_joules == pytest.approx(expected)
        assert result.retransmission_energy_joules > 0.0

    def test_ack_energy_per_delivered_packet(self):
        arq = ARQPolicy(retry_limit=3, ack_bits=64.0)
        simulator = build_simulator(error_rate=0.2, arq=arq)
        result = simulator.run(5.0)
        technology = wir_commercial()
        assert result.ack_energy_joules == pytest.approx(
            result.delivered_packets * 64.0 * technology.rx_energy_per_bit())
        # The hub transmitted each of those acks.
        assert simulator.hub_ledger.total_energy("ack_tx") == pytest.approx(
            result.delivered_packets * 64.0 * technology.tx_energy_per_bit())

    def test_hub_listens_to_corrupted_frames(self):
        lossy = build_simulator(error_rate=0.3, arq=None).run(5.0)
        technology = wir_commercial()
        # Hub rx energy covers delivered AND erased frames.
        expected_bits = lossy.delivered_bits \
            + lossy.erased_attempts * 8192.0
        assert lossy.hub_rx_energy_joules == pytest.approx(
            expected_bits * technology.rx_energy_per_bit())

    @pytest.mark.parametrize(("build", "error_rate", "seconds"), [
        (lossy_arq, None, 25.0),
        # The mixed body's first frame is delivered at 5% and erased at
        # 25% erasures.
        (mixed_lossy, 0.05, 40.0), (mixed_lossy, 0.25, 40.0)])
    def test_hub_components_in_one_order(self, build, error_rate, seconds):
        """The hub's books list its components in one order whether or
        not the body mixes battery and batteryless leaves, and whether
        or not its first frame is erased."""
        simulator = build()
        if error_rate is not None:
            for name in simulator.nodes:
                simulator.reliability.set_error_rate(name, error_rate)
        simulator.run(seconds)
        assert simulator.hub_ledger.components() == [
            "wir_rx", "ack_tx", "wir_sleep"]

    def test_wasted_attempts_can_brown_a_node_out(self):
        """Retransmission energy flows through NodeEnergyState: a cell
        sized for the clean traffic dies early under 50% erasures."""
        technology = wir_commercial()
        rate = units.kilobit_per_second(64.0)
        # Energy for ~2.5 s of clean transmit + static load.
        clean_joules = 2.5 * (rate * technology.tx_energy_per_bit()
                              + units.microwatt(30.0)
                              + technology.sleep_power())
        capacity_mah = clean_joules / 3.0 / 3.6  # 3 V nominal
        battery = BatterySpec(name="tiny", capacity_mah=capacity_mah,
                              voltage=3.0)
        reliability = LinkReliability(seed=0, arq=ARQPolicy(retry_limit=None))
        simulator = BodyNetworkSimulator(
            technology, rng=7, reliability=reliability,
            energy_update_interval_seconds=0.01)
        simulator.attach(NodeConfig(
            "leaf0", PeriodicSource.from_rate(rate),
            sensing_power_watts=units.microwatt(30.0), battery=battery))
        reliability.set_error_rate("leaf0", 0.5)
        lossy = simulator.run(5.0)

        clean_simulator = BodyNetworkSimulator(
            technology, rng=7, energy_update_interval_seconds=0.01)
        clean_simulator.attach(NodeConfig(
            "leaf0", PeriodicSource.from_rate(rate),
            sensing_power_watts=units.microwatt(30.0), battery=battery))
        clean = clean_simulator.run(5.0)

        assert lossy.first_death_seconds < clean.first_death_seconds
        # Death is terminal: no retransmissions queue after the brownout.
        assert lossy.delivered_packets < clean.delivered_packets


# ---------------------------------------------------------------------------
# Satellite: property-based guarantees (Hypothesis).

#: Golden values of the pre-reliability kernel (mixed periodic/Poisson
#: 6-node network, seed 7, 2 s) — same constants pinned in
#: test_fifo_regression.py.
PRE_RELIABILITY_GOLDEN = {
    "mean_latency_seconds": "0x1.b90bca7c1802ap-9",
    "p99_latency_seconds": "0x1.5feda66128400p-7",
    "delivered_bits": "0x1.8a5205383b6bdp+19",
    "hub_rx_energy_joules": "0x1.52b7f8a39f153p-14",
    "leaf0_power": "0x1.3006194b2b1bep-15",
    "events_power": "0x1.475b58b49ea94p-17",
}


def golden_network(reliability: LinkReliability | None) -> BodyNetworkSimulator:
    """The exact seed-7 network the FIFO golden-hex regression pins."""
    simulator = BodyNetworkSimulator(wir_commercial(), rng=7,
                                     reliability=reliability)
    for index in range(5):
        simulator.attach(NodeConfig(
            f"leaf{index}",
            PeriodicSource.from_rate(units.kilobit_per_second(64.0)),
            sensing_power_watts=units.microwatt(30.0),
        ))
    simulator.attach(NodeConfig("events", PoissonSource(
        mean_interarrival_seconds=0.02, mean_bits_per_packet=2048.0)))
    return simulator


class TestLosslessBitIdentity:
    @pytest.mark.parametrize("reliability", [
        None,
        LinkReliability(seed=0),
        LinkReliability(seed=123, default_error_rate=0.0),
    ], ids=["no-model", "per0", "per0-other-seed"])
    def test_per_zero_matches_pre_reliability_golden_hex(self, reliability):
        """PER = 0 / no ARQ reproduces the pre-reliability kernel exactly."""
        result = golden_network(reliability).run(2.0)
        assert result.delivered_packets == 172
        assert result.mean_latency_seconds.hex() == \
            PRE_RELIABILITY_GOLDEN["mean_latency_seconds"]
        assert result.p99_latency_seconds.hex() == \
            PRE_RELIABILITY_GOLDEN["p99_latency_seconds"]
        assert float(result.delivered_bits).hex() == \
            PRE_RELIABILITY_GOLDEN["delivered_bits"]
        assert float(result.hub_rx_energy_joules).hex() == \
            PRE_RELIABILITY_GOLDEN["hub_rx_energy_joules"]
        assert float(result.per_node_average_power_watts["leaf0"]).hex() == \
            PRE_RELIABILITY_GOLDEN["leaf0_power"]
        assert float(result.per_node_average_power_watts["events"]).hex() == \
            PRE_RELIABILITY_GOLDEN["events_power"]

    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_per_zero_identity_holds_for_any_erasure_seed(self, seed):
        """The erasure seed is invisible while every rate is zero."""
        baseline = golden_network(None).run(1.0)
        with_model = golden_network(LinkReliability(seed=seed)).run(1.0)
        assert with_model.mean_latency_seconds.hex() == \
            baseline.mean_latency_seconds.hex()
        assert with_model.delivered_packets == baseline.delivered_packets
        assert with_model.erased_attempts == 0


class TestEventualDelivery:
    @given(error_rate=st.floats(min_value=0.0, max_value=0.9),
           erasure_seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_unbounded_arq_eventually_delivers_everything(
            self, error_rate, erasure_seed):
        """Retry limit ∞ and PER < 1: every offered packet is delivered.

        The horizon leaves generous slack over the offered load so that
        even an unlucky erasure streak drains the backlog; nothing may
        be lost, and anything still undelivered at the horizon can only
        be the final in-flight packet.
        """
        reliability = LinkReliability(seed=erasure_seed,
                                      arq=ARQPolicy(retry_limit=None))
        simulator = BodyNetworkSimulator(wir_commercial(), rng=3,
                                         reliability=reliability)
        simulator.attach(NodeConfig(
            "leaf0",
            PeriodicSource.from_rate(units.kilobit_per_second(16.0)),
            sensing_power_watts=units.microwatt(30.0),
        ))
        reliability.set_error_rate("leaf0", error_rate)
        result = simulator.run(10.0)
        assert result.lost_packets == 0
        assert result.offered_packets > 0
        assert result.delivered_packets >= result.offered_packets - 1


class TestCommuteWalkHour:
    def test_bounded_retransmission_and_flat_memory(self):
        """commute_walk stretched to one simulated hour: the posture
        cycle erases frames and ARQ recovers them, the attempt factor
        stays near the closed form, and no latency window grows with the
        run."""
        spec = get_scenario("commute_walk")
        simulator = spec.build(seed=0, duration_seconds=units.hours(1.0),
                               latency_exact_capacity=4096)
        result = simulator.run(units.hours(1.0))
        assert result.erased_attempts > 100
        assert result.retransmissions > 100
        assert result.delivered_fraction > 0.99
        # The sitting segments erase ~18% of frames, so the whole-run
        # attempt factor must sit well under the retry limit's worst
        # case, near the time-averaged closed form.
        profile = spec.reliability_profile()
        expected_attempts = max(attempts for _, attempts in profile.values())
        assert 1.0 < result.attempts_per_delivered < expected_attempts + 0.1
        accumulator = simulator.bus.stats.latency
        assert not accumulator.is_exact
        assert accumulator.retained_samples == 0
        assert accumulator.count == result.delivered_packets
