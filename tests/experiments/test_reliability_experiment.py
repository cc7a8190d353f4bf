"""Tests for E16 — link margin vs delivery and retransmission energy."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments import reliability
from repro.netsim.fidelity import ANALYTIC
from repro.runner import resolve


class TestMarginSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return reliability.run()

    def test_delivery_monotone_in_margin(self, result):
        fractions = result.delivered_fractions()
        # Sampled, so allow a hair of slack between adjacent points.
        assert all(late >= early - 0.02
                   for early, late in zip(fractions, fractions[1:]))

    def test_zero_margin_link_closes_but_barely_delivers(self, result):
        lowest = result.points[0]
        assert lowest.margin_db == 0.0
        assert lowest.packet_error_rate > 0.9
        assert lowest.delivered_fraction < 0.3
        assert lowest.simulated.lost_packets > 0

    def test_comfortable_margin_delivers_everything(self, result):
        highest = result.points[-1]
        assert highest.delivered_fraction == 1.0
        assert highest.simulated.retransmissions == 0
        assert highest.simulated.retransmission_energy_joules == 0.0

    def test_sampled_delivery_tracks_closed_form(self, result):
        gaps = result.worst_gaps()
        assert "delivered_fraction_abs_error" in gaps
        assert not gaps.beyond(ANALYTIC), gaps

    def test_attempts_track_closed_form_in_stable_regime(self, result):
        for point in result.points:
            if point.packet_error_rate > 0.6:
                continue  # saturated points legitimately undershoot
            assert point.attempts_per_offered == pytest.approx(
                point.predicted_attempts, rel=0.15, abs=0.05)

    def test_retransmission_energy_decreases_with_margin(self, result):
        energies = [point.simulated.retransmission_energy_joules
                    for point in result.points]
        assert all(late <= early
                   for early, late in zip(energies, energies[1:]))
        assert energies[0] > 0.0

    def test_margin_for_delivery(self, result):
        threshold = result.margin_for_delivery(0.999)
        assert 1.0 <= threshold <= 4.0
        assert math.isinf(result.margin_for_delivery(1.1))

    def test_rows_contract(self, result):
        rows = result.rows()
        assert len(rows) == len(reliability.DEFAULT_MARGINS_DB)
        for row in rows:
            assert 0.0 <= row["per"] <= 1.0
            assert row["mac"] == "fifo"


class TestPolicies:
    def test_runs_under_every_mac_policy(self):
        for policy in ("fifo", "tdma", "polling"):
            result = reliability.run(margins_db=(2.0,), mac_policy=policy,
                                     simulated_seconds=3.0)
            assert result.mac_policy == policy
            assert result.points[0].delivered_fraction > 0.9

    def test_no_arq_retry_limit_zero(self):
        result = reliability.run(margins_db=(1.0,), retry_limit=0,
                                 simulated_seconds=5.0)
        point = result.points[0]
        assert point.simulated.retransmissions == 0
        # One shot per packet: delivery equals (1 - PER) closed form.
        assert point.predicted_delivery == pytest.approx(
            1.0 - point.packet_error_rate)
        assert point.delivered_fraction == pytest.approx(
            point.predicted_delivery, abs=0.1)

    def test_reproducible_for_fixed_seed(self):
        first = reliability.run(margins_db=(1.0, 2.0), simulated_seconds=3.0)
        second = reliability.run(margins_db=(1.0, 2.0), simulated_seconds=3.0)
        assert first.rows() == second.rows()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            reliability.run(node_count=0)
        with pytest.raises(ConfigurationError):
            reliability.run(simulated_seconds=0.0)
        with pytest.raises(ConfigurationError):
            reliability.run(margins_db=())


class TestRegistration:
    def test_registered_as_e16(self):
        spec = resolve("reliability")
        assert spec is resolve("E16")
        assert spec.eid == "E16"
        assert spec.sweep_defaults["mac_policy"] == (
            "fifo", "tdma", "polling")
