"""E18 crowd experiment: occupancy degradation, envelope, recovery."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import crowd
from repro.runner.registry import resolve


@pytest.fixture(scope="module")
def static_sweep() -> crowd.CrowdResult:
    return crowd.run(bodies_per_room=(1, 8))


@pytest.fixture(scope="module")
def backoff_sweep() -> crowd.CrowdResult:
    return crowd.run(controller="per_backoff", bodies_per_room=(1, 8))


class TestRegistration:
    def test_registered_as_e18(self):
        spec = resolve("crowd")
        assert spec.eid == "E18"
        assert spec.module == "crowd"

    def test_sweep_defaults_cover_mac_and_controller(self):
        spec = resolve("crowd")
        assert set(spec.sweep_defaults) == {"mac_policy", "controller"}


class TestValidation:
    def test_rejects_unknown_mac(self):
        with pytest.raises(ConfigurationError, match="MAC"):
            crowd.run(mac_policy="aloha")

    def test_rejects_unknown_controller(self):
        with pytest.raises(ConfigurationError, match="controller"):
            crowd.run(controller="pid")

    def test_rejects_empty_sweep(self):
        with pytest.raises(ConfigurationError):
            crowd.run(bodies_per_room=())


class TestOccupancyDegradation:
    def test_delivered_fraction_degrades(self, static_sweep):
        assert static_sweep.delivered_degradation() > 0.02

    def test_projected_lifetime_degrades(self, static_sweep):
        assert static_sweep.lifetime_degradation_hours() > 0.0

    def test_retry_energy_grows_with_occupancy(self, static_sweep):
        first, last = static_sweep.points[0], static_sweep.points[-1]
        assert last.retransmission_energy_joules \
            > first.retransmission_energy_joules

    def test_rows_are_report_shaped(self, static_sweep):
        rows = static_sweep.rows()
        assert len(rows) == 2
        assert rows[0]["bodies"] == 1
        assert rows[1]["bodies"] == 8
        assert set(rows[0]) == set(rows[1])


class TestClosedForm:
    def test_static_sweep_within_gallery_envelope(self, static_sweep):
        assert static_sweep.within_envelope(), static_sweep.worst_gaps()

    def test_solo_room_matches_standalone_closed_form(self, static_sweep):
        solo = static_sweep.points[0]
        assert solo.gaps["delivered_fraction_abs_error"] <= 0.01


class TestControllerRecovery:
    def test_backoff_recovers_delivered_fraction(self, static_sweep,
                                                 backoff_sweep):
        packed_static = static_sweep.points[-1]
        packed_backoff = backoff_sweep.points[-1]
        assert packed_backoff.delivered_fraction \
            > packed_static.delivered_fraction + 0.01

    def test_backoff_actuates_at_high_occupancy(self, backoff_sweep):
        assert backoff_sweep.points[-1].controller_actions > 0

    def test_static_never_actuates_tx_power(self, static_sweep):
        for point in static_sweep.points:
            assert point.mean_tx_offset_db == 0.0

    def test_soc_throttle_extends_lifetime(self, static_sweep):
        throttled = crowd.run(controller="soc_throttle",
                              bodies_per_room=(8,))
        assert throttled.points[0].projected_lifetime_hours \
            > static_sweep.points[-1].projected_lifetime_hours
