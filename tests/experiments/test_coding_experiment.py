"""Tests for E17 (energy-optimal source-coding rate)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import coding
from repro.netsim.fidelity import ANALYTIC
from repro.runner import resolve


class TestRegistration:
    def test_registered_under_cli_and_paper_ids(self):
        assert resolve("coding").eid == "E17"
        assert resolve("E17").id == "coding"

    def test_sweep_defaults_cover_the_axes(self):
        spec = resolve("coding")
        assert set(spec.sweep_defaults) \
            == {"device_class", "channel", "mac_policy"}
        assert set(spec.sweep_defaults["channel"]) == set(coding.CHANNELS)


@pytest.fixture(scope="module")
def headband():
    return coding.run(device_class="eeg_headband", channel="noisy",
                      simulated_seconds=20.0)


class TestSweep:
    def test_rows_cover_baseline_plus_rates(self, headband):
        rows = headband.rows()
        assert len(rows) == len(coding.DEFAULT_RATES) + 1
        assert rows[0]["rate"] == "uncoded"
        for row in rows:
            assert 0.0 < row["effective_rate"] <= 1.0
            assert row["energy_nj_per_source_bit"] > 0.0

    def test_rates_below_the_floor_clamp(self, headband):
        # The default grid crosses the EEG floor, so the lowest rows
        # repeat the clamped effective rate.
        effective = [point.effective_rate
                     for point in headband.coded_points()]
        floors = [rate for rate in effective
                  if rate > min(coding.DEFAULT_RATES)]
        assert floors, "grid never hit the modality floor"

    def test_shorter_packets_lower_the_per(self, headband):
        points = sorted(headband.coded_points(),
                        key=lambda point: point.effective_rate)
        pers = [point.packet_error_rate for point in points]
        assert pers == sorted(pers)
        assert pers[0] < pers[-1]

    def test_interior_energy_optimum_for_the_ble_class(self, headband):
        # The acceptance claim: a non-trivial, strictly interior
        # energy-optimal coding rate under a lossy link.
        assert headband.optimal_is_interior()
        assert headband.savings_fraction() > 0.05
        best = headband.optimal()
        assert best.requested_rate is not None

    def test_des_and_closed_form_cross_validate(self, headband):
        assert headband.worst_gaps()["leaf_power_rel_error"] < 0.02
        # Both sides locate the same optimum on the default grid.
        assert headband.predicted_optimal().effective_rate \
            == headband.optimal().effective_rate

    def test_encode_energy_share_grows_as_rate_drops(self, headband):
        points = sorted(headband.coded_points(),
                        key=lambda point: point.effective_rate)
        shares = [point.simulated.encode_energy_fraction
                  for point in points]
        assert shares[0] > shares[-1]


class TestValidation:
    def test_unknown_device_class_rejected(self):
        with pytest.raises(ConfigurationError, match="device class"):
            coding.run(device_class="toaster")

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError, match="channel"):
            coding.run(channel="underwater")

    def test_empty_rate_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="rate"):
            coding.run(rates=())

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="duration"):
            coding.run(simulated_seconds=0.0)


class TestSummary:
    def test_summary_names_the_optimum(self, headband):
        lines = coding._summary(headband)
        joined = "\n".join(lines)
        assert "energy-optimal rate" in joined
        assert "interior" in joined
        assert "eeg_headband" in joined

    def test_wir_class_runs_and_cross_validates(self):
        result = coding.run(device_class="ecg_patch", channel="harsh",
                            simulated_seconds=10.0)
        assert not result.worst_gaps().beyond(ANALYTIC)
        assert len(result.rows()) == len(coding.DEFAULT_RATES) + 1


class TestDefaultSweep:
    def test_default_sweep_acceptance(self):
        """The registry defaults (30 simulated seconds per point): an
        interior optimum that saves real energy, with the closed form
        tracking every DES point."""
        result = coding.run()
        assert result.optimal_is_interior()
        assert result.savings_fraction() > 0.05
        assert result.worst_gaps()["leaf_power_rel_error"] < 0.02
