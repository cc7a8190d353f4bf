"""Source coding through the scenario stack: wiring and exact neutrality.

The golden-hex regression suite (tests/netsim/test_fifo_regression.py)
pins the coding-off DES bit-for-bit; these tests pin the complementary
contracts: a disabled coder changes *nothing* anywhere in the compiled
artefacts, an enabled coder changes exactly the things it should, and
the cohort analytic fast path agrees with the DES on coded bodies.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import units
from repro.coding import CodingSpec
from repro.cohort import evaluate_member
from repro.netsim.fidelity import ANALYTIC, Readout, compare
from repro.netsim.traffic import PeriodicSource, PoissonSource
from repro.scenarios import get_scenario
from repro.scenarios.spec import (
    ReliabilitySpec,
    ScenarioNodeSpec,
    ScenarioSpec,
)
from repro.sensors.catalog import SensorModality


def lossy_spec(coding: CodingSpec | None,
               technology: str = "ble",
               duration_seconds: float = 30.0) -> ScenarioSpec:
    return ScenarioSpec(
        name="coding_probe",
        description="coding wiring probe",
        duration_seconds=duration_seconds,
        hub_technology=technology,
        nodes=(ScenarioNodeSpec(name="eeg", modality=SensorModality.EEG,
                                technology=technology,
                                bits_per_packet=4096.0, count=2,
                                coding=coding),),
        reliability=ReliabilitySpec(rf_noise_floor_dbm=-94.0),
    )


class TestExactNeutrality:
    def test_uncoded_accessors_return_the_plain_attributes(self):
        node = ScenarioNodeSpec(name="a", rate_bps=8000.0)
        assert node.coded_bits_per_packet() is node.bits_per_packet
        assert node.effective_coding_rate() == 1.0
        assert node.coding_power_watts() == 0.0
        assert node.air_rate_bps() == node.resolved_rate_bps()

    def test_noop_coder_is_bit_identical_to_no_coder(self):
        # A pass-through coder (rate 1.0) with a zero-energy encoder
        # must not perturb a single float in the result — the strongest
        # form of the off-neutrality contract, run through a lossy
        # scenario so PER, ARQ and energy paths are all exercised.
        noop = CodingSpec(rate=1.0, energy_per_source_bit_joules=0.0)
        coded = lossy_spec(noop).run(seed=0).simulated
        plain = lossy_spec(None).run(seed=0).simulated
        assert coded == plain
        assert coded.to_dict() == plain.to_dict()

    def test_noop_coder_analytic_bit_identity(self):
        noop = CodingSpec(rate=1.0, energy_per_source_bit_joules=0.0)
        assert evaluate_member(lossy_spec(noop)) \
            == evaluate_member(lossy_spec(None))

    def test_uncoded_rows_gain_no_coding_columns(self):
        result = get_scenario("clinical_ward").run(seed=0,
                                                   duration_seconds=2.0)
        row = result.row()
        assert "bit_reduction" not in row
        assert "encode_energy_fraction" not in row


class TestCodedWiring:
    def test_sources_keep_cadence_and_shrink_payload(self):
        coding = CodingSpec(rate=0.5, correlation=0.5)
        base = ScenarioNodeSpec(name="imu", modality=SensorModality.IMU,
                                bits_per_packet=4096.0)
        coded = dataclasses.replace(base, coding=coding)
        plain_source = base.make_source()
        coded_source = coded.make_source()
        assert isinstance(coded_source, PeriodicSource)
        assert coded_source.period_seconds == plain_source.period_seconds
        assert coded_source.bits_per_packet \
            == coding.coded_bits(4096.0, SensorModality.IMU)
        poisson = dataclasses.replace(coded, traffic="poisson").make_source()
        assert isinstance(poisson, PoissonSource)
        assert poisson.mean_interarrival_seconds \
            == plain_source.period_seconds
        assert poisson.mean_bits_per_packet == coded_source.bits_per_packet

    def test_air_rate_matches_the_source_registration_rate(self):
        coded = ScenarioNodeSpec(name="imu", modality=SensorModality.IMU,
                                 bits_per_packet=4096.0,
                                 coding=CodingSpec(rate=0.5))
        assert coded.air_rate_bps() \
            == coded.make_source().average_rate_bps()

    def test_coding_lowers_the_packet_error_rate(self):
        rel = ReliabilitySpec(eqs_noise_rms_volts=6e-5)
        plain = ScenarioNodeSpec(name="ecg", modality=SensorModality.ECG,
                                 bits_per_packet=4096.0)
        coded = dataclasses.replace(plain, coding=CodingSpec(rate=0.5))
        assert rel.node_error_rate(coded) < rel.node_error_rate(plain)

    def test_has_coding_property(self):
        assert lossy_spec(CodingSpec(rate=0.7)).has_coding
        assert not lossy_spec(None).has_coding
        assert get_scenario("coded_ward").has_coding
        assert not get_scenario("noisy_ward").has_coding

    def test_coded_run_reports_coding_metrics(self):
        result = lossy_spec(CodingSpec(rate=0.7, correlation=0.5)).run(
            seed=0).simulated
        assert result.coding_enabled
        assert result.coding_energy_joules > 0.0
        # Packets in flight at the end of the run are sent but not yet
        # delivered, so the measured ratio sits slightly above 1/rate.
        assert result.bit_reduction_factor == pytest.approx(1.0 / 0.7,
                                                            rel=0.02)
        assert 0.0 < result.encode_energy_fraction < 1.0
        assert result.source_bits_delivered > result.delivered_bits

    def test_coded_row_gains_gated_columns(self):
        row = get_scenario("coded_ward").run(seed=0,
                                             duration_seconds=30.0).row()
        assert row["bit_reduction"] > 1.0
        assert 0.0 < row["encode_energy_fraction"] < 1.0

    def test_coding_saves_energy_in_the_coded_ward(self):
        coded = get_scenario("coded_ward").run(seed=0,
                                               duration_seconds=60.0)
        plain = get_scenario("noisy_ward").run(seed=0,
                                               duration_seconds=60.0)
        assert coded.simulated.total_leaf_power_watts \
            < plain.simulated.total_leaf_power_watts

    def test_coded_ward_beats_noisy_ward_over_an_hour(self):
        """One simulated hour of each ward: the coded body beats the
        uncoded one on leaf power and delivery, with the encoder a
        minority share of the budget."""
        coded = get_scenario("coded_ward").run(
            seed=0, duration_seconds=units.hours(1.0))
        plain = get_scenario("noisy_ward").run(
            seed=0, duration_seconds=units.hours(1.0))
        sim = coded.simulated
        assert sim.coding_enabled
        assert sim.bit_reduction_factor > 1.2
        assert 0.0 < sim.encode_energy_fraction < 0.5
        assert sim.total_leaf_power_watts \
            < plain.simulated.total_leaf_power_watts
        assert sim.delivered_fraction >= plain.simulated.delivered_fraction

    def test_result_round_trips_with_coding_fields(self):
        from repro.netsim.simulator import SimulationResult

        result = lossy_spec(CodingSpec(rate=0.7)).run(seed=0).simulated
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert rebuilt.coding_enabled is True
        assert rebuilt.bit_reduction_factor == result.bit_reduction_factor
        assert rebuilt.encode_energy_fraction \
            == result.encode_energy_fraction

    def test_old_result_documents_still_load(self):
        # An artifact written before the coding layer has no coding
        # keys; from_dict must leave the fields at their defaults.
        from repro.netsim.simulator import SimulationResult

        document = lossy_spec(None).run(seed=0).simulated.to_dict()
        for key in ("coding_enabled", "coding_energy_joules",
                    "source_bits_delivered"):
            del document[key]
        rebuilt = SimulationResult.from_dict(document)
        assert rebuilt.coding_enabled is False
        assert rebuilt.bit_reduction_factor == 1.0
        assert rebuilt.encode_energy_fraction == 0.0


class TestAnalyticAgreement:
    @pytest.mark.parametrize("rate", [1.0, 0.8, 0.6])
    def test_analytic_tracks_des_on_coded_lossy_bodies(self, rate):
        spec = lossy_spec(CodingSpec(rate=rate, correlation=0.5))
        gaps = compare(Readout.of_member(evaluate_member(spec)),
                       Readout.of_result(spec.run(seed=0).simulated))
        assert not gaps.beyond(ANALYTIC), gaps
