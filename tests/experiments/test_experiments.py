"""Tests for the experiment drivers (E1-E8): the paper's figures and claims."""

from __future__ import annotations


import pytest

from repro import units
from repro.core.battery_life import LifeBand
from repro.core.partition import PartitionObjective
from repro.experiments import (
    claims,
    fig1_power_breakdown,
    fig2_battery_survey,
    fig3_battery_projection,
    isa_ablation,
    network_scaling,
    partitioned_inference,
    perpetual,
)


class TestE1PowerBreakdown:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1_power_breakdown.run()

    def test_covers_three_representative_nodes(self, result):
        assert set(result.comparisons) == {"ECG patch", "audio AI pin",
                                           "camera glasses"}

    def test_uw_class_nodes_gain_50x_or_more(self, result):
        """Fig. 1's headline: removing the CPU+radio buys orders of magnitude."""
        reductions = result.reduction_factors()
        assert reductions["ECG patch"] >= 50.0
        assert reductions["audio AI pin"] >= 50.0

    def test_camera_node_limited_by_its_sensor(self, result):
        """For video nodes the camera dominates, so the gain is modest —
        consistent with Fig. 3 keeping video at all-day battery life."""
        assert 1.0 < result.reduction_factors()["camera glasses"] < 10.0

    def test_human_inspired_component_bands(self, result):
        comparison = result.comparisons["ECG patch"]
        budget = comparison.human_inspired
        assert budget.component_power("sensor") <= units.microwatt(50.0)
        assert budget.component_power("isa") <= units.microwatt(300.0)
        assert budget.component_power("wi-r") <= units.microwatt(300.0)

    def test_conventional_radio_is_tens_of_milliwatts(self, result):
        comparison = result.comparisons["ECG patch"]
        radio = comparison.conventional.component_power("radio")
        assert units.milliwatt(5.0) <= radio <= units.milliwatt(50.0)

    def test_ecg_patch_radio_bound_and_sub_mw(self, result):
        ecg = result.comparisons["ECG patch"]
        assert ecg.conventional.dominant_component().name == "radio"
        assert ecg.human_inspired.total_watts() < 1e-3

    def test_rows_are_table_ready(self, result):
        rows = result.rows()
        assert any(row["component"] == "TOTAL" for row in rows)
        assert any(row["component"] == "power reduction factor" for row in rows)


class TestE2BatterySurvey:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_battery_survey.run()

    def test_full_agreement_with_paper_bands(self, result):
        assert result.agreement_fraction == 1.0

    def test_survey_size(self, result):
        assert result.device_count >= 10

    def test_band_lookup(self, result):
        assert result.band_of("smart ring") is LifeBand.ALL_WEEK
        assert result.band_of("smartphone") is LifeBand.SUB_DAY

    def test_extremes(self):
        longest, shortest = fig2_battery_survey.longest_and_shortest_lived()
        assert longest in ("smart ring", "fitness tracker")
        assert shortest in ("mixed-reality headset", "smartphone")

    def test_band_histogram_totals(self):
        histogram = fig2_battery_survey.band_histogram()
        assert sum(histogram.values()) == fig2_battery_survey.run().device_count


class TestE3BatteryProjection:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_battery_projection.run(n_points=31)

    def test_device_bands_match_paper(self, result):
        assert result.bands_match_paper()
        bands = fig3_battery_projection.summarize_bands(result)
        assert bands["biopotential sensor patch (ECG/ExG)"] == "perpetual"
        assert bands["wearable AI audio node (pin / pocket assistant)"] == "all_week"
        assert bands["wearable AI video node (camera glasses)"] == "all_day"

    def test_perpetual_region_extends_past_biopotential_rates(self, result):
        assert result.perpetual_rate_limit_bps() >= units.kilobit_per_second(10.0)

    def test_wir_life_advantage_grows_with_rate(self, result):
        low = result.wir_life_advantage_at(units.kilobit_per_second(1.0))
        high = result.wir_life_advantage_at(units.kilobit_per_second(300.0))
        assert high > low >= 1.0

    def test_default_sweep_keeps_the_paper_bands(self):
        """The registry's default 61-point sweep, not the test's 31."""
        result = fig3_battery_projection.run()
        assert result.bands_match_paper()
        assert result.perpetual_rate_limit_bps() \
            >= units.kilobit_per_second(10.0)
        assert result.wir_life_advantage_at(units.kilobit_per_second(300.0)) \
            > result.wir_life_advantage_at(units.kilobit_per_second(1.0))

    def test_curve_rows_have_expected_columns(self, result):
        row = result.curve_rows()[0]
        for key in ("data_rate_bps", "sensing_power_uw", "comm_power_uw",
                    "life_days", "band"):
            assert key in row


class TestE4Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return claims.run()

    def test_every_claim_holds(self, result):
        failing = [check.claim for check in result.checks if not check.holds]
        assert not failing

    def test_wir_vs_ble_ratios(self, result):
        assert result.check("Wi-R data rate vs BLE").measured_value >= 10.0
        assert result.check("BLE energy per bit vs Wi-R").measured_value >= 50.0

    def test_rf_range_vs_body_channel(self, result):
        rf_range = result.check("RF radiation range").measured_value
        body_channel = result.check("On-body channel length").measured_value
        assert rf_range > 2.0 * body_channel

    def test_ble_power_and_rf_range_claims(self, result):
        assert result.check("BLE communication power vs Wi-R") \
            .measured_value >= 20.0
        assert result.check("RF radiation range").measured_value >= 5.0
        assert result.check("On-body channel length").measured_value <= 2.5

    def test_security_rows_mark_only_body_confined_links_secure(self, result):
        secure = {row["name"] for row in result.security_rows
                  if row["physically_secure"]}
        assert any("Wi-R" in name for name in secure)
        assert not any("BLE" in name for name in secure)

    def test_technology_rows_cover_six_links(self, result):
        assert len(result.technology_rows) == 6


class TestE5PartitionedInference:
    @pytest.fixture(scope="class")
    def result(self):
        return partitioned_inference.run()

    def test_every_workload_evaluated_on_both_links(self, result):
        workloads = {r.workload for r in result.results}
        links = {r.technology for r in result.results}
        assert workloads == {"keyword_spotting", "ecg_arrhythmia", "vision_tiny",
                             "imu_har"}
        assert len(links) == 2

    def test_wir_offloads_more_than_ble(self, result):
        for workload in ("keyword_spotting", "ecg_arrhythmia", "vision_tiny"):
            over_wir = result.for_workload(workload, "Wi-R (EQS-HBC)")
            over_ble = result.for_workload(workload, "BLE 1M PHY")
            assert over_wir.offload_fraction >= over_ble.offload_fraction

    def test_wir_leaf_energy_below_ble(self, result):
        for workload in ("keyword_spotting", "ecg_arrhythmia", "vision_tiny"):
            over_wir = result.for_workload(workload, "Wi-R (EQS-HBC)")
            over_ble = result.for_workload(workload, "BLE 1M PHY")
            assert over_wir.best_leaf_energy_joules < over_ble.best_leaf_energy_joules

    def test_leaf_energy_reduction_orders_of_magnitude_over_wir(self, result):
        """Hub offload over Wi-R cuts leaf energy >= 100x vs local MCU inference."""
        for workload in ("keyword_spotting", "ecg_arrhythmia"):
            assert result.for_workload(workload, "Wi-R (EQS-HBC)") \
                .leaf_energy_reduction >= 100.0

    def test_wir_cuts_leaf_energy_50x(self, result):
        for workload in ("keyword_spotting", "ecg_arrhythmia", "vision_tiny"):
            assert result.for_workload(workload, "Wi-R (EQS-HBC)") \
                .leaf_energy_reduction >= 50.0

    def test_always_on_leaf_power_stays_microwatt_class_over_wir(self, result):
        for workload in ("keyword_spotting", "ecg_arrhythmia", "imu_har"):
            over_wir = result.for_workload(workload, "Wi-R (EQS-HBC)")
            assert over_wir.leaf_average_power_watts < units.microwatt(100.0)

    def test_latency_objective_run(self):
        latency_result = partitioned_inference.run(
            objective=PartitionObjective.LATENCY
        )
        assert len(latency_result.results) == len(partitioned_inference.WORKLOADS) * 2

    def test_rows_table_ready(self, result):
        rows = result.rows()
        assert len(rows) == len(result.results)
        assert {"workload", "link", "best_split", "leaf_energy_reduction"} \
            <= set(rows[0])


class TestE6Perpetual:
    @pytest.fixture(scope="class")
    def result(self):
        return perpetual.run()

    def test_paper_class_list_perpetual_at_100uw(self, result):
        """Section V: biopotential, rings, trackers perpetual with harvesting."""
        perpetual_classes = result.perpetual_classes(units.microwatt(100.0))
        joined = " ".join(perpetual_classes).lower()
        for keyword in ("biopotential", "ring", "fitness"):
            assert keyword in joined

    def test_video_node_never_perpetual_in_indoor_range(self, result):
        for level in result.harvest_levels_watts:
            assert not any("video" in name for name in result.perpetual_classes(level))

    def test_energy_neutral_subset_of_perpetual(self, result):
        for level in result.harvest_levels_watts:
            neutral = set(result.energy_neutral_classes(level))
            perpetual_set = set(result.perpetual_classes(level))
            assert neutral <= perpetual_set

    def test_more_harvest_never_fewer_perpetual_classes(self, result):
        counts = [len(result.perpetual_classes(level))
                  for level in result.harvest_levels_watts]
        assert counts == sorted(counts)

    def test_reference_harvester_stack_in_indoor_range(self, result):
        assert units.microwatt(10.0) <= result.reference_harvester_power_watts \
            <= units.microwatt(500.0)

    def test_rows_cover_sweep(self, result):
        rows = result.rows()
        assert len(rows) == len(result.reports) * len(result.harvest_levels_watts)


class TestE7ISAAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return isa_ablation.run()

    def test_isa_marginal_over_wir(self, result):
        """With 100 pJ/bit links, compression buys < 20 % battery life."""
        for node in ("ECG patch", "audio AI node"):
            assert result.isa_life_gain(node, "Wi-R (EQS-HBC)") < 1.2

    def test_isa_essential_over_ble(self, result):
        """With BLE, feature extraction/compression is a 2x+ lever."""
        for node in ("ECG patch", "audio AI node"):
            assert result.isa_life_gain(node, "BLE 1M PHY") > 2.0

    def test_ble_cannot_carry_raw_video(self, result):
        cell = result.cell("video node (QVGA)", "BLE 1M PHY", False)
        assert not cell.link_feasible

    def test_wir_carries_compressed_video(self, result):
        cell = result.cell("video node (QVGA)", "Wi-R (EQS-HBC)", True)
        assert cell.link_feasible

    def test_rows_have_2x2_design_per_node(self, result):
        rows = result.rows()
        assert len(rows) == 3 * 2 * 2


class TestE8NetworkScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return network_scaling.run(node_counts=(1, 2, 4, 8, 16),
                                   simulated_seconds=1.0)

    def test_many_audio_class_leaves_supported(self, result):
        """One Wi-R hub sustains well over a dozen 64 kb/s leaves."""
        assert result.max_feasible_nodes() >= 16

    def test_utilization_increases_with_population(self, result):
        utilizations = [point.tdma_utilization for point in result.points]
        assert utilizations == sorted(utilizations)

    def test_latency_grows_with_population(self, result):
        latencies = [point.mean_latency_ms for point in result.points]
        assert latencies[-1] >= latencies[0]

    def test_delivery_fraction_high_while_feasible(self, result):
        for point in result.points:
            if point.tdma_feasible:
                assert point.delivered_fraction > 0.95

    def test_sweep_to_32_leaves(self):
        result = network_scaling.run(node_counts=(1, 2, 4, 8, 16, 32),
                                     simulated_seconds=1.0)
        assert result.max_feasible_nodes() >= 16
        utilizations = [point.tdma_utilization for point in result.points]
        assert utilizations == sorted(utilizations)
        for point in result.points:
            if point.tdma_feasible and point.simulated is not None:
                assert point.delivered_fraction > 0.95

    def test_analytical_only_mode(self):
        quick = network_scaling.run(node_counts=(1, 2), simulate=False)
        assert all(point.simulated is None for point in quick.points)

    def test_saturation_detected_for_video_class_leaves(self):
        saturated = network_scaling.run(
            node_counts=(1, 2, 8),
            per_node_rate_bps=units.megabit_per_second(1.0),
            simulate=False,
        )
        assert not saturated.points[-1].tdma_feasible
        assert saturated.max_feasible_nodes() < 8
