"""Tests for repro.scenarios (spec, registry, gallery, events)."""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.runner import resolve
from repro.scenarios import (
    ScenarioEvent,
    ScenarioNodeSpec,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    scenario_names,
)
from repro.sensors.catalog import SensorModality, modality_spec


class TestRegistry:
    def test_at_least_six_scenarios_registered(self):
        names = scenario_names()
        assert len(names) >= 6
        for expected in ("sleep_night", "workout", "clinical_ward",
                         "dense_50_leaf", "implant_mix",
                         "legacy_ble_island"):
            assert expected in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            get_scenario("does_not_exist")

    def test_every_scenario_builds_and_describes(self):
        for spec in all_scenarios():
            assert spec.leaf_count >= 1
            assert spec.offered_rate_bps() > 0
            description = spec.describe()
            assert description["scenario"] == spec.name
            simulator = spec.build(seed=0, duration_seconds=1.0)
            assert len(simulator.nodes) == spec.leaf_count

    def test_gallery_covers_all_policies_and_mixed_links(self):
        policies = {spec.arbitration for spec in all_scenarios()}
        assert policies == {"fifo", "tdma", "polling"}
        technologies = {key for spec in all_scenarios()
                        for key in spec.technologies()}
        assert {"wir", "mqs_implant", "ble"} <= technologies


class TestNodeSpec:
    def test_modality_rate_resolution(self):
        node = ScenarioNodeSpec(name="ecg", modality=SensorModality.ECG)
        assert node.resolved_rate_bps() == \
            modality_spec(SensorModality.ECG).compressed_data_rate_bps

    def test_explicit_rate_overrides_modality(self):
        node = ScenarioNodeSpec(name="x", modality=SensorModality.ECG,
                                rate_bps=1234.0)
        assert node.resolved_rate_bps() == 1234.0

    def test_replication_names(self):
        node = ScenarioNodeSpec(name="imu", modality=SensorModality.IMU,
                                count=3)
        assert node.expanded_names() == ["imu0", "imu1", "imu2"]

    def test_invalid_nodes_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioNodeSpec(name="x")  # no modality, no rate
        with pytest.raises(ScenarioError):
            ScenarioNodeSpec(name="x", rate_bps=-1.0)
        with pytest.raises(ScenarioError):
            ScenarioNodeSpec(name="x", rate_bps=1.0, traffic="bursty")
        with pytest.raises(ScenarioError):
            ScenarioNodeSpec(name="x", rate_bps=1.0, technology="zigbee")


class TestSpecValidation:
    def make_spec(self, **overrides) -> ScenarioSpec:
        parameters = dict(
            name="test",
            description="test scenario",
            duration_seconds=10.0,
            nodes=(ScenarioNodeSpec(name="a", rate_bps=1e3),),
        )
        parameters.update(overrides)
        return ScenarioSpec(**parameters)

    def test_duplicate_concrete_names_rejected(self):
        with pytest.raises(ScenarioError):
            self.make_spec(nodes=(
                ScenarioNodeSpec(name="a", rate_bps=1e3),
                ScenarioNodeSpec(name="a", rate_bps=2e3),
            ))

    def test_rate_exceeding_link_rejected(self):
        with pytest.raises(ScenarioError):
            # sub-uW EQS link carries 10 kb/s; 1 Mb/s cannot fit.
            self.make_spec(nodes=(
                ScenarioNodeSpec(name="a", rate_bps=1e6,
                                 technology="sub_uw"),
            ))

    def test_unknown_arbitration_rejected(self):
        with pytest.raises(ScenarioError):
            self.make_spec(arbitration="aloha")

    def test_event_prefix_must_match_a_node(self):
        with pytest.raises(ScenarioError):
            self.make_spec(events=(
                ScenarioEvent(at_fraction=0.5, action="sleep",
                              node_prefixes=("ghost",)),
            ))

    def test_invalid_events_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioEvent(at_fraction=1.5, action="sleep",
                          node_prefixes=("a",))
        with pytest.raises(ScenarioError):
            ScenarioEvent(at_fraction=0.5, action="toggle",
                          node_prefixes=("a",))


class TestExecution:
    def test_run_produces_labelled_result(self):
        result = get_scenario("clinical_ward").run(seed=0,
                                                   duration_seconds=5.0)
        assert result.scenario == "clinical_ward"
        assert result.simulated.delivered_packets > 0
        row = result.row()
        assert row["nodes"] == result.node_count
        assert row["mac"] == "fifo"

    def test_same_seed_reproducible(self):
        first = get_scenario("implant_mix").run(seed=3, duration_seconds=10.0)
        second = get_scenario("implant_mix").run(seed=3, duration_seconds=10.0)
        assert first.simulated == second.simulated

    def test_sleep_events_suppress_traffic(self):
        spec = ScenarioSpec(
            name="duty",
            description="duty-cycle check",
            duration_seconds=10.0,
            nodes=(ScenarioNodeSpec(name="a", rate_bps=8e3),
                   ScenarioNodeSpec(name="b", rate_bps=8e3)),
            events=(ScenarioEvent(at_fraction=0.5, action="sleep",
                                  node_prefixes=("b",)),),
        )
        result = spec.run(seed=0)
        goodput = result.simulated.per_node_goodput_bps
        # b generated for only half the run.
        assert goodput["b"] == pytest.approx(goodput["a"] / 2.0, rel=0.15)

    def test_wake_events_restore_traffic(self):
        spec = ScenarioSpec(
            name="duty2",
            description="wake check",
            duration_seconds=10.0,
            nodes=(ScenarioNodeSpec(name="a", rate_bps=8e3),),
            events=(
                ScenarioEvent(at_fraction=0.0, action="sleep",
                              node_prefixes=("a",)),
                ScenarioEvent(at_fraction=0.75, action="wake",
                              node_prefixes=("a",)),
            ),
        )
        result = spec.run(seed=0)
        assert 0 < result.simulated.delivered_packets < 10

    def test_mixed_technology_scenario_runs(self):
        result = get_scenario("implant_mix").run(seed=0,
                                                 duration_seconds=30.0)
        assert len(result.technologies) == 3
        assert result.simulated.delivered_fraction > 0.9

    def test_dense_scenario_streams_with_bounded_memory(self):
        spec = get_scenario("dense_50_leaf")
        simulator = spec.build(seed=0, duration_seconds=60.0,
                               latency_exact_capacity=512)
        result = simulator.run(60.0)
        accumulator = simulator.bus.stats.latency
        assert result.delivered_packets > 512
        assert not accumulator.is_exact
        assert accumulator.retained_samples == 0
        assert accumulator.count == result.delivered_packets
        assert result.p99_latency_seconds >= result.mean_latency_seconds

    def test_dense_hour_streams_with_bounded_memory(self):
        """The full dense_50_leaf hour (~175k packets) at the default
        exact window: the run spills and holds no raw samples, while
        count, mean and percentiles stay live."""
        spec = get_scenario("dense_50_leaf")
        simulator = spec.build(seed=0)
        result = simulator.run(spec.duration_seconds)
        # Throughput shape: ~50 leaves x ~1 pkt/s x 3600 s.
        assert result.delivered_packets > 100_000
        assert result.delivered_fraction > 0.95
        accumulator = simulator.bus.stats.latency
        assert not accumulator.is_exact
        assert accumulator.retained_samples == 0
        assert accumulator.count == result.delivered_packets
        assert 0.0 < result.mean_latency_seconds < result.p99_latency_seconds


class TestGalleryExperiment:
    def test_gallery_at_two_percent_duration(self):
        """E13: every registered scenario, all three arbitration
        policies, at least three link technologies, traffic delivered."""
        result = resolve("gallery").execute(duration_scale=0.02)
        assert len(result.results) >= 6
        assert {r.arbitration for r in result.results} == {"fifo", "tdma",
                                                           "polling"}
        technologies = {key for r in result.results for key in r.technologies}
        assert len(technologies) >= 3
        for scenario_result in result.results:
            assert scenario_result.simulated.delivered_packets > 0
            assert scenario_result.simulated.delivered_fraction > 0.9
