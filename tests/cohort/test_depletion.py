"""Vectorised depletion model vs the DES, and cohort battery sampling."""

from __future__ import annotations

import math

import pytest

from repro.cohort import CohortSpec, evaluate_member, run_cohort
from repro.cohort.aggregate import (
    MEMBER_METRIC_FIELDS,
    CohortAccumulator,
    MemberMetrics,
)
from repro.cohort.distributions import Categorical
from repro.errors import ScenarioError
from repro.netsim.fidelity import ANALYTIC
from repro.scenarios import get_scenario


def simulate(spec):
    simulator = spec.build(seed=0)
    return MemberMetrics.from_simulation(
        0, spec, simulator.run(spec.duration_seconds))


class TestDepletionModel:
    def test_week_wear_death_matches_des_within_one_percent(self):
        spec = get_scenario("week_wear")
        analytic = evaluate_member(spec)
        des = simulate(spec)
        assert analytic.first_death_seconds == pytest.approx(
            des.first_death_seconds, rel=0.01)
        assert analytic.alive_fraction == des.alive_fraction

    def test_harvested_member_projected_perpetual(self):
        analytic = evaluate_member(get_scenario("harvester_patch"))
        assert math.isinf(analytic.first_death_seconds)
        assert analytic.alive_fraction == 1.0

    def test_batteryless_member_unchanged(self):
        analytic = evaluate_member(get_scenario("dense_50_leaf"))
        assert math.isinf(analytic.first_death_seconds)
        assert analytic.alive_fraction == 1.0

    def test_dead_nodes_reduce_energy(self):
        """A member whose node dies early consumes visibly less than the
        same member on an infinite battery."""
        import dataclasses

        spec = get_scenario("week_wear")
        batteryless = dataclasses.replace(spec, nodes=tuple(
            dataclasses.replace(node, battery=None, harvester=None)
            for node in spec.nodes))
        constrained = evaluate_member(spec)
        unconstrained = evaluate_member(batteryless)
        assert (constrained.leaf_energy_joules
                < unconstrained.leaf_energy_joules)


class TestAliveFractionAggregation:
    def test_alive_fraction_is_a_summary_metric(self):
        assert "alive_fraction" in MEMBER_METRIC_FIELDS

    def test_accumulator_tracks_deaths_and_first_death(self):
        accumulator = CohortAccumulator()
        base = dict(
            scenario="m", source="analytic", arbitration="fifo",
            node_count=2, duration_seconds=10.0, delivered_packets=1,
            delivered_fraction=1.0, mean_latency_seconds=0.1,
            p99_latency_seconds=0.2, bus_utilization=0.1,
            leaf_power_watts=1.0, hub_power_watts=1.0,
            leaf_energy_joules=10.0, hub_energy_joules=10.0)
        accumulator.add(MemberMetrics(index=0, **base))
        accumulator.add(MemberMetrics(index=1, alive_fraction=0.5,
                                      first_death_seconds=4.0, **base))
        assert accumulator.dead_members == 1
        assert accumulator.first_death_seconds == 4.0
        other = CohortAccumulator()
        other.add(MemberMetrics(index=2, alive_fraction=0.0,
                                first_death_seconds=2.0, **base))
        accumulator.merge(other)
        assert accumulator.dead_members == 2
        assert accumulator.first_death_seconds == 2.0
        overview = accumulator.overview()
        assert overview["dead_members"] == 2
        assert overview["first_death_s"] == 2.0

    def test_overview_omits_first_death_when_none(self):
        accumulator = CohortAccumulator()
        accumulator.add(MemberMetrics(
            index=0, scenario="m", source="analytic", arbitration="fifo",
            node_count=1, duration_seconds=1.0, delivered_packets=0,
            delivered_fraction=1.0, mean_latency_seconds=0.0,
            p99_latency_seconds=0.0, bus_utilization=0.0,
            leaf_power_watts=0.0, hub_power_watts=0.0,
            leaf_energy_joules=0.0, hub_energy_joules=0.0))
        assert "first_death_s" not in accumulator.overview()


class TestBatteryCohorts:
    def test_default_cohort_samples_no_batteries(self):
        member = CohortSpec(population=3, seed=0).member(0)
        assert all(node.battery is None and node.harvester is None
                   for node in member.scenario.nodes)

    def test_battery_mix_applies_to_member_nodes(self):
        spec = CohortSpec(
            population=20, seed=1,
            batteries=Categorical(choices=("cr2032", ""),
                                  weights=(0.5, 0.5)),
            battery_scale=0.25,
            harvesters=Categorical(choices=("teg", ""),
                                   weights=(0.5, 0.5)))
        carrying = 0
        for index in range(20):
            nodes = spec.member(index).scenario.nodes
            keys = {node.battery for node in nodes}
            assert len(keys) == 1  # one draw per member, applied to all
            if keys != {None}:
                carrying += 1
                assert all(node.battery_scale == 0.25 for node in nodes)
        assert 0 < carrying < 20

    def test_unknown_battery_choice_rejected(self):
        with pytest.raises(ScenarioError):
            CohortSpec(population=1,
                       batteries=Categorical(choices=("aa",)))
        with pytest.raises(ScenarioError):
            CohortSpec(population=1, battery_scale=0.0)
        with pytest.raises(ScenarioError):
            CohortSpec(population=1,
                       harvesters=Categorical(choices=("fusion",)))

    def test_starved_cohort_records_deaths_and_validates(self):
        """Tiny scaled cells across a cohort: members die in both the
        analytic and the DES path, and the cross-check agrees."""
        spec = CohortSpec(
            population=12, seed=2, member_duration_seconds=30.0,
            batteries=Categorical(choices=("cr2032",)),
            battery_scale=2e-7)  # ~0.5 mJ cells die within seconds
        result = run_cohort(spec, fast_path="analytic", validate_stride=4)
        assert result.accumulator.dead_members > 0
        assert result.accumulator.first_death_seconds < 30.0
        errors = result.max_validation_errors()
        assert not errors.beyond(ANALYTIC), errors
