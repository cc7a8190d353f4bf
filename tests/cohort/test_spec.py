"""Tests for cohort distributions and deterministic member sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cohort import (
    Bernoulli,
    Categorical,
    CohortSpec,
    Uniform,
)
from repro.cohort.spec import DUTY_CYCLED_MODALITIES
from repro.errors import ScenarioError
from repro.scenarios.spec import ScenarioSpec


class TestDistributions:
    def test_categorical_uniform_and_weighted(self):
        rng = np.random.default_rng(0)
        uniform = Categorical(choices=("a", "b", "c"))
        drawn = {uniform.sample(rng) for _ in range(100)}
        assert drawn == {"a", "b", "c"}
        loaded = Categorical(choices=("x", "y"), weights=(1.0, 0.0))
        assert all(loaded.sample(rng) == "x" for _ in range(20))

    def test_categorical_validation(self):
        with pytest.raises(ScenarioError):
            Categorical(choices=())
        with pytest.raises(ScenarioError):
            Categorical(choices=("a",), weights=(1.0, 2.0))
        with pytest.raises(ScenarioError):
            Categorical(choices=("a",), weights=(-1.0,))
        with pytest.raises(ScenarioError):
            Categorical(choices=("a", "b"), weights=(0.0, 0.0))

    def test_uniform_bounds(self):
        rng = np.random.default_rng(1)
        dist = Uniform(2.0, 3.0)
        values = [dist.sample(rng) for _ in range(50)]
        assert all(2.0 <= value <= 3.0 for value in values)
        assert Uniform(5.0, 5.0).sample(rng) == 5.0
        with pytest.raises(ScenarioError):
            Uniform(3.0, 2.0)

    def test_bernoulli_extremes(self):
        rng = np.random.default_rng(3)
        assert Bernoulli(1.0).sample(rng) is True
        assert Bernoulli(0.0).sample(rng) is False
        with pytest.raises(ScenarioError):
            Bernoulli(1.5)


class TestCohortSpecValidation:
    def test_rejects_bad_population_and_adoption(self):
        with pytest.raises(ScenarioError):
            CohortSpec(population=0)
        with pytest.raises(ScenarioError):
            CohortSpec(adoption={"ppg": 1.5})
        with pytest.raises(ScenarioError):
            CohortSpec(adoption={"warp_drive": 0.5})
        with pytest.raises(ScenarioError):
            CohortSpec(adoption={})

    def test_rejects_unknown_policy_and_technology(self):
        with pytest.raises(ScenarioError):
            CohortSpec(mac_policies=Categorical(choices=("csma",)))
        with pytest.raises(ScenarioError):
            CohortSpec(technologies=Categorical(choices=("carrier-pigeon",)))

    def test_member_index_bounds_checked(self):
        spec = CohortSpec(population=5)
        with pytest.raises(ScenarioError):
            spec.member(5)
        with pytest.raises(ScenarioError):
            spec.member_seed(-1)
        with pytest.raises(ScenarioError):
            list(spec.members(2, 9))


class TestMemberSampling:
    def test_member_expansion_is_deterministic(self):
        spec = CohortSpec(population=50, seed=11)
        first = spec.member(17).scenario
        second = spec.member(17).scenario
        assert first == second

    def test_member_independent_of_access_order(self):
        spec = CohortSpec(population=50, seed=11)
        forward = [spec.member(index).scenario for index in range(10)]
        backward = [spec.member(index).scenario
                    for index in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_member_seeds_distinct_and_stable(self):
        spec = CohortSpec(population=200, seed=0)
        seeds = [spec.member_seed(index) for index in range(200)]
        assert len(set(seeds)) == 200
        assert seeds == [spec.member_seed(index) for index in range(200)]

    def test_different_cohort_seeds_sample_different_members(self):
        member_a = CohortSpec(population=10, seed=0).member(3).scenario
        member_b = CohortSpec(population=10, seed=1).member(3).scenario
        assert member_a != member_b

    def test_members_are_valid_scenarios_with_at_least_one_node(self):
        spec = CohortSpec(population=64, seed=5)
        for member in spec.members():
            assert isinstance(member.scenario, ScenarioSpec)
            assert member.scenario.leaf_count >= 1
            assert member.scenario.arbitration in ("fifo", "tdma", "polling")

    def test_adoption_rates_roughly_respected(self):
        spec = CohortSpec(population=400, seed=2,
                          adoption={"ppg": 0.9, "eeg": 0.1})
        ppg = eeg = 0
        for member in spec.members():
            names = {node.name for node in member.scenario.nodes}
            ppg += "ppg" in names
            eeg += "eeg" in names
        assert 0.8 < ppg / 400 < 1.0
        assert 0.02 < eeg / 400 < 0.2

    def test_zero_adoption_forces_baseline_node(self):
        spec = CohortSpec(population=5, seed=0, adoption={"eeg": 0.0},
                          implant=Bernoulli(0.0))
        for member in spec.members():
            assert [node.name for node in member.scenario.nodes] == \
                ["temperature"]

    def test_duty_cycled_modalities_get_sleep_events(self):
        spec = CohortSpec(population=100, seed=4,
                          adoption={"imu": 1.0, "audio": 1.0},
                          duty_cycle=Uniform(0.4, 0.6))
        for member in spec.members(0, 20):
            prefixes = {prefix for event in member.scenario.events
                        for prefix in event.node_prefixes}
            assert prefixes  # duty cycle < 1 always sleeps something
            assert prefixes <= set(DUTY_CYCLED_MODALITIES)

    def test_slow_streams_get_clamped_packets(self):
        spec = CohortSpec(population=30, seed=6,
                          adoption={"temperature": 1.0},
                          member_duration_seconds=60.0)
        for member in spec.members(0, 10):
            node = member.scenario.nodes[0]
            packets = (node.resolved_rate_bps() * 60.0
                       / node.bits_per_packet)
            assert packets >= 4.0

    def test_spec_is_picklable(self):
        import pickle

        spec = CohortSpec(population=10, seed=0)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.member(3).scenario == spec.member(3).scenario
