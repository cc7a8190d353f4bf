"""Analytic fast path vs the discrete-event simulator.

On workloads inside the validity region (utilisation < 0.9) the
analytic path must stay within the ``ANALYTIC`` tolerances of
:mod:`repro.netsim.fidelity` (docs/cohort-engine.md).  Every gallery
scenario — three MAC policies, mixed link technologies, duty-cycle
events, lossy links, batteries, a 50-leaf stress body — must sit inside
them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cohort import CohortSpec, evaluate_member, evaluate_members
from repro.cohort.aggregate import MemberMetrics
from repro.cohort.analytic import active_fractions
from repro.errors import ScenarioError
from repro.netsim.fidelity import ANALYTIC, Readout, compare
from repro.scenarios import all_scenarios, get_scenario


def simulate(spec):
    simulator = spec.build(seed=0)
    result = simulator.run(spec.duration_seconds)
    return MemberMetrics.from_simulation(0, spec, result)


@pytest.mark.parametrize("scenario", [spec.name for spec in all_scenarios()])
def test_analytic_agrees_with_des_on_gallery(scenario):
    spec = get_scenario(scenario)
    # A representative slice keeps the DES side fast; the steady state is
    # reached within seconds of simulated time for every gallery body.
    # Lossy scenarios get a longer slice: the envelope bounds are
    # unchanged, but the sampled erasure process needs a few hundred
    # packets per node before its observed rate settles near the
    # closed-form PER the analytic side uses.
    scale = 0.05 if spec.reliability is None else 0.2
    scaled = dataclasses.replace(
        spec, duration_seconds=spec.duration_seconds * scale)
    gaps = compare(Readout.of_member(evaluate_member(scaled)),
                   Readout.of_member(simulate(scaled)))
    assert set(gaps) == set(ANALYTIC)
    assert not gaps.beyond(ANALYTIC), gaps


class TestActiveFractions:
    def test_sleep_and_wake_windows_integrate(self):
        spec = get_scenario("sleep_night")  # IMU sleeps 10% -> 85%
        fractions = active_fractions(spec)
        assert fractions["imu_wrist"] == pytest.approx(0.25)
        assert fractions["ecg_patch"] == 1.0

    def test_sleep_only_event(self):
        spec = get_scenario("workout")  # audio wakes at 50%
        fractions = active_fractions(spec)
        assert fractions["audio_coach"] == pytest.approx(0.5)
        assert fractions["imu_limb0"] == 1.0


class TestBatchApi:
    def test_batch_matches_single_member_evaluation(self):
        cohort = CohortSpec(population=12, seed=5,
                            member_duration_seconds=20.0)
        members = [cohort.member(index) for index in range(12)]
        batch = evaluate_members([m.scenario for m in members],
                                 [m.index for m in members])
        for member, metrics in zip(members, batch):
            alone = evaluate_member(member.scenario, member.index)
            assert alone == metrics  # bit-identical, any batch layout

    def test_indices_must_match_batch(self):
        cohort = CohortSpec(population=3, seed=0)
        with pytest.raises(ScenarioError):
            evaluate_members([cohort.member(0).scenario], [0, 1])

    def test_empty_batch(self):
        assert evaluate_members([]) == []

    def test_saturated_member_signals_overload(self):
        # 80 leaves at 64 kb/s over one 4 Mb/s medium with per-packet
        # overhead is past saturation: the fast path must report a
        # delivered fraction clearly below one and utilisation at 1.
        from repro.scenarios.spec import ScenarioNodeSpec, ScenarioSpec

        spec = ScenarioSpec(
            name="saturated", description="overload shape",
            duration_seconds=10.0, arbitration="fifo",
            nodes=(ScenarioNodeSpec(name="leaf", rate_bps=64000.0,
                                    count=80),),
        )
        metrics = evaluate_member(spec)
        assert metrics.delivered_fraction < 0.9
        assert metrics.bus_utilization == pytest.approx(1.0)
        assert metrics.mean_latency_seconds > 0.01
