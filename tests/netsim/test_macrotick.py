"""Hybrid macro-tick fast path vs the exact batched kernel.

The hybrid kernel (``fast_path="hybrid"``) must agree with the exact
event loop within the same tolerance envelope the analytic cohort path
documents (docs/netsim-architecture.md): leaf and hub power within 5%,
delivered fraction within 0.05, mean latency within a factor of 2.5,
p99 within a factor of 3, bus utilisation within 0.02 absolute.  On
workloads the macro-tick engine statically refuses (Poisson sources,
controllers ticking faster than a leap) and on runs too short for any
leap, the hybrid driver degenerates to a single exact kernel call and
must be *bit-identical*, not just close.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort import analytic
from repro.cohort.aggregate import MemberMetrics
from repro.control import ControllerSpec
from repro.errors import SimulationError
from repro.netsim import macrotick
from repro.scenarios import (BodyPlacement, EnvironmentSpec, all_scenarios,
                             get_environment, get_scenario)


def run_metrics(spec, fast_path):
    simulator = spec.build(seed=0)
    result = simulator.run(spec.duration_seconds, fast_path=fast_path)
    return MemberMetrics.from_simulation(0, spec, result)


def assert_within_envelope(hybrid, exact):
    assert hybrid.leaf_power_watts == pytest.approx(
        exact.leaf_power_watts, rel=macrotick.POWER_REL_TOL)
    assert hybrid.hub_power_watts == pytest.approx(
        exact.hub_power_watts, rel=macrotick.POWER_REL_TOL)
    assert abs(hybrid.delivered_fraction
               - exact.delivered_fraction) < macrotick.DELIVERED_ABS_TOL
    ratio = hybrid.mean_latency_seconds / exact.mean_latency_seconds
    assert 1.0 / macrotick.MEAN_LATENCY_FACTOR < ratio \
        < macrotick.MEAN_LATENCY_FACTOR
    p99_ratio = hybrid.p99_latency_seconds / exact.p99_latency_seconds
    assert 1.0 / macrotick.P99_LATENCY_FACTOR < p99_ratio \
        < macrotick.P99_LATENCY_FACTOR
    assert abs(hybrid.bus_utilization
               - exact.bus_utilization) < macrotick.UTILIZATION_ABS_TOL


@pytest.mark.parametrize("scenario", [spec.name for spec in all_scenarios()])
def test_hybrid_within_envelope_on_gallery(scenario):
    spec = get_scenario(scenario)
    # Representative slices as in the analytic-vs-DES test, but the
    # lossy slice is longer: here *both* sides sample an erasure
    # stream (the analytic test compares one sample to an expectation),
    # so the variance of the comparison doubles and a few hundred
    # packets per node are not yet enough for a 5% power bound.
    scale = 0.05 if spec.reliability is None else 0.5
    scaled = dataclasses.replace(
        spec, duration_seconds=spec.duration_seconds * scale)
    exact = run_metrics(scaled, None)
    hybrid = run_metrics(scaled, "hybrid")
    assert_within_envelope(hybrid, exact)


class TestBitIdenticalFallbacks:
    @pytest.mark.parametrize("scenario",
                             ["implant_mix", "legacy_ble_island"])
    def test_poisson_workloads_run_exact(self, scenario):
        """Poisson sources make the engine statically ineligible: the
        hybrid driver must degrade to one exact kernel call."""
        spec = get_scenario(scenario)
        scaled = dataclasses.replace(
            spec, duration_seconds=spec.duration_seconds * 0.05)
        exact = scaled.build(seed=3).run(scaled.duration_seconds)
        hybrid = scaled.build(seed=3).run(scaled.duration_seconds,
                                          fast_path="hybrid")
        assert hybrid.to_dict() == exact.to_dict()

    def test_short_run_is_bit_identical(self):
        """A run shorter than the minimum leap makes exactly one exact
        kernel call — indistinguishable from fast_path off."""
        spec = get_scenario("sleep_night")
        exact = spec.build(seed=0).run(5.0)
        hybrid = spec.build(seed=0).run(5.0, fast_path="hybrid")
        assert hybrid.to_dict() == exact.to_dict()

    def test_short_cadence_controllers_run_exact(self):
        """A controller ticking faster than ``min_leap_seconds`` caps
        every leap horizon, so the hybrid driver must make one exact
        kernel call instead of chunking (which would re-draw each
        node's generation phase at every chunk boundary)."""
        environment = get_environment("commuter_train")
        exact = environment.build(seed=2, duration_seconds=120.0).run(
            fast_path="exact")
        hybrid = environment.build(seed=2, duration_seconds=120.0).run(
            fast_path="hybrid")
        assert [body.to_dict() for body in hybrid.body_results] \
            == [body.to_dict() for body in exact.body_results]

    def test_controller_cadence_sets_eligibility(self):
        """Only a cadence shorter than the minimum leap makes a
        controller-bearing body statically ineligible; a body with a
        slow controller stays eligible and inside the envelope."""
        spec = get_scenario("commute_walk")

        def solo(cadence):
            return EnvironmentSpec(
                name="solo_commute",
                description="one controlled commute body",
                bodies=(BodyPlacement(
                    scenario=spec,
                    controller=ControllerSpec(kind="per_backoff",
                                              cadence_seconds=cadence)),),
            )

        fast = solo(5.0).build(seed=0).bodies[0].simulator
        engine = macrotick.MacroTickEngine(fast)
        assert 5.0 < engine.min_leap_seconds < 60.0
        assert not engine.eligible
        slow = solo(60.0).build(seed=0).bodies[0].simulator
        assert macrotick.MacroTickEngine(slow).eligible

        results = {
            fast_path: solo(60.0).run(seed=0, fast_path=fast_path)
            .simulated.body_results[0]
            for fast_path in ("exact", "hybrid")}
        assert_within_envelope(
            MemberMetrics.from_simulation(0, spec, results["hybrid"]),
            MemberMetrics.from_simulation(0, spec, results["exact"]))

    def test_exact_alias_matches_default(self):
        spec = get_scenario("workout")
        default = spec.build(seed=1).run(30.0)
        exact = spec.build(seed=1).run(30.0, fast_path="exact")
        assert exact.to_dict() == default.to_dict()

    def test_unknown_fast_path_rejected(self):
        spec = get_scenario("workout")
        simulator = spec.build(seed=0)
        with pytest.raises(SimulationError):
            simulator.run(30.0, fast_path="warp")


def test_validity_region_pinned_to_analytic_path():
    """The leap refuses outside the same utilisation region the analytic
    cohort path documents; the two constants must not drift apart."""
    assert macrotick.VALIDITY_UTILIZATION == analytic.VALIDITY_UTILIZATION


class TestHybridEnvelopeProperty:
    """Randomized hybrid-vs-exact agreement on event-bearing scenarios.

    Each draw picks a duty-cycled gallery body (two or more scheduled
    activation edges, so every run crosses at least two segment
    boundaries), a seed and a duration scale; the hybrid run must stay
    inside the documented envelope of the exact run.
    """

    @settings(max_examples=8, deadline=None)
    @given(scenario=st.sampled_from(["sleep_night", "workout"]),
           seed=st.integers(min_value=0, max_value=7),
           scale=st.floats(min_value=0.03, max_value=0.1))
    def test_hybrid_tracks_exact(self, scenario, seed, scale):
        # Lossless bodies only: at these short slices a lossy pair of
        # runs compares two independent erasure streams, whose variance
        # exceeds the power envelope (the gallery-wide test covers the
        # lossy scenarios at a long enough slice).
        spec = get_scenario(scenario)
        scaled = dataclasses.replace(
            spec, duration_seconds=spec.duration_seconds * scale)
        exact_sim = scaled.build(seed=seed)
        exact = MemberMetrics.from_simulation(
            0, scaled, exact_sim.run(scaled.duration_seconds))
        hybrid_sim = scaled.build(seed=seed)
        hybrid = MemberMetrics.from_simulation(
            0, scaled, hybrid_sim.run(scaled.duration_seconds,
                                      fast_path="hybrid"))
        assert_within_envelope(hybrid, exact)
