"""Hybrid macro-tick fast path vs the exact batched kernel.

The hybrid kernel (``fast_path="hybrid"``) must agree with the exact
event loop within the ``HYBRID`` tolerances of
:mod:`repro.netsim.fidelity` (docs/netsim-architecture.md), on every
quantity a run reports.  On workloads the macro-tick engine statically
refuses (Poisson sources, controllers ticking faster than a leap) and
on runs too short for any leap, the hybrid driver degenerates to a
single exact kernel call and must be *bit-identical*, not just close.
"""

from __future__ import annotations

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ControllerSpec
from repro.errors import SimulationError
from repro.experiments import lifetime
from repro.netsim import macrotick
from repro.netsim.fidelity import HYBRID, Readout, compare
from repro.scenarios import (BodyPlacement, EnvironmentSpec, all_scenarios,
                             get_environment, get_scenario)


def run_result(spec, fast_path, seed=0):
    return spec.build(seed=seed).run(spec.duration_seconds,
                                     fast_path=fast_path)


def assert_within_envelope(hybrid, exact):
    gaps = compare(Readout.of_result(hybrid), Readout.of_result(exact))
    assert set(gaps) == set(HYBRID)
    assert not gaps.beyond(HYBRID), gaps


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
    exact = run_result(scaled, None)
    hybrid = run_result(scaled, "hybrid")
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
        assert_within_envelope(results["hybrid"], results["exact"])

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
        assert_within_envelope(run_result(scaled, "hybrid", seed),
                               run_result(scaled, None, seed))


#: Wall-clock floors the hybrid fast path must earn (see ROADMAP.md):
#: a long, quiescent overnight body is its home turf, while battery
#: endgames force exact chunks through the E15 sweep.
SLEEP_NIGHT_MIN_SPEEDUP = 25.0
LIFETIME_MIN_SPEEDUP = 10.0

#: 8 simulated hours of the overnight scenario.
SLEEP_NIGHT_SECONDS = 8.0 * 3600.0


def best_of_three(run):
    """The fastest ``perf_counter`` time of three calls, and the first
    call's result.

    Best-of: the floor asserts the kernel's capability, and a single
    run is at the mercy of whatever GC pause or cache eviction the
    preceding test left behind.
    """
    seconds, results = [], []
    for _ in range(3):
        started = time.perf_counter()
        results.append(run())
        seconds.append(time.perf_counter() - started)
    return min(seconds), results[0]


#: Shortest span one timing sample of :func:`seconds_per_call` covers,
#: well above scheduler noise on a shared host.
MIN_SAMPLE_SECONDS = 0.05


def seconds_per_call(run) -> float:
    """Wall seconds per call of *run*, timed over as many back-to-back
    calls as fill :data:`MIN_SAMPLE_SECONDS`, so a run of a few
    milliseconds is not timed at the scheduler's resolution."""
    calls = 0
    started = time.perf_counter()
    while True:
        run()
        calls += 1
        elapsed = time.perf_counter() - started
        if elapsed >= MIN_SAMPLE_SECONDS:
            return elapsed / calls


class TestSpeedupFloors:
    """Both sides of each ratio run in this process."""

    def test_sleep_night_8h_floor_and_envelope(self):
        def run(fast_path=None):
            return get_scenario("sleep_night").build(seed=0).run(
                SLEEP_NIGHT_SECONDS, fast_path=fast_path)

        hybrid_seconds, hybrid = best_of_three(lambda: run("hybrid"))
        exact_seconds, exact = best_of_three(run)
        speedup = exact_seconds / hybrid_seconds
        assert speedup >= SLEEP_NIGHT_MIN_SPEEDUP, (
            f"hybrid sleep_night speedup {speedup:.1f}x below the "
            f"{SLEEP_NIGHT_MIN_SPEEDUP:.0f}x floor")
        # The hybrid tolerances, on the same pair of runs the speedup
        # was measured on.
        assert_within_envelope(hybrid, exact)

    def test_lifetime_sweep_floor(self):
        """The hybrid sweep takes a few milliseconds, so each sample
        times enough sweeps to fill :data:`MIN_SAMPLE_SECONDS`. Exact
        and hybrid samples alternate, and each adjacent pair gives one
        ratio, so a slow spell on a shared host slows both sides of the
        ratio it lands in; the floor holds the median of five."""
        def run_hybrid():
            return lifetime.run(fast_path="hybrid")

        hybrid, exact = run_hybrid(), lifetime.run()
        ratios = sorted(
            seconds_per_call(lifetime.run) / seconds_per_call(run_hybrid)
            for _ in range(5))
        speedup = ratios[len(ratios) // 2]
        assert speedup >= LIFETIME_MIN_SPEEDUP, (
            f"hybrid lifetime speedup {speedup:.1f}x below the "
            f"{LIFETIME_MIN_SPEEDUP:.0f}x floor")
        # Every DES brownout, hybrid kernel included, agrees with the
        # closed-form projection.
        assert hybrid.all_within_tolerance()
        assert exact.all_within_tolerance()
        # The hybrid sweep covers the same operating points.
        for exact_point, hybrid_point in zip(exact.points, hybrid.points):
            assert dataclasses.replace(
                exact_point, des_first_death_seconds=0.0,
                final_state_of_charge=0.0, delivered_before_death=0,
            ) == dataclasses.replace(
                hybrid_point, des_first_death_seconds=0.0,
                final_state_of_charge=0.0, delivered_before_death=0)
