"""Macro-tick hybrid kernel: speedup floors and agreement envelope.

The hybrid fast path must earn its complexity: a >=25x wall-clock
improvement on the 8-hour sleep_night body (a long, quiescent overnight
run — the macro-tick engine's home turf) and >=10x on the E15 closed-
loop lifetime sweep (battery endgames force exact chunks, so the floor
is lower).  Both floors are asserted against an exact-kernel run timed
in the same process, alongside the documented agreement envelope —
a fast-but-wrong kernel must fail here, not in a notebook.

Both sides of each ratio are timed with ``time.perf_counter``, best of
three runs.  pytest-benchmark still records the hybrid rounds when it
is enabled, but under ``--benchmark-disable`` it calls the target once
and keeps no statistics, so the floors never read them.
"""

from __future__ import annotations

import dataclasses
import time

from conftest import emit

from repro.experiments import lifetime
from repro.netsim import macrotick
from repro.scenarios import get_scenario

#: Wall-clock floors the tentpole promises (see ROADMAP.md).
SLEEP_NIGHT_MIN_SPEEDUP = 25.0
LIFETIME_MIN_SPEEDUP = 10.0

#: 8 simulated hours of the overnight scenario.
SLEEP_NIGHT_SECONDS = 8.0 * 3600.0


def timed(function, seconds: list[float]):
    """Wrap *function* so that every call appends its wall time."""
    def run():
        started = time.perf_counter()
        result = function()
        seconds.append(time.perf_counter() - started)
        return result
    return run


def best_of_three(run, seconds: list[float]) -> float:
    """Call *run* until three timings exist; the fastest of them.

    Best-of: the floor asserts the kernel's capability, and a single
    measured run is at the mercy of whatever GC pause or cache eviction
    the preceding test left behind.
    """
    while len(seconds) < 3:
        run()
    return min(seconds)


def run_sleep_night_hybrid():
    spec = get_scenario("sleep_night")
    simulator = spec.build(seed=0)
    return simulator.run(SLEEP_NIGHT_SECONDS, fast_path="hybrid")


def run_sleep_night_exact():
    return get_scenario("sleep_night").build(seed=0).run(SLEEP_NIGHT_SECONDS)


def test_bench_hybrid_sleep_night_8h(benchmark):
    hybrid_times: list[float] = []
    run_hybrid = timed(run_sleep_night_hybrid, hybrid_times)
    hybrid = benchmark.pedantic(run_hybrid, rounds=3, iterations=1,
                                warmup_rounds=1)
    hybrid_seconds = best_of_three(run_hybrid, hybrid_times)

    exact_times: list[float] = []
    run_exact = timed(run_sleep_night_exact, exact_times)
    exact = run_exact()
    exact_seconds = best_of_three(run_exact, exact_times)
    speedup = exact_seconds / hybrid_seconds

    emit("macro-tick hybrid — sleep_night, 8 simulated hours",
         [{"path": "exact", "wall_s": exact_seconds,
           "delivered": exact.delivered_packets,
           "mean_latency_ms": exact.mean_latency_seconds * 1e3,
           "leaf_power_uw": exact.total_leaf_power_watts * 1e6},
          {"path": "hybrid", "wall_s": hybrid_seconds,
           "delivered": hybrid.delivered_packets,
           "mean_latency_ms": hybrid.mean_latency_seconds * 1e3,
           "leaf_power_uw": hybrid.total_leaf_power_watts * 1e6}])

    assert speedup >= SLEEP_NIGHT_MIN_SPEEDUP, (
        f"hybrid sleep_night speedup {speedup:.1f}x below the "
        f"{SLEEP_NIGHT_MIN_SPEEDUP:.0f}x floor")
    # The documented agreement envelope, asserted on the same pair of
    # runs the speedup was measured on.
    assert abs(hybrid.total_leaf_power_watts - exact.total_leaf_power_watts) \
        <= macrotick.POWER_REL_TOL * exact.total_leaf_power_watts
    assert abs(hybrid.hub_average_power_watts
               - exact.hub_average_power_watts) \
        <= macrotick.POWER_REL_TOL * exact.hub_average_power_watts
    assert abs(hybrid.delivered_fraction - exact.delivered_fraction) \
        <= macrotick.DELIVERED_ABS_TOL
    ratio = hybrid.mean_latency_seconds / exact.mean_latency_seconds
    assert 1.0 / macrotick.MEAN_LATENCY_FACTOR < ratio \
        < macrotick.MEAN_LATENCY_FACTOR
    p99 = hybrid.p99_latency_seconds / exact.p99_latency_seconds
    assert 1.0 / macrotick.P99_LATENCY_FACTOR < p99 \
        < macrotick.P99_LATENCY_FACTOR


def run_lifetime_hybrid():
    return lifetime.run(fast_path="hybrid")


def test_bench_hybrid_lifetime_sweep(benchmark):
    hybrid_times: list[float] = []
    run_hybrid = timed(run_lifetime_hybrid, hybrid_times)
    hybrid = benchmark.pedantic(run_hybrid, rounds=3, iterations=1,
                                warmup_rounds=1)
    hybrid_seconds = best_of_three(run_hybrid, hybrid_times)

    exact_times: list[float] = []
    run_exact = timed(lifetime.run, exact_times)
    exact = run_exact()
    exact_seconds = best_of_three(run_exact, exact_times)
    speedup = exact_seconds / hybrid_seconds

    emit("macro-tick hybrid — E15 closed-loop lifetime sweep",
         [{"path": "exact", "wall_s": exact_seconds,
           "max_rel_error": exact.max_rel_error()},
          {"path": "hybrid", "wall_s": hybrid_seconds,
           "max_rel_error": hybrid.max_rel_error()}])

    assert speedup >= LIFETIME_MIN_SPEEDUP, (
        f"hybrid lifetime speedup {speedup:.1f}x below the "
        f"{LIFETIME_MIN_SPEEDUP:.0f}x floor")
    # The sweep's own acceptance: every DES brownout (hybrid kernel
    # included) agrees with the closed-form projection.
    assert hybrid.all_within_tolerance()
    assert exact.all_within_tolerance()
    # The hybrid sweep covers the same operating points, point for point.
    for exact_point, hybrid_point in zip(exact.points, hybrid.points):
        assert dataclasses.replace(
            exact_point, des_first_death_seconds=0.0,
            final_state_of_charge=0.0, delivered_before_death=0,
        ) == dataclasses.replace(
            hybrid_point, des_first_death_seconds=0.0,
            final_state_of_charge=0.0, delivered_before_death=0)
