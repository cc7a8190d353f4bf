"""E1 benchmark — Fig. 1: active-power breakdown of IoB node architectures."""

from __future__ import annotations

from conftest import emit

from repro.runner import resolve


def test_bench_fig1_power_breakdown(benchmark):
    result = benchmark(resolve("fig1").execute)

    emit("Fig. 1 — active power per component (uW), today's vs human-inspired",
         result.rows())

    reductions = result.reduction_factors()
    # Shape checks (README.md E1): microwatt-class sensing nodes gain >= 50x;
    # the camera node is sensor-dominated and gains only modestly.
    assert reductions["ECG patch"] >= 50.0
    assert reductions["audio AI pin"] >= 50.0
    assert reductions["camera glasses"] > 1.0

    ecg = result.comparisons["ECG patch"]
    assert ecg.conventional.dominant_component().name == "radio"
    assert ecg.human_inspired.total_watts() < 1e-3
