"""E8 benchmark (ablation) — how many leaf nodes one Wi-R hub supports."""

from __future__ import annotations

from conftest import emit

from repro.runner import resolve


def run_scaling():
    return resolve("scaling").execute(node_counts=(1, 2, 4, 8, 16, 32),
                                      simulated_seconds=1.0)


def test_bench_network_scaling(benchmark):
    result = benchmark(run_scaling)

    emit("Body-bus scaling — 64 kb/s leaves sharing one Wi-R hub",
         result.rows())

    # Shape checks (README.md E8): tens of audio-feature-class leaves fit;
    # utilisation and latency grow monotonically with the population.
    assert result.max_feasible_nodes() >= 16
    utilizations = [point.tdma_utilization for point in result.points]
    assert utilizations == sorted(utilizations)
    for point in result.points:
        if point.tdma_feasible and point.simulated is not None:
            assert point.delivered_fraction > 0.95
