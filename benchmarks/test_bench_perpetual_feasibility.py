"""E6 benchmark — perpetual operation under indoor energy harvesting."""

from __future__ import annotations

from conftest import emit

from repro import units
from repro.runner import resolve


def test_bench_perpetual_feasibility(benchmark):
    result = benchmark(resolve("perpetual").execute)

    emit("Perpetual-operation feasibility vs harvested power (10-200 uW indoor)",
         result.rows())

    # Shape checks (README.md E6): the classes the paper lists become
    # perpetual within the indoor harvesting range; video nodes do not.
    perpetual_at_100uw = " ".join(
        result.perpetual_classes(units.microwatt(100.0))
    ).lower()
    for keyword in ("biopotential", "ring", "fitness"):
        assert keyword in perpetual_at_100uw
    for level in result.harvest_levels_watts:
        assert not any("video" in name for name in result.perpetual_classes(level))

    # A realistic indoor harvester stack lands inside the paper's range.
    assert units.microwatt(10.0) <= result.reference_harvester_power_watts \
        <= units.microwatt(500.0)
