"""E3 benchmark — Fig. 3: projected battery life vs data rate with Wi-R."""

from __future__ import annotations

from conftest import emit

from repro import units
from repro.runner import resolve


def test_bench_fig3_battery_projection(benchmark):
    result = benchmark(resolve("fig3").execute)

    emit("Fig. 3 — battery life vs data rate (1000 mAh, 100 pJ/bit Wi-R): curve",
         result.curve_rows()[::6])
    emit("Fig. 3 — device-class placements",
         result.device_rows())

    # Shape checks (README.md E3): the three bands the paper annotates.
    assert result.bands_match_paper()
    # Perpetual region covers biopotential patches, rings, fitness trackers.
    assert result.perpetual_rate_limit_bps() >= units.kilobit_per_second(10.0)
    # Wi-R's advantage over the BLE counterfactual grows with data rate.
    assert result.wir_life_advantage_at(units.kilobit_per_second(300.0)) > \
        result.wir_life_advantage_at(units.kilobit_per_second(1.0))
