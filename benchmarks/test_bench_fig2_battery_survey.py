"""E2 benchmark — Fig. 2: battery life of current wearable devices."""

from __future__ import annotations

from conftest import emit

from repro.runner import resolve


def test_bench_fig2_battery_survey(benchmark):
    result = benchmark(resolve("fig2").execute)

    emit("Fig. 2 — battery life of commercial wearables (modelled vs claimed band)",
         result.rows,
         columns=["device", "category", "capacity_mah", "average_power_mw",
                  "life_hours", "life_days", "band", "claimed_band",
                  "matches_claim"])

    # Shape check (README.md E2): every surveyed device class lands in the
    # battery-life band the paper's figure claims for it.
    assert result.agreement_fraction == 1.0
    assert result.device_count >= 10
