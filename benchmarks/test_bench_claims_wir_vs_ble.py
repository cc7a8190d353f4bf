"""E4 benchmark — the paper's quantitative Wi-R / BLE / RF claims table."""

from __future__ import annotations

from conftest import emit

from repro.runner import resolve


def test_bench_claims_wir_vs_ble(benchmark):
    result = benchmark(resolve("claims").execute)

    emit("Claims table — paper statement vs model measurement", result.rows())
    emit("Link technology comparison", result.technology_rows)
    emit("Physical security (leakage range)", result.security_rows)

    # Shape checks (README.md E4).
    assert result.all_hold
    assert result.check("Wi-R data rate vs BLE").measured_value >= 10.0
    assert result.check("BLE communication power vs Wi-R").measured_value >= 20.0
    assert result.check("RF radiation range").measured_value >= 5.0
    assert result.check("On-body channel length").measured_value <= 2.5
