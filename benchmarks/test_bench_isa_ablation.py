"""E7 benchmark (ablation) — in-sensor analytics vs link technology."""

from __future__ import annotations

from conftest import emit

from repro.runner import resolve


def test_bench_isa_ablation(benchmark):
    result = benchmark(resolve("isa").execute)

    emit("ISA ablation — {Wi-R, BLE} x {raw, ISA-reduced} per node class",
         result.rows())

    wir_name = "Wi-R (EQS-HBC)"
    ble_name = "BLE 1M PHY"
    # Shape checks (README.md E7): over Wi-R, compression is marginal (which
    # is why the paper can neglect ISA power); over BLE it is a 2x+ lever,
    # and raw video does not fit on BLE at all.
    for node in ("ECG patch", "audio AI node"):
        assert result.isa_life_gain(node, wir_name) < 1.2
        assert result.isa_life_gain(node, ble_name) > 2.0
    assert not result.cell("video node (QVGA)", ble_name, False).link_feasible
    assert result.cell("video node (QVGA)", wir_name, True).link_feasible
