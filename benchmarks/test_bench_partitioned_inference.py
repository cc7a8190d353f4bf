"""E5 benchmark — partitioned DNN inference across the leaf-hub link."""

from __future__ import annotations

from conftest import emit

from repro import units
from repro.runner import resolve


def test_bench_partitioned_inference(benchmark):
    result = benchmark(resolve("partition").execute)

    emit("Partitioned inference — optimal split per workload and link",
         result.rows())

    wir_name = "Wi-R (EQS-HBC)"
    ble_name = "BLE 1M PHY"
    for workload in ("keyword_spotting", "ecg_arrhythmia", "vision_tiny"):
        over_wir = result.for_workload(workload, wir_name)
        over_ble = result.for_workload(workload, ble_name)
        # Shape checks (README.md E5): Wi-R pushes the optimum toward the hub
        # and cuts the leaf's energy; BLE pushes compute back onto the leaf.
        assert over_wir.offload_fraction >= over_ble.offload_fraction
        assert over_wir.best_leaf_energy_joules < over_ble.best_leaf_energy_joules
        assert over_wir.leaf_energy_reduction >= 50.0

    # Always-on audio/biopotential leaves stay in the microwatt class over Wi-R.
    for workload in ("keyword_spotting", "ecg_arrhythmia"):
        over_wir = result.for_workload(workload, wir_name)
        assert over_wir.leaf_average_power_watts < units.microwatt(100.0)
