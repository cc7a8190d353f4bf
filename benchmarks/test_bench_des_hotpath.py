"""DES hot-path benchmark: the simulator kernel under sustained load.

``dense_50_leaf`` — the 1-hour, 50-leaf TDMA stress scenario (~175k
delivered packets) — times the discrete-event hot path.  It runs past
the latency accumulator's exact window, so this benchmark also asserts
the streaming/bounded memory contract: raw sample retention stays at
zero after the spill while count, mean and percentiles keep working.
"""

from __future__ import annotations

from conftest import emit

from repro.scenarios import get_scenario


def run_dense_hour():
    spec = get_scenario("dense_50_leaf")
    simulator = spec.build(seed=0)
    result = simulator.run(spec.duration_seconds)
    return simulator, result


def test_bench_dense_50_leaf_hour(benchmark):
    simulator, result = benchmark.pedantic(run_dense_hour, rounds=1,
                                           iterations=1)

    emit("DES hot path — dense_50_leaf, 1 simulated hour",
         [{"delivered": result.delivered_packets,
           "dropped": result.dropped_packets,
           "mean_latency_ms": result.mean_latency_seconds * 1e3,
           "p99_latency_ms": result.p99_latency_seconds * 1e3,
           "bus_utilization": result.bus_utilization}])

    # Throughput shape: ~50 leaves x ~1 pkt/s x 3600 s.
    assert result.delivered_packets > 100_000
    assert result.delivered_fraction > 0.95
    # Bounded-memory contract: the run spilled out of the exact window
    # and holds no raw samples, yet the statistics are still live.
    accumulator = simulator.bus.stats.latency
    assert not accumulator.is_exact
    assert accumulator.retained_samples == 0
    assert accumulator.count == result.delivered_packets
    assert 0.0 < result.mean_latency_seconds < result.p99_latency_seconds

