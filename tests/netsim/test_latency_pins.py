"""Result pins for the latency statistics the exact kernel records.

Every case runs at a small exact window, so the accumulator spills into
its quantile sketch mid-run, and records several thousand deliveries
after the spill:

* ``dense_50_leaf`` for 150 s under each arbiter (~7.3k deliveries at
  a 512-sample window);
* a lossy three-leaf body with ARQ, whose erased attempts interleave
  with deliveries;
* one ``dense_50_leaf`` run split across three uneven ``_run_kernel``
  calls before ``run()``, so the samples reach the accumulator through
  four kernel entries;
* one ``sleep_night`` hour on the hybrid fast path, whose macro-tick
  leaps record latencies through ``add_batch`` between kernel entries.

Each case pins the sha256 of ``canonical_json`` of the accumulator's
``to_state()`` (count, extrema, running total and the sketch's levels,
down to float addition order) and the run's mean and p99 latency.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.netsim import (ARQPolicy, BodyNetworkSimulator, LinkReliability,
                          PeriodicSource)
from repro.netsim.config import NodeConfig
from repro.netsim.stats import LatencyAccumulator
from repro.runner.artifacts import canonical_json
from repro.scenarios import get_scenario

#: ``(state sha256, mean_latency_seconds, p99_latency_seconds)``.
LATENCY_PINS = {
    "dense/fifo": (
        "07cb1ec50a2b2428246f952c89038145c7a9e517db01ee4198406e7c510711b8",
        0.0547740000000701,
        0.10740000000026839),
    "dense/tdma": (
        "6c8d211562cf1ac80025c178228a600c4182b95be2fbb715e74b16956582154e",
        0.13507669863008717,
        0.3062479999999539),
    "dense/polling": (
        "dc99075d18fe1b6b7732604fbf4c93cda1018e25e3913fc41a51620106c59dc3",
        0.05773200000007994,
        0.11319999999983565),
    "lossy_arq": (
        "f42ebe2109622ca7c08bac5ccafb5c58b50b5ff665e7cac5a6aa2a993edfae6f",
        0.0013393443609009928,
        0.00330400000000175),
    "dense/chunked": (
        "2a005ac2864c74f9a81460df842e728d1896804123306df59268135145c9950e",
        0.1351463333333228,
        0.30624800000001073),
    "sleep_night/hybrid": (
        "a38a76c500a76057afbc056d31880d7743bdfd1401c585a0c62674c707ec82dd",
        0.0013366123197939908,
        0.0014732914943217143),
}

DENSE_SECONDS = 150.0
DENSE_WINDOW = 512
#: Uneven kernel horizons of the chunked case, before ``run()``.
CHUNK_ENDS = (17.3, 61.9, 104.2)


def dense(arbitration: str | None = None) -> BodyNetworkSimulator:
    spec = get_scenario("dense_50_leaf")
    if arbitration is not None:
        spec = dataclasses.replace(spec, arbitration=arbitration)
    return spec.build(seed=0, duration_seconds=DENSE_SECONDS,
                      latency_exact_capacity=DENSE_WINDOW)


def lossy_arq() -> BodyNetworkSimulator:
    reliability = LinkReliability(seed=3, arq=ARQPolicy(retry_limit=3))
    simulator = BodyNetworkSimulator(wir_commercial(), rng=7,
                                     reliability=reliability,
                                     latency_exact_capacity=256)
    for index in range(3):
        name = f"leaf{index}"
        simulator.attach(NodeConfig(
            name, PeriodicSource.from_rate(units.kilobit_per_second(64.0),
                                           bits_per_packet=1024.0),
            sensing_power_watts=units.microwatt(30.0)))
        reliability.set_error_rate(name, 0.3)
    return simulator


def run_case(case: str):
    if case.startswith("dense/"):
        arbitration = case.split("/")[1]
        if arbitration == "chunked":
            simulator = dense()
            for end in CHUNK_ENDS:
                simulator._run_kernel(end)
        else:
            simulator = dense(arbitration)
        return simulator, simulator.run(DENSE_SECONDS)
    if case == "lossy_arq":
        simulator = lossy_arq()
        result = simulator.run(25.0)
        assert result.erased_attempts > 0 and result.retransmissions > 0
        return simulator, result
    spec = get_scenario("sleep_night")
    simulator = spec.build(seed=0, latency_exact_capacity=64)
    return simulator, simulator.run(spec.duration_seconds,
                                    fast_path="hybrid")


@pytest.mark.parametrize("case", sorted(LATENCY_PINS))
def test_latency_statistics_pinned(case):
    simulator, result = run_case(case)
    latency = simulator.bus.stats.latency
    assert not latency.is_exact
    if case.startswith("dense/"):
        # Past the spill, a full 4096-sample batch and a remainder.
        assert result.delivered_packets > DENSE_WINDOW + 1 + 4096
    assert latency.count == result.delivered_packets
    state = canonical_json(latency.to_state()).encode("utf-8")
    observed = (hashlib.sha256(state).hexdigest(),
                result.mean_latency_seconds, result.p99_latency_seconds)
    assert observed == LATENCY_PINS[case]


def test_hybrid_case_leaps_between_kernel_entries(monkeypatch):
    """The hybrid case records latencies through both paths, alternating:
    its leaps' ``add_batch`` calls fall between kernel entries."""
    calls = []
    kernel = BodyNetworkSimulator._run_kernel
    add_batch = LatencyAccumulator.add_batch
    monkeypatch.setattr(
        BodyNetworkSimulator, "_run_kernel",
        lambda self, end: calls.append("kernel") or kernel(self, end))
    monkeypatch.setattr(
        LatencyAccumulator, "add_batch",
        lambda self, values, counts: (calls.append("leap")
                                      or add_batch(self, values, counts)))
    run_case("sleep_night/hybrid")
    assert "kernel" in calls[calls.index("leap"):]
    assert calls.count("leap") >= 2
