"""Result pins for the energy books the exact kernel keeps.

Each case pins, as sha256 digests of ``canonical_json``, every leaf's
books, the hub's books and ``result.to_dict()``.  A ledger's books are
its ``breakdown()``, ``total_energy()`` and ``posted_count``, down to
float addition order.  The cases
re-enter the kernel with ledgers that already hold posts:

* ``dense_50_leaf`` for 150 s, split across three uneven
  ``_run_kernel`` calls before ``run()``, under each arbiter;
* the lossy three-leaf ARQ body of ``test_latency_pins``, split the
  same way;
* a lossy ARQ body of four leaves that mixes batteryless and battery
  nodes, run once and split: one battery leaf crosses its low-battery
  fraction and the other browns out mid-run;
* one ``sleep_night`` and one ``commute_walk`` hour on the hybrid fast
  path, whose macro-tick leaps post between kernel entries.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.energy.battery import BatterySpec
from repro.netsim import (ARQPolicy, BodyNetworkSimulator, LinkReliability,
                          PeriodicSource)
from repro.netsim.config import NodeConfig
from repro.runner.artifacts import canonical_json
from repro.scenarios import get_scenario

from test_latency_pins import lossy_arq

#: ``(leaf books sha256, hub books sha256, result sha256)``.
LEDGER_PINS = {
    "dense/fifo/chunked": (
        "f63f13d925e0fcbbc82550abe83176a7d01fe2dd4085dc66682a8a08192c8d8a",
        "7dc60431e67baf1a1c13920e55585145ecd4c81e977f9cdf18f8f089022a2cb6",
        "3e17d0c1b8ff8a2727ae2844956d36f31cca6a12b79ec1ea66bd089d507d2ea3"),
    "dense/tdma/chunked": (
        "f63f13d925e0fcbbc82550abe83176a7d01fe2dd4085dc66682a8a08192c8d8a",
        "7dc60431e67baf1a1c13920e55585145ecd4c81e977f9cdf18f8f089022a2cb6",
        "e8d9c3379e07d5502792b50e1a41f284c091e0ba24cc76ad501dbe6c33bdbb83"),
    "dense/polling/chunked": (
        "f63f13d925e0fcbbc82550abe83176a7d01fe2dd4085dc66682a8a08192c8d8a",
        "7dc60431e67baf1a1c13920e55585145ecd4c81e977f9cdf18f8f089022a2cb6",
        "51dbb50622471b89a9dda70bd90d36678f1879ddb24af6f5c384fa44df6a87df"),
    "lossy_arq/chunked": (
        "3bdadcc130345124b0286c0ff40b3cc1ecaf21f76c0b06659ceb16acb48f4dae",
        "8e654c86515126bce443f5f6bb1a5700b5bd2b28b2e3769a579d07a0123e1a81",
        "be92f89ae9ccb58fb0392c4d2746598e7cf4daa355cd2b36e4e340ec8dbe6b7c"),
    "mixed/single": (
        "d6ad62b8638f0a4e0e2d07d41e3d89d20c3d4edf661f49560ccb9744496667d9",
        "7e1561a2ec9a2d77ee357f105f680b93e94663fe718e6625cc81569fa5b21e51",
        "c2445ca2822cbae0f2d6ea00ca48de11f4d1f166af8e8e82c16142821d681956"),
    "mixed/chunked": (
        "31bec949e4a97dfab20a2376b66c074fa9c1ef28f79637dd703d7fae0e996609",
        "abebf17afcc8f8d1fd1861ee676e6b92341572bd470d6d2777c9d13fb1358c67",
        "c6918f63493ea8e523a15598c034bbc21fcc9a55c67ed52990cc96ad5c30fc18"),
    "sleep_night/hybrid": (
        "9ab86819a63d383cf77df4cfbeb0eb4c855e6c64dc6abaca42d5b25dbf867595",
        "68c1de2c44b3b19293d8cb6ed44fa1356153a8d3aceeeb972eac78809a38d1ad",
        "8a9ba0bab40562c8033c04ec358e2170a6fcf50a904e3b41c782234b7e55b68c"),
    "commute_walk/hybrid": (
        "c55d414844ffe0afd77b473799bef97be5c2491c9146c9442d3088d7dcc384ff",
        "98d08e301c27cd69e821ba6fc67e7e0beef903555daaf8b83228ef44619475f0",
        "764e984315c3bef81e4cb32f3a81c2bbf5b53320f2439f33f29282bb083906bb"),
}

DENSE_SECONDS = 150.0
#: Uneven kernel horizons of the split dense cases, before ``run()``.
DENSE_ENDS = (17.3, 61.9, 104.2)
LOSSY_SECONDS = 25.0
LOSSY_ENDS = (3.7, 11.2, 19.9)
MIXED_SECONDS = 40.0
MIXED_ENDS = (6.1, 17.45, 29.8)
HYBRID_SECONDS = 3600.0


def cell(joules: float) -> BatterySpec:
    """A cell holding exactly *joules* (3 V lithium, no self-discharge)."""
    return BatterySpec(name="pin-cell", capacity_mah=joules / (3.6 * 3.0),
                       self_discharge_per_year=0.0)


def mixed_lossy() -> BodyNetworkSimulator:
    """Two batteryless and two battery leaves on one lossy ARQ medium."""
    reliability = LinkReliability(seed=9, arq=ARQPolicy(retry_limit=3))
    simulator = BodyNetworkSimulator(wir_commercial(), rng=5,
                                     reliability=reliability,
                                     energy_update_interval_seconds=0.5)
    rate = units.kilobit_per_second(64.0)
    for name in ("ecg", "imu"):
        simulator.attach(NodeConfig(
            name, PeriodicSource.from_rate(rate, bits_per_packet=1024.0),
            sensing_power_watts=units.microwatt(30.0)))
    # Starts just above its low-battery fraction and crosses it.
    simulator.attach(NodeConfig(
        "watch", PeriodicSource.from_rate(rate, bits_per_packet=2048.0),
        sensing_power_watts=units.microwatt(10.0),
        battery=cell(2e-3), initial_charge_fraction=0.52,
        low_battery_fraction=0.5))
    # Browns out part-way through the run.
    simulator.attach(NodeConfig(
        "pendant", PeriodicSource.from_rate(rate, bits_per_packet=1024.0),
        sensing_power_watts=units.microwatt(20.0), battery=cell(4e-4)))
    for name in simulator.nodes:
        reliability.set_error_rate(name, 0.25)
    return simulator


def dense(arbitration: str) -> BodyNetworkSimulator:
    spec = dataclasses.replace(get_scenario("dense_50_leaf"),
                               arbitration=arbitration)
    return spec.build(seed=0, duration_seconds=DENSE_SECONDS)


def run_split(simulator: BodyNetworkSimulator, ends, seconds: float):
    for end in ends:
        simulator._run_kernel(end)
    return simulator.run(seconds)


def run_case(case: str):
    kind, variant = case.rsplit("/", 1)
    if kind.startswith("dense/"):
        simulator = dense(kind.split("/")[1])
        return simulator, run_split(simulator, DENSE_ENDS, DENSE_SECONDS)
    if kind == "lossy_arq":
        simulator = lossy_arq()
        return simulator, run_split(simulator, LOSSY_ENDS, LOSSY_SECONDS)
    if kind == "mixed":
        simulator = mixed_lossy()
        ends = MIXED_ENDS if variant == "chunked" else ()
        return simulator, run_split(simulator, ends, MIXED_SECONDS)
    simulator = get_scenario(kind).build(seed=0)
    return simulator, simulator.run(HYBRID_SECONDS, fast_path="hybrid")


def books(ledger) -> dict:
    return {"breakdown": ledger.breakdown(),
            "total_energy": ledger.total_energy(),
            "posted_count": ledger.posted_count}


def digest(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def observe(case: str) -> tuple[str, str, str]:
    simulator, result = run_case(case)
    leaves = {name: books(node.ledger)
              for name, node in simulator.nodes.items()}
    return (digest(leaves), digest(books(simulator.hub_ledger)),
            digest(result.to_dict()))


@pytest.mark.parametrize("case", sorted(LEDGER_PINS))
def test_ledger_books_pinned(case):
    assert observe(case) == LEDGER_PINS[case]


def test_mixed_body_exercises_every_energy_path():
    """The mixed body erases attempts, throttles one cell and browns out
    the other mid-run, split or not."""
    for variant in ("single", "chunked"):
        simulator, result = run_case(f"mixed/{variant}")
        assert result.erased_attempts > 0 and result.retransmissions > 0
        kinds = {(event.kind, event.node) for event in result.energy_events}
        assert ("low_battery", "watch") in kinds
        assert ("brownout", "pendant") in kinds
        death = result.per_node_first_death_seconds["pendant"]
        assert 0.0 < death < MIXED_SECONDS
        assert "watch" not in result.per_node_first_death_seconds
