"""Result pins for the energy books the exact kernel keeps.

Each case pins, as sha256 digests of ``canonical_json``, every leaf's
books, the hub's books and ``result.to_dict()``.  A ledger's books are
its ``breakdown()``, ``total_energy()``, ``posted_count`` and
``trace_energy_joules()``, down to float addition order.  The cases
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
        "916b1c56e2a4a0206607fb7e6ce3784d5f0651b884956f6aadf6839400ec5cff",
        "cc137fdb7d2efedb6243f056cd99eb3d7778e474a8bc18d7a7c959d987e80b44",
        "3e17d0c1b8ff8a2727ae2844956d36f31cca6a12b79ec1ea66bd089d507d2ea3"),
    "dense/tdma/chunked": (
        "916b1c56e2a4a0206607fb7e6ce3784d5f0651b884956f6aadf6839400ec5cff",
        "cc137fdb7d2efedb6243f056cd99eb3d7778e474a8bc18d7a7c959d987e80b44",
        "e8d9c3379e07d5502792b50e1a41f284c091e0ba24cc76ad501dbe6c33bdbb83"),
    "dense/polling/chunked": (
        "916b1c56e2a4a0206607fb7e6ce3784d5f0651b884956f6aadf6839400ec5cff",
        "cc137fdb7d2efedb6243f056cd99eb3d7778e474a8bc18d7a7c959d987e80b44",
        "51dbb50622471b89a9dda70bd90d36678f1879ddb24af6f5c384fa44df6a87df"),
    "lossy_arq/chunked": (
        "2fe770cb281274dec563fc2f9bce9fb35c1c77c37853175da678df115860be21",
        "407316610f12ebfc3d12cabf9b53afe41274dd25fb0da2fb8ca19d8614ce04ee",
        "be92f89ae9ccb58fb0392c4d2746598e7cf4daa355cd2b36e4e340ec8dbe6b7c"),
    "mixed/single": (
        "8e0e406ef60afc9cd0e146d8f50c020b29c4b40fff60fee75ab03ec243b01d67",
        "3b7964906da63ef3706d3ade6969cd75fbaeed8b78e68ef06407a78656707f4e",
        "c2445ca2822cbae0f2d6ea00ca48de11f4d1f166af8e8e82c16142821d681956"),
    "mixed/chunked": (
        "fa4323d6a3dc34803c8182cc2f8a250e641216f025be0ce9432beeae25709a84",
        "0414362b30774774da0fc5d69780d6a226c0b91c72d88d7c6307f05bfa986f2e",
        "c6918f63493ea8e523a15598c034bbc21fcc9a55c67ed52990cc96ad5c30fc18"),
    "sleep_night/hybrid": (
        "3f26cc8847ecaf4fd71f7ec4839158c6a5c0c354cb3b0a77ff7d7c7d832a9be2",
        "9d8dae5e0c331c61cecee130cd3f6297df818b01c266d8bf3b72587bf606347e",
        "8a9ba0bab40562c8033c04ec358e2170a6fcf50a904e3b41c782234b7e55b68c"),
    "commute_walk/hybrid": (
        "cc0c4c934d094fff8ab8f9ac6961410d87f2a38af277d7121348086c7448bcf5",
        "7cf13691fc18db40a68cf1615162af9ba3a6f917c442a3c9c88f027a4d834ed8",
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
            "posted_count": ledger.posted_count,
            "trace_energy_joules": ledger.trace_energy_joules().tolist()}


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
