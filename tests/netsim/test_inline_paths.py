"""The kernel's inline grant and energy paths against the method paths.

The kernel replicates the stock arbiters' grants and the stock battery
node's per-packet drain and per-tick settlement inline, gated on exact
types.  Each case here runs one body twice: once stock, and once as a
*twin* whose arbiter, :class:`~repro.energy.battery.Battery` and
:class:`~repro.energy.runtime.NodeEnergyState` are trivial subclasses,
which sends every grant, drain and settlement through the methods.  The
two runs must agree bit for bit: the sha256 of
``canonical_json(result.to_dict())``, and every node's and the hub's
ledger totals, power trace and post count.

The bodies mix batteryless nodes, a cell that browns out mid-run (its
backlog is purged from the arbiter), a cell that crosses its
low-battery fraction, a harvester topping up a cell, and a battery node
under a PER-backoff controller, on lossless and ARQ links.  Hybrid twins
keep the stock arbiter, because the macro-tick engine only leaps stock
arbiters; their energy classes are still subclassed.

A 60-member hybrid cohort on FIFO, TDMA and polling hubs, half of it on
scaled CR2032 cells, is pinned by digest as well.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import units
from repro.cohort import Categorical, CohortSpec, run_cohort
from repro.comm.eqs_hbc import wir_commercial
from repro.control import ControllerSpec
from repro.energy.battery import Battery, BatterySpec
from repro.energy.harvester import thermoelectric_body
from repro.energy.runtime import NodeEnergyState
from repro.netsim import (ARQPolicy, BodyNetworkSimulator, LinkReliability,
                          PeriodicSource, PoissonSource)
from repro.netsim.arbitration import (FIFOArbitration, HubPollingArbitration,
                                      TDMAArbitration)
from repro.netsim.config import NodeConfig
from repro.runner.artifacts import canonical_json

COHORT_SHA256 = \
    "2de7d9da220ee4e726a410901150acdb84c2039e8094c0257d6b72edb3590fdb"

DURATION_SECONDS = 10.0
HYBRID_DURATION_SECONDS = 20.0

ERROR_RATES = {"ecg": 0.2, "imu": 0.3, "events": 0.15, "pendant": 0.4,
               "watch": 0.1, "patch": 0.1, "ppg": 0.3, "late": 0.2}


class TwinFIFO(FIFOArbitration):
    pass


class TwinTDMA(TDMAArbitration):
    pass


class TwinPolling(HubPollingArbitration):
    pass


class TwinBattery(Battery):
    pass


class TwinEnergyState(NodeEnergyState):
    pass


TWIN_ARBITERS = {"fifo": TwinFIFO, "tdma": TwinTDMA, "polling": TwinPolling}


def cell(joules: float) -> BatterySpec:
    return BatterySpec(name="pin-cell", capacity_mah=joules / (3.6 * 3.0),
                       self_discharge_per_year=0.0)


def leaky_cell(joules: float) -> BatterySpec:
    return BatterySpec(name="leaky-cell", capacity_mah=joules / (3.6 * 3.0),
                       self_discharge_per_year=0.5)


def build(arbiter: str, link: str, *, twin: bool, hybrid: bool = False,
          duration: float = DURATION_SECONDS) -> BodyNetworkSimulator:
    reliability = None
    if link == "arq":
        reliability = LinkReliability(seed=5, arq=ARQPolicy(retry_limit=3))
    arbitration = arbiter
    if twin and not hybrid:
        arbitration = TWIN_ARBITERS[arbiter]()
    simulator = BodyNetworkSimulator(
        wir_commercial(), rng=11, arbitration=arbitration,
        reliability=reliability, energy_update_interval_seconds=0.25)
    technology = wir_commercial()

    def joules_for(rate: float, static: float, horizons: float) -> float:
        return horizons * duration * (
            rate * technology.tx_energy_per_bit() + static
            + technology.sleep_power())

    simulator.attach(NodeConfig(
        "ecg", PeriodicSource.from_rate(units.kilobit_per_second(64.0)),
        sensing_power_watts=units.microwatt(30.0)))
    simulator.attach(NodeConfig(
        "imu", PeriodicSource.from_rate(units.kilobit_per_second(96.0),
                                        bits_per_packet=4096.0),
        sensing_power_watts=units.microwatt(15.0)))
    if not hybrid:
        simulator.attach(NodeConfig("events", PoissonSource(
            mean_interarrival_seconds=0.02, mean_bits_per_packet=2048.0)))
    # Browns out about half-way through the run.
    rate = units.kilobit_per_second(256.0)
    simulator.attach(NodeConfig(
        "pendant", PeriodicSource.from_rate(rate),
        sensing_power_watts=units.microwatt(5.0),
        isa_power_watts=units.microwatt(20.0),
        battery=leaky_cell(joules_for(rate, units.microwatt(25.0), 0.5))))
    # Starts just above its low-battery fraction and crosses it.
    rate = units.kilobit_per_second(128.0)
    simulator.attach(NodeConfig(
        "watch", PeriodicSource.from_rate(rate, bits_per_packet=4096.0),
        sensing_power_watts=units.microwatt(10.0),
        coding_power_watts=units.microwatt(3.0),
        battery=cell(joules_for(rate, units.microwatt(13.0), 3.0)),
        initial_charge_fraction=0.52, low_battery_fraction=0.5))
    # A thermoelectric harvester topping up a cell.
    rate = units.kilobit_per_second(16.0)
    simulator.attach(NodeConfig(
        "patch", PeriodicSource.from_rate(rate, bits_per_packet=1024.0),
        sensing_power_watts=units.microwatt(2.0),
        battery=cell(joules_for(rate, units.microwatt(2.0), 4.0)),
        initial_charge_fraction=0.9, harvester=thermoelectric_body()))
    rate = units.kilobit_per_second(32.0)
    simulator.attach(NodeConfig(
        "ppg", PeriodicSource.from_rate(rate, bits_per_packet=1024.0),
        sensing_power_watts=units.microwatt(8.0),
        battery=cell(joules_for(rate, units.microwatt(8.0), 4.0))))
    if reliability is not None:
        for name in simulator.nodes:
            reliability.set_error_rate(name, ERROR_RATES[name])
    if not hybrid:
        base = ERROR_RATES["ppg"] if reliability is not None else 0.0
        simulator.attach_controller(
            "ppg", ControllerSpec(kind="per_backoff", cadence_seconds=0.7),
            error_rate_fn=lambda offset_db: base * 10.0 ** (-offset_db / 10.0))
    if twin:
        make_twin(simulator)
    return simulator


def make_twin(simulator: BodyNetworkSimulator) -> None:
    """Swap every node's energy state and cell for the subclasses."""
    for node in simulator.nodes.values():
        state = node.energy
        if state is not None:
            state.__class__ = TwinEnergyState
            if state.battery is not None:
                state.battery.__class__ = TwinBattery


def sha256_of(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def ledger_books(simulator: BodyNetworkSimulator) -> dict[str, object]:
    ledgers = {name: node.ledger for name, node in simulator.nodes.items()}
    ledgers["<hub>"] = simulator.hub_ledger
    return {name: (ledger.breakdown(), ledger.total_energy(),
                   ledger.trace_energy_joules().tolist(),
                   ledger.posted_count)
            for name, ledger in ledgers.items()}


def assert_twins_agree(stock: BodyNetworkSimulator, stock_result,
                       twin: BodyNetworkSimulator, twin_result) -> None:
    assert sha256_of(stock_result.to_dict()) == \
        sha256_of(twin_result.to_dict())
    assert ledger_books(stock) == ledger_books(twin)


@pytest.mark.parametrize("link", ("lossless", "arq"))
@pytest.mark.parametrize("arbiter", ("fifo", "tdma", "polling"))
def test_exact_inline_paths_match_method_paths(arbiter, link):
    stock = build(arbiter, link, twin=False)
    twin = build(arbiter, link, twin=True)
    assert type(twin.bus.policy) is TWIN_ARBITERS[arbiter]
    assert type(twin.nodes["pendant"].energy) is TwinEnergyState
    stock_result = stock.run(DURATION_SECONDS)
    twin_result = twin.run(DURATION_SECONDS)
    assert "pendant" in stock_result.per_node_first_death_seconds
    assert ("low_battery", "watch") in [
        (event.kind, event.node) for event in stock_result.energy_events]
    assert stock_result.harvested_joules > 0.0
    if link == "arq":
        assert stock_result.retransmissions > 0
        assert stock.controllers["ppg"].offset_db > 0.0
    assert_twins_agree(stock, stock_result, twin, twin_result)


@pytest.mark.parametrize("link", ("lossless", "arq"))
@pytest.mark.parametrize("arbiter", ("fifo", "tdma", "polling"))
def test_hybrid_inline_paths_match_method_paths(arbiter, link):
    runs = []
    for twin in (False, True):
        simulator = build(arbiter, link, twin=twin, hybrid=True,
                          duration=HYBRID_DURATION_SECONDS)
        chunks: list[tuple[float, float]] = []

        def counted(end_time: float, simulator=simulator,
                    kernel=simulator._run_kernel, chunks=chunks) -> None:
            chunks.append((simulator.queue.now, end_time))
            kernel(end_time)

        simulator._run_kernel = counted
        result = simulator.run(HYBRID_DURATION_SECONDS, fast_path="hybrid")
        runs.append((simulator, result, chunks))
    (stock, stock_result, chunks), (twin, twin_result, _) = runs
    # The run leapt: some kernel chunk starts after the previous one ended.
    assert chunks[0][0] > 0.0 or any(
        later[0] > earlier[1] for earlier, later in zip(chunks, chunks[1:]))
    assert "pendant" in stock_result.per_node_first_death_seconds
    assert stock_result.harvested_joules > 0.0
    assert_twins_agree(stock, stock_result, twin, twin_result)


def test_polling_node_attached_from_queued_callback():
    """A node attached mid-run lengthens the polling ring the walk reads."""
    results = []
    for variant in (False, True):
        simulator = build("polling", "arq", twin=variant)

        def attach_late(simulator=simulator) -> None:
            simulator.attach(NodeConfig(
                "late", PeriodicSource.from_rate(
                    units.kilobit_per_second(32.0), bits_per_packet=1024.0),
                battery=cell(1.0)))
            simulator.reliability.set_error_rate("late",
                                                 ERROR_RATES["late"])

        simulator.queue.schedule_at(DURATION_SECONDS / 2.0, attach_late)
        results.append((simulator, simulator.run(DURATION_SECONDS)))
    (stock, stock_result), (twin_sim, twin_result) = results
    assert stock.bus.policy._ring[-1] == "late"
    assert_twins_agree(stock, stock_result, twin_sim, twin_result)


def test_hybrid_cohort_pinned():
    spec = CohortSpec(population=60, seed=1, member_duration_seconds=60.0,
                      batteries=Categorical(choices=("cr2032", ""),
                                            weights=(0.5, 0.5)),
                      battery_scale=2e-6)
    result = run_cohort(spec, fast_path="hybrid", shard_count=1, parallel=1)
    accumulator = result.accumulator
    assert set(accumulator.by_policy) == {"fifo", "tdma", "polling"}
    assert accumulator.dead_members > 0
    assert sha256_of({"overview": accumulator.overview(),
                      "summary": accumulator.summary_rows()}) == COHORT_SHA256
