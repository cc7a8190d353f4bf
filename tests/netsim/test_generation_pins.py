"""Claim-order pins for the exact kernel's generation stream.

Periodic nodes with the same period generate at the same instants, and
at each instant they dispatch in node order, each claiming its own
reschedule from the counter every stream shares.  These pins fix that
order where other streams cut into it.  Each case's digest covers
``result.to_dict()`` plus the counter and the in-flight chain
(``bus._chain``: time, sequence, kind, packet) after every kernel
entry, as in ``test_grant_pins``.

* ``split``: three nodes ``a1``, ``a2``, ``a3`` of one period on dyadic
  times, under each stock arbiter.  ``a1`` sleeps for most of the run,
  so ``a2`` finds the bus idle at an instant, and the grant's first
  claim falls between ``a1``'s and ``a2``'s reschedule claims.  The
  grant's begin or completion lands exactly on the next instant, so
  there the chain event dispatches between the two nodes.
* ``interleave``: node order ``a1``, ``b``, ``a2``.  ``a1`` and ``a2``
  share a period of 1 s, and ``b``'s period is ``1 + 2**-44`` s.  From a
  cold start their instants never meet, but entered at a clock of
  800 s or 3600 s both periods round to the same instants, so ``b``'s
  claims sit between ``a1``'s and ``a2``'s.  ``a1`` sleeps for part of
  the run, so at some instants ``a1`` claims no grant and ``b``'s
  generation is the one that finds the bus idle.
* ``mixed``: four nodes of one period with a Poisson node among them.
  One battery node crosses its low-battery fraction and is throttled
  by its stride, and another browns out.  Sleep and wake events land
  on generation instants, some claimed before the instant's
  generations and some after them, and energy ticks land on instants
  too.

Every case also runs as ten kernel entries, so each entry re-claims the
generation phases and the chain crosses entries through ``bus._chain``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.energy.battery import BatterySpec
from repro.netsim import BodyNetworkSimulator, PeriodicSource, PoissonSource
from repro.netsim.arbitration import (FIFOArbitration, HubPollingArbitration,
                                      TDMAArbitration)
from repro.netsim.config import NodeConfig
from repro.netsim.packet import Packet
from repro.runner.artifacts import canonical_json

GENERATION_SHA256 = {
    "fifo/split/single":
        "854491a1fc80a208220b5304b5fa98f96be6a41fc658f27134b780893925b818",
    "fifo/split/chunked":
        "b2e66d55b151d43748b9bd8cac2564318fc5c24482faf72640eae200fe5ca2bb",
    "tdma/split/single":
        "d3a3d7a3e0bfe932503134083b3b8ccd7f27872a586b2487fa5906cb6a8fbaf3",
    "tdma/split/chunked":
        "83e9206d29e2fd18c06e9fd7525bb48a41230a0b2a3e0a93e8e11aa68583f64c",
    "polling/split/single":
        "91aaf6118e38477c6ed6a1048fb8ab639fb92ae39f840ae6a13abb042d6dc655",
    "polling/split/chunked":
        "1c2bcfb8b9f8b47de74a4356388452adce088fcb8a5a7b8dc4e47f1101239b96",
    "fifo/interleave/single":
        "9515d4c73f491e599c9cb99a5cf781800c35c8d8c8b8588a8833f5561851e59a",
    "fifo/interleave/chunked":
        "8e2872bf8ec06f1f331bb746fad6fc151b7215fe4faf3987081523331d17dd24",
    "fifo/mixed/single":
        "e7252a1909ced5910cdaf878e4e398a61579c464fa7c9fe340b7e7a70b82dacd",
    "fifo/mixed/chunked":
        "e7b30eeefd9c84ab7b7af84b94332d9a6ab02eda4017abf5703d9c9d4efda1f7",
}

#: The split bodies' shared period; every time below is dyadic in it.
SPLIT_PERIOD = 1.0 / 256.0
SPLIT_SECONDS = 0.5
#: ``a1`` wakes and sleeps again at these off-instant times.
SPLIT_WAKES = ((0.1, 0.2), (0.3, 0.35))
SPLIT_QUEUE_PACKETS = 2
INTERLEAVE_PERIODS = (1.0, 1.0 + 2.0 ** -44)
INTERLEAVE_SECONDS = 4000.0
#: ``a1`` sleeps between these off-instant times.
INTERLEAVE_NAPS = ((550.5, 1250.5), (3450.5, 3750.5))
MIXED_PERIOD = 1.0 / 32.0
MIXED_SECONDS = 40.0
CHUNKS = 10


def split_times(arbiter: str) -> tuple[float, tuple[float, float, float]]:
    """``(per-packet overhead, payloads of a1, a2, a3)`` in seconds.

    ``a2`` serves for exactly one period.  FIFO: the completion of a
    packet ``a2`` finds the bus idle for lands on the next instant.
    TDMA (frame of two periods, no guard): ``a1``'s window fills the
    first period, so ``a2``, generating at a frame start, begins one
    period later and completes one period after that.  Polling (a poll
    costs half a period): ``a2`` is one poll past the cursor's start, so
    its access takes one period.
    """
    p = SPLIT_PERIOD
    if arbiter == "tdma":
        return 0.75 * p, (p / 2.0, p / 4.0, p / 8.0)
    return p / 2.0, (p / 2.0, p / 2.0, p / 4.0)


def split_arbiter(arbiter: str):
    if arbiter == "tdma":
        return TDMAArbitration(superframe_seconds=2.0 * SPLIT_PERIOD,
                               guard_seconds=0.0)
    if arbiter == "polling":
        return HubPollingArbitration(poll_overhead_bits=0.0,
                                     turnaround_seconds=SPLIT_PERIOD / 2.0)
    return FIFOArbitration()


def toggle(simulator: BodyNetworkSimulator, name: str, active: bool):
    return lambda: simulator.set_node_active(name, active)


def split_body(arbiter: str) -> BodyNetworkSimulator:
    overhead, payloads = split_times(arbiter)
    simulator = BodyNetworkSimulator(
        wir_commercial(), rng=0, arbitration=split_arbiter(arbiter),
        per_packet_overhead_seconds=overhead)
    rate = simulator.bus.link_rate_bps
    for name, payload in zip(("a1", "a2", "a3"), payloads):
        simulator.attach(NodeConfig(name, PeriodicSource(
            period_seconds=SPLIT_PERIOD, bits_per_packet=rate * payload)))
    simulator.bus.max_queue_packets = SPLIT_QUEUE_PACKETS
    simulator.set_node_active("a1", False)
    for wake, sleep in SPLIT_WAKES:
        simulator.queue.schedule_at(wake, toggle(simulator, "a1", True))
        simulator.queue.schedule_at(sleep, toggle(simulator, "a1", False))
    return simulator


def interleave_body() -> BodyNetworkSimulator:
    simulator = BodyNetworkSimulator(wir_commercial(), rng=1)
    for name, period, bits in (("a1", INTERLEAVE_PERIODS[0], 1024.0),
                               ("b", INTERLEAVE_PERIODS[1], 2048.0),
                               ("a2", INTERLEAVE_PERIODS[0], 4096.0)):
        simulator.attach(NodeConfig(name, PeriodicSource(
            period_seconds=period, bits_per_packet=bits)))
    for sleep, wake in INTERLEAVE_NAPS:
        simulator.queue.schedule_at(sleep, toggle(simulator, "a1", False))
        simulator.queue.schedule_at(wake, toggle(simulator, "a1", True))
    return simulator


def cell(joules: float) -> BatterySpec:
    """A cell holding exactly *joules* (3 V lithium, no self-discharge)."""
    return BatterySpec(name="pin-cell", capacity_mah=joules / (3.6 * 3.0),
                       self_discharge_per_year=0.0)


def mixed_body() -> BodyNetworkSimulator:
    simulator = BodyNetworkSimulator(wir_commercial(), rng=7,
                                     energy_update_interval_seconds=0.5)
    p = MIXED_PERIOD
    simulator.attach(NodeConfig("ecg", PeriodicSource(
        period_seconds=p, bits_per_packet=2048.0)))
    simulator.attach(NodeConfig("events", PoissonSource(
        mean_interarrival_seconds=p, mean_bits_per_packet=1024.0)))
    # Starts just above its low-battery fraction and crosses it.
    simulator.attach(NodeConfig(
        "watch", PeriodicSource(period_seconds=p, bits_per_packet=4096.0),
        sensing_power_watts=units.microwatt(10.0),
        battery=cell(2e-3), initial_charge_fraction=0.52,
        low_battery_fraction=0.5))
    # Browns out part-way through the run.
    simulator.attach(NodeConfig(
        "pendant", PeriodicSource(period_seconds=p, bits_per_packet=1024.0),
        sensing_power_watts=units.microwatt(20.0), battery=cell(4e-4)))
    simulator.attach(NodeConfig("imu", PeriodicSource(
        period_seconds=p, bits_per_packet=8192.0)))
    queue = simulator.queue
    # Claimed before the run: each dispatches ahead of its instant's
    # generations.
    queue.schedule_at(64 * p, toggle(simulator, "imu", False))
    queue.schedule_at(112 * p, toggle(simulator, "imu", True))
    queue.schedule_at(500 * p, toggle(simulator, "ecg", False))

    def plan_late_toggles() -> None:
        # Claimed mid-run, after the generations of the instants they
        # land on.
        queue.schedule_at(600 * p, toggle(simulator, "ecg", True))
        queue.schedule_at(700 * p, toggle(simulator, "watch", False))
        queue.schedule_at(760 * p, toggle(simulator, "watch", True))

    queue.schedule_at(300.5 * p, plan_late_toggles)
    return simulator


def build(arbiter: str, body: str) -> tuple[BodyNetworkSimulator, float]:
    if body == "split":
        return split_body(arbiter), SPLIT_SECONDS
    if body == "interleave":
        return interleave_body(), INTERLEAVE_SECONDS
    return mixed_body(), MIXED_SECONDS


def claims(simulator: BodyNetworkSimulator) -> list:
    """The shared counter and the in-flight chain, as plain data."""
    chain = simulator.bus._chain
    if chain is not None:
        time, sequence, kind, packet, _ = chain
        chain = [time, sequence, kind, packet.source, packet.created_at]
    return [simulator.queue._seq, chain]


def observe(case: str) -> tuple[BodyNetworkSimulator, dict]:
    arbiter, body, variant = case.split("/")
    simulator, seconds = build(arbiter, body)
    entries = []
    if variant == "chunked":
        for k in range(1, CHUNKS):
            simulator._run_kernel(seconds * k / CHUNKS)
            entries.append(claims(simulator))
    result = simulator.run(seconds)
    entries.append(claims(simulator))
    return simulator, {"result": result.to_dict(), "claims": entries}


def digest(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


CASES = sorted(GENERATION_SHA256)


@pytest.mark.parametrize("case", CASES)
def test_generation_claims_pinned(case):
    _, observed = observe(case)
    assert digest(observed) == GENERATION_SHA256[case]


@pytest.mark.parametrize("arbiter", ["fifo", "tdma", "polling"])
def test_split_probe_times_are_exact(arbiter):
    """``a2``'s grant at an idle bus lands its chain event exactly one
    period later: no rounding in the service time, the TDMA windows or
    the poll."""
    simulator = split_body(arbiter)
    overhead, payloads = split_times(arbiter)
    p = SPLIT_PERIOD
    rate = simulator.bus.link_rate_bps
    service = simulator.bus.service_time_seconds(
        Packet("a2", rate * payloads[1], 0.0))
    assert service == overhead + payloads[1]
    policy = simulator.bus.policy
    assert service == p
    if arbiter == "tdma":
        assert policy._slot_table() == {"a1": (0.0, p), "a2": (p, p / 2.0),
                                        "a3": (1.5 * p, p / 4.0)}
    elif arbiter == "polling":
        assert 2.0 * policy.poll_cost_seconds() == p


def test_interleave_periods_meet_only_on_reentry():
    """Cold, the two periods' instants differ; entered at 800 s or
    3600 s, their first instants (and the ones after) are equal."""
    short, long = INTERLEAVE_PERIODS
    assert short != long and 0.0 + short != 0.0 + long
    for clock in (800.0, 3600.0):
        a, b = clock + short, clock + long
        for _ in range(100):
            assert a == b
            a, b = a + short, b + long
    assert INTERLEAVE_SECONDS * 2 / CHUNKS == 800.0
    assert INTERLEAVE_SECONDS * 9 / CHUNKS == 3600.0


def test_mixed_body_throttles_and_browns_out():
    for variant in ("single", "chunked"):
        simulator, observed = observe(f"fifo/mixed/{variant}")
        kinds = {(event["kind"], event["node"])
                 for event in observed["result"]["energy_events"]}
        assert ("low_battery", "watch") in kinds
        assert ("brownout", "pendant") in kinds
        assert simulator.nodes["watch"].tx_stride > 1
