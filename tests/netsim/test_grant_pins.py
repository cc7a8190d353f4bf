"""Claim-order pins for the exact kernel's grants.

A grant claims sequence numbers from the counter every stream shares: a
begin, or a completion when the access delay is 0, and a second number
for the completion of a begin folded into its grant.  When a generation
finds the bus idle, the grant's first claim comes before the node's own
reschedule claims the next one.  These pins fix that order, which the
result pins elsewhere do not: each case's digest covers
``result.to_dict()`` plus the counter and the in-flight chain
(``bus._chain``: time, sequence, kind, packet) after every kernel entry.

* ``tie``: one node on dyadic times, whose chain event after a grant
  at a generation lands exactly on its next generation, so the two
  sequence numbers decide which dispatches first.  ``lifo`` is a custom
  arbiter that implements :class:`ArbitrationPolicy` directly (no stock
  base class) and grants last-in-first-out after a fixed access delay.
  The stock arbiters run with a two-packet buffer, so the order decides
  whether a generated packet finds room; the FIFO body adds a second
  node, because FIFO grants in arrival order whatever the tie.
* ``light``: a lightly loaded body on each stock arbiter, so most
  grants find the bus idle.  FIFO grants with zero access; TDMA grants
  with zero access inside the node's window and with a delay outside
  it; polling always charges at least one poll.  Begins are folded into
  their grant when nothing else can dispatch first, and not otherwise.
  A battery leaf adds energy ticks to the control stream.

Every case also runs as ten kernel entries, so each node's last
generation of an entry falls past that entry's horizon and the chain
crosses entries through ``bus._chain``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.energy.battery import BatterySpec
from repro.netsim import BodyNetworkSimulator, PeriodicSource, PoissonSource
from repro.netsim.arbitration import (ArbitrationPolicy, FIFOArbitration,
                                      HubPollingArbitration, TDMAArbitration)
from repro.netsim.config import NodeConfig
from repro.netsim.packet import Packet
from repro.runner.artifacts import canonical_json

GRANT_SHA256 = {
    "lifo/tie/single":
        "1d25f0ae89e3ebf119f33764a40117e0419a84af6c0c50f44f25a5dcca193579",
    "lifo/tie/chunked":
        "4dc92096d6ce45e407904f585534dcfb8a5dba6fd366a41cd8a8f8a46d6bbe6d",
    "fifo/tie/single":
        "1bd3c6964d7dd2ef3599b9b39ee5111091313a56b879009ef6c11ac85d4b333e",
    "fifo/tie/chunked":
        "8507a56f7186402d83262ad75ea7009bf49ecc29de4b25ce1d0b76663f6f64ab",
    "tdma/tie/single":
        "3d243847366b4caa0001c66a270101992b7703659f2e1169915c9aa6e0cc9045",
    "tdma/tie/chunked":
        "85be80abe74d0c949ea1049d6c13d453c510596436250df8f2380c2174675e9b",
    "polling/tie/single":
        "1d4a49d9e7cbd5afabbfe87130ede6952c73aada9f172cdd3208de9b893133c1",
    "polling/tie/chunked":
        "402bed3a74429cc81c3da57480d2504cba0518bef15d1e5b1b2c35480e5ccd83",
    "fifo/light/single":
        "32d111568ab6fb6af2b4036bbd108003265ba1db039d96b7505341a81b0c0535",
    "fifo/light/chunked":
        "90c012b9dc9a97ae0e485503f0840fababb3f39009f1ea417d22306cfa8f6864",
    "tdma/light/single":
        "4de810ddf86355eaf972fff3411002c6669ac4ea24817cfa38bdd55836c0b974",
    "tdma/light/chunked":
        "72586e909cf56e96062f9c29dcfd7f8057669b7cb6134b91a791c106e91c36ea",
    "polling/light/single":
        "bd3babbad288b43e3c671d486d7dcecbb9451bab6a97fa9d5c116f1ad875f794",
    "polling/light/chunked":
        "cec53f9e1317144a3c36e7e70eaf430a422f82be2eaf14dd7c19b7d6fe2a4d0e",
}

#: The tie probes' ``(per-packet overhead, payload time, generation
#: period)`` in seconds, all dyadic: with each arbiter's access delay
#: (:func:`tie_arbiter`), the begin or completion of a packet granted
#: at a generation lands exactly on the node's next generation.
TIE_TIMES = {
    "lifo": (1.0 / 512.0, 1.0 / 512.0, 1.0 / 256.0),
    "fifo": (1.0 / 1024.0, 1.0 / 1024.0, 1.0 / 512.0),
    "tdma": (1.0 / 256.0, 1.0 / 256.0, 1.0 / 128.0),
    "polling": (1.0 / 2048.0, 1.0 / 2048.0, 1.0 / 1024.0),
}
LIFO_DELAY_SECONDS = 1.0 / 256.0
TIE_SECONDS = 0.5
TIE_QUEUE_PACKETS = 2
LIGHT_SECONDS = 2.0
CHUNKS = 10


class LIFODelayArbitration:
    """Last in, first out, after a fixed access delay."""

    name = "lifo_delay"

    def __init__(self, access_delay_seconds: float) -> None:
        self.access_delay_seconds = access_delay_seconds
        self._stack = []

    def register_node(self, node_name: str, offered_rate_bps: float) -> None:
        pass

    def enqueue(self, packet) -> None:
        self._stack.append(packet)

    def next_grant(self, now: float):
        if not self._stack:
            return None
        return self._stack.pop(), self.access_delay_seconds

    def pending_count(self) -> int:
        return len(self._stack)

    def purge_node(self, node_name: str) -> int:
        kept = [packet for packet in self._stack if packet.source != node_name]
        removed = len(self._stack) - len(kept)
        self._stack = kept
        return removed


def tie_arbiter(arbiter: str):
    """LIFO after 1/256 s; FIFO with no delay; TDMA whose 1/64 s frame
    opens with the node's 1/256 s window; polling at 1/1024 s a poll."""
    if arbiter == "lifo":
        return LIFODelayArbitration(LIFO_DELAY_SECONDS)
    if arbiter == "tdma":
        return TDMAArbitration(superframe_seconds=1.0 / 64.0,
                               guard_seconds=0.0)
    if arbiter == "polling":
        return HubPollingArbitration(poll_overhead_bits=0.0,
                                     turnaround_seconds=1.0 / 1024.0)
    return FIFOArbitration()


def tie_body(arbiter: str) -> BodyNetworkSimulator:
    overhead, payload, period = TIE_TIMES[arbiter]
    simulator = BodyNetworkSimulator(
        wir_commercial(), rng=0, arbitration=tie_arbiter(arbiter),
        per_packet_overhead_seconds=overhead)
    bits = simulator.bus.link_rate_bps * payload
    simulator.attach(NodeConfig("probe", PeriodicSource(
        period_seconds=period, bits_per_packet=bits)))
    if arbiter != "lifo":
        # A short buffer: which of the tied events dispatches first
        # decides whether the generated packet finds room.
        simulator.bus.max_queue_packets = TIE_QUEUE_PACKETS
    if arbiter == "fifo":
        # FIFO grants in arrival order, so a tie shows only through a
        # second node's packets filling the buffer.
        simulator.attach(NodeConfig("filler", PeriodicSource(
            period_seconds=3.0 * period, bits_per_packet=bits)))
    return simulator


def light_body(arbiter: str) -> BodyNetworkSimulator:
    simulator = BodyNetworkSimulator(
        wir_commercial(), rng=3, arbitration=arbiter,
        energy_update_interval_seconds=0.125)
    simulator.attach(NodeConfig("ecg", PeriodicSource(
        period_seconds=0.0137, bits_per_packet=2048.0)))
    simulator.attach(NodeConfig("imu", PeriodicSource(
        period_seconds=0.0211, bits_per_packet=4096.0)))
    simulator.attach(NodeConfig("events", PoissonSource(
        mean_interarrival_seconds=0.03, mean_bits_per_packet=1024.0)))
    simulator.attach(NodeConfig(
        "patch", PeriodicSource(period_seconds=0.05, bits_per_packet=1024.0),
        sensing_power_watts=units.microwatt(5.0),
        battery=BatterySpec(name="pin-cell", capacity_mah=1.0,
                            self_discharge_per_year=0.0)))
    return simulator


def build(arbiter: str, body: str) -> tuple[BodyNetworkSimulator, float]:
    if body == "tie":
        return tie_body(arbiter), TIE_SECONDS
    return light_body(arbiter), LIGHT_SECONDS


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


CASES = [f"{arbiter}/{body}/{variant}"
         for arbiter, body in (("lifo", "tie"), ("fifo", "tie"),
                               ("tdma", "tie"), ("polling", "tie"),
                               ("fifo", "light"), ("tdma", "light"),
                               ("polling", "light"))
         for variant in ("single", "chunked")]


@pytest.mark.parametrize("case", CASES)
def test_grant_claims_pinned(case):
    _, observed = observe(case)
    assert digest(observed) == GRANT_SHA256[case]


def test_lifo_probe_is_a_custom_policy():
    simulator, _ = observe("lifo/tie/single")
    policy = simulator.bus.policy
    assert isinstance(policy, ArbitrationPolicy)
    assert not isinstance(policy, (FIFOArbitration, TDMAArbitration,
                                   HubPollingArbitration))


@pytest.mark.parametrize("arbiter", sorted(TIE_TIMES))
def test_tie_probe_times_are_exact(arbiter):
    """Each tie probe's chain event lands on the node's next generation:
    no rounding in the service time, the TDMA window or the poll."""
    simulator = tie_body(arbiter)
    overhead, payload, period = TIE_TIMES[arbiter]
    bits = simulator.bus.link_rate_bps * payload
    service = simulator.bus.service_time_seconds(Packet("probe", bits, 0.0))
    assert service == overhead + payload
    policy = simulator.bus.policy
    if arbiter == "lifo":
        assert LIFO_DELAY_SECONDS == period
    elif arbiter == "fifo":
        assert service == period
    elif arbiter == "tdma":
        # Generated mid-frame, outside the window: the begin opens the
        # next frame, which is the next generation.
        assert policy._slot_table() == {"probe": (0.0, service)}
        assert policy.superframe_seconds == 2.0 * period
    else:
        assert policy.poll_cost_seconds() == period
