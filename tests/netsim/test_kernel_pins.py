"""Result pins for the exact kernel's completion step on lossy media.

Every arbiter (FIFO, TDMA, polling) runs three link configurations —
lossless, erasures with ARQ, erasures without ARQ — over two bodies:

* ``batteryless``: no node carries a cell, so every node posts through
  the kernel's accumulated fast ledgers and the hub goes fast too;
* ``battery``: the same body plus one node on a small cell, so that
  node takes the method accounting path and the hub of a lossy run
  posts per attempt.  The cell outlasts a lossless run; under FIFO and
  polling the retransmitted attempts of an ARQ link empty it mid-run,
  and the brownout purges its backlog.  (A TDMA slot is sized to the
  node's offered rate, which caps its retransmissions, so there the
  cell survives.)

Each digest is the sha256 of ``canonical_json(result.to_dict())`` of
one exact run, so it pins every counter, energy total and latency
statistic the completion step produces, down to float addition order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.comm.mqs_hbc import mqs_implant_link
from repro.energy.battery import BatterySpec
from repro.netsim import (ARQPolicy, BodyNetworkSimulator, LinkReliability,
                          PeriodicSource, PoissonSource)
from repro.netsim.config import NodeConfig
from repro.runner.artifacts import canonical_json

KERNEL_SHA256 = {
    "fifo/lossless/batteryless":
        "6e93cf8ca16a8806be1c534d9b82af7c99d8cfe0cac0b019187b106c918d2fb6",
    "fifo/lossless/battery":
        "68729761316bb0723a78c9dc9a526fa080045d08fed94d0620c30a13428ba670",
    "fifo/arq/batteryless":
        "c6b8f5240e926035bb7963a71af8a474cd40646aa293a469d5b636b279ffb4d0",
    "fifo/arq/battery":
        "befa8e5e83abb8822c466cc07ff5c35edfef26bca56b2ee3edc26fb0e4d12928",
    "fifo/no_arq/batteryless":
        "3bbdb0daf1981f16d7152b9ae40d0aa579ee7585e6b97c64cb69abe1e32b7d86",
    "fifo/no_arq/battery":
        "08f106229b1097b6255f0ac38916491fed2f569f554efcd964cebe257624f8d5",
    "tdma/lossless/batteryless":
        "6fe91aa607bd617e4b46c93b0b94c5703d0bdef07a4dcbcdb742a34db815c527",
    "tdma/lossless/battery":
        "4b47c418a0bc0df7dbc309619fe30326aeae3a267cc0fb7c202c07bb29f01613",
    "tdma/arq/batteryless":
        "93e9555b57721d0559c2a74fd9d0794c8b84c05100348f0a4568d21dc5527201",
    "tdma/arq/battery":
        "1de1cda8695c3766d7b1b639061405aecadf6b58ca1daec86284940fbc58d114",
    "tdma/no_arq/batteryless":
        "493588043580a488340857c57ee3ba0e866b99afa0a96d26e4a33fd2849cf5af",
    "tdma/no_arq/battery":
        "8e61e374765efc7d26b845f925dd5872227f216ae1fcffaadee8f0b71ebe5b74",
    "polling/lossless/batteryless":
        "ff039951cf7bf2b86bbca056d1d0590f01567085abdcb74c6c04279c3de5ac60",
    "polling/lossless/battery":
        "a4d6cb67d8bafbbd584715b277d0da86c9e7559c599fb30dbf19b2c003cebfb1",
    "polling/arq/batteryless":
        "7f378147c80a3616b2a6410f279a97234e86c105626939c5d7ac87e5992559a8",
    "polling/arq/battery":
        "ce9ed13abb373e8c2afbed7302bb887a949ec2ea797c0ff7357db4e44171402d",
    "polling/no_arq/batteryless":
        "e82394149267ab091885209a3e19c192b32fcb10da0f527a381cec02339ae5e7",
    "polling/no_arq/battery":
        "1af79e47b7d109b69504ad4d13d3b4dccf12bfa1552fb041d985e117f02156be",
}

ARBITERS = ("fifo", "tdma", "polling")
LINKS = ("lossless", "arq", "no_arq")
POPULATIONS = ("batteryless", "battery")

DURATION_SECONDS = 3.0

#: Per-packet erasure probability of every lossy node.
ERROR_RATES = {"ecg": 0.2, "imu": 0.3, "audio": 0.1, "implant": 0.25,
               "events": 0.15, "pendant": 0.5}


def build(arbiter: str, link: str, population: str) -> BodyNetworkSimulator:
    reliability = None
    if link != "lossless":
        reliability = LinkReliability(
            seed=5, arq=ARQPolicy(retry_limit=3) if link == "arq" else None)
    simulator = BodyNetworkSimulator(
        wir_commercial(), rng=11, arbitration=arbiter,
        reliability=reliability, energy_update_interval_seconds=0.25)
    simulator.attach(NodeConfig(
        "ecg", PeriodicSource.from_rate(units.kilobit_per_second(64.0)),
        sensing_power_watts=units.microwatt(30.0)))
    simulator.attach(NodeConfig(
        "imu", PeriodicSource.from_rate(units.kilobit_per_second(96.0),
                                        bits_per_packet=4096.0),
        sensing_power_watts=units.microwatt(15.0)))
    simulator.attach(NodeConfig(
        "audio", PeriodicSource.from_rate(units.kilobit_per_second(256.0)),
        isa_power_watts=units.microwatt(50.0)))
    simulator.attach(NodeConfig(
        "implant", PeriodicSource.from_rate(units.kilobit_per_second(16.0),
                                            bits_per_packet=1024.0),
        technology=mqs_implant_link()))
    simulator.attach(NodeConfig("events", PoissonSource(
        mean_interarrival_seconds=0.02, mean_bits_per_packet=2048.0)))
    if population == "battery":
        # A cell for 1.2 horizons of clean transmit plus static load.
        technology = wir_commercial()
        rate = units.kilobit_per_second(256.0)
        joules = 1.2 * DURATION_SECONDS * (
            rate * technology.tx_energy_per_bit()
            + units.microwatt(5.0) + technology.sleep_power())
        simulator.attach(NodeConfig(
            "pendant", PeriodicSource.from_rate(rate),
            sensing_power_watts=units.microwatt(5.0),
            battery=BatterySpec(name="pin-cell",
                                capacity_mah=joules / (3.6 * 3.0),
                                self_discharge_per_year=0.0)))
    if reliability is not None:
        for name in simulator.nodes:
            reliability.set_error_rate(name, ERROR_RATES[name])
    return simulator


def sha256_of(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("population", POPULATIONS)
@pytest.mark.parametrize("link", LINKS)
@pytest.mark.parametrize("arbiter", ARBITERS)
def test_completion_step_pinned(arbiter, link, population):
    result = build(arbiter, link, population).run(DURATION_SECONDS)
    if link != "lossless":
        assert result.erased_attempts > 0
    if link == "arq":
        assert result.retransmissions > 0
    if population == "battery":
        died = "pendant" in result.per_node_first_death_seconds
        assert died == (link == "arq" and arbiter != "tdma")
    assert sha256_of(result.to_dict()) == \
        KERNEL_SHA256[f"{arbiter}/{link}/{population}"]
