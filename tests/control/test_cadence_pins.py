"""Result pins for controller cadence ticks on a lossy ARQ body.

Every leaf carries a :class:`~repro.control.PERBackoffController` on a
stop-and-wait ARQ link whose erasure rate the controller's transmit
boost lowers, so cadence ticks observe windowed PER, act, and move the
link mid-run.  The cases:

* ``exact/<arbiter>`` — FIFO, TDMA and polling bodies on the exact
  kernel.  Each observation's ``queue_depth`` reads that arbiter's
  backlog at the tick, so a second digest pins the observation stream
  the controllers saw;
* ``hybrid`` — a TDMA body on the macro-tick hybrid with a cadence of
  at least ``min_leap_seconds``, so leaps end at cadence ticks and the
  kernel is re-entered with the next tick pending;
* ``battery`` — a node on a small cell crosses its low-battery
  threshold between ticks; the crossing goes through its controller
  and later cadence observations read the throttled stride;
* ``attach_mid_run`` — a controller attached from a queued callback
  half-way through the run.

The battery node's link is clean enough that its controller never
boosts, so no transmit premium accrues on a cell.

Each result digest is the sha256 of ``canonical_json(result.to_dict())``
of one run, so it pins every counter, energy total and latency
statistic down to float addition order.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.control import ControllerSpec, Observation, PERBackoffController
from repro.energy.battery import BatterySpec
from repro.netsim import (ARQPolicy, BodyNetworkSimulator, LinkReliability,
                          PeriodicSource)
from repro.netsim.config import NodeConfig
from repro.runner.artifacts import canonical_json

RESULT_SHA256 = {
    "exact/fifo":
        "8f3cfa65cff346fbe9782871e1066266d63dd3c560c8cdb644761133f1f0cd41",
    "exact/tdma":
        "f6b674b9c88f9d876002be0ed6b16219bd526044d60147acf4ed5048502f5231",
    "exact/polling":
        "309c767e60d8f5956d8663a782de9c4d28e2ae99bf754e298dca0cb82c8c0c94",
    "hybrid":
        "54d5fee9a7e60f12c4d70720bf0d94395766031d5a9b88caf73726e3db05629a",
    "battery":
        "7ef8099fcb661e4631e3d37de20a0bf9bfe48289435e5a911e3c32143f53829f",
    "attach_mid_run":
        "e1aaaad37f351dd970f454d08c2c38eb84a6a3354dd54ad55a0a04d7d3475a97",
}

OBSERVATION_SHA256 = {
    "exact/fifo":
        "81a7f6ff2a6f24ae8474dcb666951aedd2a7fca26af21bd42104491307d5b572",
    "exact/tdma":
        "da918647ab67920206f10c0dea28a418513ca2894a0a863c1937467f8d68acf6",
    "exact/polling":
        "91a663b13563190410b4083fd318f5d5f8a90cebb168640cc18ad46a241719a0",
    "hybrid":
        "eddc9d425233e3405aba73a65f19b28715207ea9ccd0bb0558cf46c2eb9ac044",
    "battery":
        "aaf30b59c03a3819c33461d97c3a7d9d01e86325dffaba5d659f15947010574e",
    "attach_mid_run":
        "e52d9c6b2ed2ea60ea4b4e68a38b17f0fcaa8356649e59caa55c105d5d99f4e5",
}

DURATION_SECONDS = 30.0

#: Nominal per-packet erasure probability of every node.
ERROR_RATES = {"ecg": 0.35, "imu": 0.25, "audio": 0.12, "ppg": 0.3,
               "pendant": 0.03}


class RecordingController(PERBackoffController):
    """PER backoff that keeps every observation it was shown."""

    def __init__(self, spec: ControllerSpec,
                 log: list[Observation]) -> None:
        super().__init__(spec)
        self.log = log

    def evaluate(self, observation: Observation):
        self.log.append(observation)
        return super().evaluate(observation)


def boosted_rate(name: str):
    base = ERROR_RATES[name]
    return lambda offset_db: base * 10.0 ** (-offset_db / 10.0)


def build(arbiter: str, *, cadence: float = 0.7, battery: bool = False
          ) -> tuple[BodyNetworkSimulator, ControllerSpec]:
    reliability = LinkReliability(seed=7, arq=ARQPolicy(retry_limit=3))
    simulator = BodyNetworkSimulator(
        wir_commercial(), rng=3, arbitration=arbiter,
        reliability=reliability, energy_update_interval_seconds=0.5)
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
        "ppg", PeriodicSource.from_rate(units.kilobit_per_second(32.0),
                                        bits_per_packet=1024.0)))
    if battery:
        # Starts just above its low-battery fraction and crosses it a
        # few seconds in; the cell outlasts the run.
        technology = wir_commercial()
        rate = units.kilobit_per_second(128.0)
        joules = 4.0 * DURATION_SECONDS * (
            rate * technology.tx_energy_per_bit()
            + units.microwatt(20.0) + technology.sleep_power())
        simulator.attach(NodeConfig(
            "pendant", PeriodicSource.from_rate(rate),
            sensing_power_watts=units.microwatt(20.0),
            battery=BatterySpec(name="pin-cell",
                                capacity_mah=joules / (3.6 * 3.0),
                                self_discharge_per_year=0.0),
            initial_charge_fraction=0.55, low_battery_fraction=0.5))
    for name in simulator.nodes:
        reliability.set_error_rate(name, ERROR_RATES[name])
    spec = ControllerSpec(kind="per_backoff", cadence_seconds=cadence)
    return simulator, spec


def attach_all(simulator: BodyNetworkSimulator, spec: ControllerSpec,
               log: list[Observation], names=None) -> None:
    for name in names if names is not None else list(simulator.nodes):
        simulator.attach_controller(
            name, RecordingController(spec, log),
            error_rate_fn=boosted_rate(name))


def sha256_of(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def check(case: str, result, log: list[Observation]) -> None:
    assert result.erased_attempts > 0
    assert result.retransmissions > 0
    assert any(observation.kind == "cadence" for observation in log)
    assert sha256_of(result.to_dict()) == RESULT_SHA256[case]
    assert sha256_of([dataclasses.asdict(observation)
                      for observation in log]) == OBSERVATION_SHA256[case]


@pytest.mark.parametrize("arbiter", ("fifo", "tdma", "polling"))
def test_exact_cadence_pinned(arbiter):
    simulator, spec = build(arbiter)
    log: list[Observation] = []
    attach_all(simulator, spec, log)
    result = simulator.run(DURATION_SECONDS)
    assert any(runtime.offset_db > 0.0
               for runtime in simulator.controllers.values())
    assert any(observation.queue_depth > 0 for observation in log)
    check(f"exact/{arbiter}", result, log)


def test_hybrid_cadence_pinned():
    from repro.netsim.macrotick import MacroTickEngine

    simulator, spec = build("tdma", cadence=2.0)
    log: list[Observation] = []
    attach_all(simulator, spec, log)
    assert spec.cadence_seconds >= MacroTickEngine(simulator).min_leap_seconds
    starts: list[float] = []
    kernel = simulator._run_kernel

    def counted(end_time: float) -> None:
        starts.append(simulator.queue.now)
        kernel(end_time)

    simulator._run_kernel = counted
    result = simulator.run(DURATION_SECONDS, fast_path="hybrid")
    # A leap from the start ends at the first tick, and the kernel
    # resumes there with that tick still to dispatch.
    assert starts[0] == spec.cadence_seconds
    assert len(starts) > 1
    check("hybrid", result, log)


def test_battery_crossing_under_cadence_pinned():
    simulator, spec = build("fifo", battery=True)
    log: list[Observation] = []
    attach_all(simulator, spec, log)
    result = simulator.run(DURATION_SECONDS)
    assert [event.kind for event in result.energy_events] == ["low_battery"]
    assert simulator.controllers["pendant"].offset_db == 0.0
    assert simulator.controllers["pendant"].tx_boost_energy_joules == 0.0
    pendant = [observation for observation in log
               if observation.kind == "cadence"
               and observation.low_battery]
    assert pendant and all(observation.tx_stride > 1
                           for observation in pendant)
    check("battery", result, log)


def test_controller_attached_mid_run_pinned():
    simulator, spec = build("polling")
    log: list[Observation] = []
    attach_all(simulator, spec, log, names=["audio"])
    simulator.queue.schedule_at(
        DURATION_SECONDS / 2.0,
        lambda: attach_all(simulator, spec, log, names=["ecg", "imu"]))
    result = simulator.run(DURATION_SECONDS)
    assert set(simulator.controllers) == {"audio", "ecg", "imu"}
    assert simulator.controllers["ecg"].evaluations > 0
    check("attach_mid_run", result, log)
