"""Result pins for energy ticks that tie with scenario events.

A two-minute body on scaled CR2032 cells: the audio pendant browns out
mid-run, the IMU crosses its low-battery threshold and throttles, the
ECG patch banks a TEG surplus and the temperature node has no cell.
Sleep, wake and posture events sit at fractions of the duration that
land on whole seconds (0.25 -> 30.0 s, 0.5 -> 60.0 s), where the 1 s
energy ticks fire too, so the sequence-number tie-break between the
control stream and the energy ticks is part of what the digests pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import units
from repro.runner.artifacts import canonical_json
from repro.scenarios.spec import (ReliabilitySpec, ScenarioEvent,
                                  ScenarioNodeSpec, ScenarioSpec)
from repro.sensors import SensorModality

TICK_SHA256 = {
    "exact":
        "75e2c4bf956ac4fa105f364a24393062884c1796a8c18715072a8c9c79954615",
    "hybrid":
        "f3e57c17d2512a845c982ed5f8a40870e2e0711d4a57b601d19d050ec996d661",
}

CELL_SCALE = 6e-6


def tick_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="tick_pins",
        description="scaled cells with events tied to energy ticks",
        duration_seconds=120.0,
        arbitration="tdma",
        reliability=ReliabilitySpec(posture="sitting_office_chair",
                                    eqs_noise_rms_volts=5.5e-5,
                                    arq_retry_limit=3),
        nodes=(
            ScenarioNodeSpec(name="pendant", modality=SensorModality.AUDIO,
                             sensing_power_watts=units.microwatt(140.0),
                             isa_power_watts=units.microwatt(50.0),
                             battery="cr2032", battery_scale=CELL_SCALE),
            ScenarioNodeSpec(name="imu", modality=SensorModality.IMU,
                             bits_per_packet=4096.0,
                             sensing_power_watts=units.microwatt(15.0),
                             battery="cr2032",
                             battery_scale=CELL_SCALE * 8,
                             initial_charge_fraction=0.51,
                             low_battery_fraction=0.5),
            ScenarioNodeSpec(name="patch", modality=SensorModality.ECG,
                             bits_per_packet=4096.0,
                             sensing_power_watts=units.microwatt(30.0),
                             battery="cr2032",
                             battery_scale=CELL_SCALE * 8,
                             initial_charge_fraction=0.9, harvester="teg"),
            ScenarioNodeSpec(name="temp",
                             modality=SensorModality.TEMPERATURE,
                             bits_per_packet=128.0,
                             sensing_power_watts=units.microwatt(2.0)),
        ),
        events=(
            ScenarioEvent(at_fraction=0.25, action="sleep",
                          node_prefixes=("imu",)),
            ScenarioEvent(at_fraction=0.5, action="wake",
                          node_prefixes=("imu",)),
            ScenarioEvent(at_fraction=0.5, action="posture",
                          node_prefixes=("",), posture="walking"),
        ),
    )


def sha256_of(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fast_path", sorted(TICK_SHA256))
def test_energy_ticks_pinned(fast_path):
    spec = tick_spec()
    assert [event.at_fraction * spec.duration_seconds
            for event in spec.events] == [30.0, 60.0, 60.0]
    result = spec.build(seed=0).run(spec.duration_seconds,
                                    fast_path=fast_path)
    kinds = [(event.kind, event.node) for event in result.energy_events]
    assert kinds == [("brownout", "pendant"), ("low_battery", "imu")]
    assert result.per_node_state_of_charge["patch"] > 0.9
    assert result.harvested_joules > 0.0
    assert sha256_of(result.to_dict()) == TICK_SHA256[fast_path]
