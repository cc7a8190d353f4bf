"""E2 — Fig. 2: battery life of currently available wearable devices.

The figure groups pre-2024 wearables and 2024 wearable-AI devices and
annotates each with a typical battery-life band.  The reproduction
recomputes every device's life from a representative battery capacity and
average platform power and checks the resulting band against the paper's
label.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.survey import (
    WEARABLE_SURVEY,
    estimate_battery_life_seconds,
    survey_rows,
)
from ..core.battery_life import LifeBand, classify_battery_life
from ..runner.registry import ExperimentSpec, register


@dataclass(frozen=True)
class Fig2Result:
    """The survey rows plus agreement statistics."""

    rows: list[dict[str, object]]

    @property
    def device_count(self) -> int:
        """Number of surveyed device classes."""
        return len(self.rows)

    @property
    def matching_bands(self) -> int:
        """Devices whose modelled band matches the paper's claim."""
        return sum(1 for row in self.rows if row["matches_claim"])

    @property
    def agreement_fraction(self) -> float:
        """Fraction of devices in the band the paper claims."""
        if not self.rows:
            return 0.0
        return self.matching_bands / self.device_count

    def band_of(self, device_name: str) -> LifeBand:
        """Modelled band for one device class."""
        for row in self.rows:
            if row["device"] == device_name:
                return LifeBand(row["band"])
        raise KeyError(device_name)


def run() -> Fig2Result:
    """Recompute the Fig. 2 survey."""
    return Fig2Result(rows=survey_rows())


def longest_and_shortest_lived() -> tuple[str, str]:
    """Names of the longest- and shortest-lived surveyed devices."""
    lives = {
        device.name: estimate_battery_life_seconds(device)
        for device in WEARABLE_SURVEY
    }
    longest = max(lives, key=lives.get)
    shortest = min(lives, key=lives.get)
    return longest, shortest


def band_histogram() -> dict[str, int]:
    """Count of surveyed devices per modelled life band."""
    counts: dict[str, int] = {}
    for device in WEARABLE_SURVEY:
        band = classify_battery_life(estimate_battery_life_seconds(device))
        counts[band.value] = counts.get(band.value, 0) + 1
    return counts

def _registry_summary(result: Fig2Result) -> list[str]:
    return ["band agreement with the paper: "
            f"{result.agreement_fraction * 100.0:.0f} %"]


register(ExperimentSpec(
    id="fig2",
    eid="E2",
    title="Fig. 2 — battery life of commercial wearables",
    module="fig2_battery_survey",
    run=run,
    summarize=_registry_summary,
))
