"""E11 — the charging-burden argument behind "10x-ing the wearables market".

Section I closes with the market argument: making leaf nodes perpetual
"removes a key bottleneck of frequent charging of multiple wearables,
potentially expanding the wearable market by tenfold" (also ref [12]).
The underlying quantity is the *charging burden*: how many charge events
per week a user must perform as a function of how many wearables they
carry, under each architecture.

* Today's architecture: every device has its own CPU + radio and its own
  hours-to-week battery (the Fig. 2 survey), so charge events accumulate
  roughly linearly with the number of devices worn.
* Human-inspired architecture: leaf nodes are perpetual (or harvest-
  powered) and only the hub needs its daily charge, so the burden stays
  flat at ~7 events/week no matter how many leaves are added.

This experiment sweeps the number of wearables worn (1..15) and reports
the weekly charge events for both architectures, the crossover point and
the burden ratio at a "whole-body constellation" of 10 devices — the
paper's 10x framing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.survey import WEARABLE_SURVEY, estimate_battery_life_seconds
from ..core.battery_life import DEVICE_CLASS_PLACEMENTS, project_battery_life
from .. import units
from ..runner.registry import ExperimentSpec, register


@dataclass(frozen=True)
class ChargingPoint:
    """Charging burden at one wearable count."""

    device_count: int
    conventional_events_per_week: float
    human_inspired_events_per_week: float
    human_inspired_incremental_events_per_week: float

    @property
    def burden_ratio(self) -> float:
        """Conventional burden divided by total human-inspired burden."""
        if self.human_inspired_events_per_week == 0.0:
            return float("inf")
        return (self.conventional_events_per_week
                / self.human_inspired_events_per_week)

    @property
    def incremental_burden_ratio(self) -> float:
        """Burden ratio excluding the hub's daily charge.

        The hub is the smartphone/headset the user already charges daily,
        so the *additional* charging burden of wearing N devices is the
        quantity the paper's market argument rests on.
        """
        if self.human_inspired_incremental_events_per_week == 0.0:
            return float("inf")
        return (self.conventional_events_per_week
                / self.human_inspired_incremental_events_per_week)


@dataclass(frozen=True)
class ChargingBurdenResult:
    """The device-count sweep."""

    points: tuple[ChargingPoint, ...]
    conventional_mean_life_days: float
    leaf_classes_perpetual: int
    leaf_classes_total: int

    def at(self, device_count: int) -> ChargingPoint:
        """Charging burden at a specific wearable count."""
        for point in self.points:
            if point.device_count == device_count:
                return point
        raise KeyError(device_count)

    def incremental_burden_ratio_at(self, device_count: int) -> float:
        """Burden ratio excluding the hub's daily charge."""
        return self.at(device_count).incremental_burden_ratio

    def rows(self) -> list[dict[str, object]]:
        """Rows for the report table."""
        rows: list[dict[str, object]] = []
        for point in self.points:
            rows.append({
                "wearables_worn": point.device_count,
                "conventional_charges_per_week": point.conventional_events_per_week,
                "human_inspired_charges_per_week":
                    point.human_inspired_events_per_week,
                "human_inspired_beyond_hub_per_week":
                    point.human_inspired_incremental_events_per_week,
                "burden_ratio": point.burden_ratio,
                "incremental_burden_ratio": point.incremental_burden_ratio,
            })
        return rows


def _conventional_mean_life_seconds() -> float:
    """Average battery life across the Fig. 2 survey (today's devices)."""
    lives = [estimate_battery_life_seconds(device) for device in WEARABLE_SURVEY]
    return sum(lives) / len(lives)


def _leaf_perpetual_fraction() -> tuple[int, int]:
    """How many Fig. 3 device classes are perpetual under the new architecture."""
    perpetual = 0
    for placement in DEVICE_CLASS_PLACEMENTS:
        point = project_battery_life(
            placement.data_rate_bps,
            sensing_power_watts=placement.sensing_power_watts,
        )
        if point.is_perpetual:
            perpetual += 1
    return perpetual, len(DEVICE_CLASS_PLACEMENTS)


def run(max_devices: int = 15,
        hub_charges_per_week: float = 7.0,
        non_perpetual_leaf_charges_per_week: float = 1.0,
        ) -> ChargingBurdenResult:
    """Sweep the number of wearables worn and compare charging burdens.

    Parameters
    ----------
    max_devices:
        Largest wearable count evaluated.
    hub_charges_per_week:
        The hub's charging cadence (daily, per the paper).
    non_perpetual_leaf_charges_per_week:
        Charge events contributed by the minority of human-inspired leaf
        classes (audio/video) that are not perpetual; they reach all-week
        life, i.e. about one charge per week each.
    """
    if max_devices <= 0:
        raise ValueError("max_devices must be positive")
    conventional_life = _conventional_mean_life_seconds()
    conventional_per_device = units.SECONDS_PER_WEEK / conventional_life

    perpetual_classes, total_classes = _leaf_perpetual_fraction()
    non_perpetual_fraction = 1.0 - perpetual_classes / total_classes

    points = []
    for count in range(1, max_devices + 1):
        conventional = count * conventional_per_device
        non_perpetual_leaves = count * non_perpetual_fraction
        incremental = non_perpetual_leaves * non_perpetual_leaf_charges_per_week
        points.append(ChargingPoint(
            device_count=count,
            conventional_events_per_week=conventional,
            human_inspired_events_per_week=hub_charges_per_week + incremental,
            human_inspired_incremental_events_per_week=incremental,
        ))
    return ChargingBurdenResult(
        points=tuple(points),
        conventional_mean_life_days=units.to_days(conventional_life),
        leaf_classes_perpetual=perpetual_classes,
        leaf_classes_total=total_classes,
    )

def _registry_summary(result: ChargingBurdenResult) -> list[str]:
    # Clamp to the largest swept population so small max_devices grids
    # (e.g. the default sweep's 5-device point) still summarise cleanly.
    count = min(10, max(point.device_count for point in result.points))
    return [f"incremental burden ratio at {count} wearables: "
            f"{result.incremental_burden_ratio_at(count):.1f}x"]


register(ExperimentSpec(
    id="charging",
    eid="E11",
    title="Charging burden vs number of wearables worn",
    module="charging_burden",
    run=run,
    summarize=_registry_summary,
    sweep_defaults={"max_devices": (5, 10, 15)},
))
