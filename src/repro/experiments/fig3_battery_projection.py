"""E3 — Fig. 3: projected battery life of Wi-R wearables vs data rate.

Reproduces the paper's headline quantitative figure under its stated
assumptions (1000 mAh battery, 100 pJ/bit Wi-R, survey-based sensing
power, negligible computation) and checks the three claimed bands:
biopotential patches / smart rings / fitness trackers are perpetually
operable (>1 year), audio-input wearable AI reaches all-week life, and AI
video nodes reach all-day life.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.ble import ble_1m_phy
from ..comm.eqs_hbc import wir_commercial
from ..core.battery_life import (
    BatteryLifeProjection,
    battery_life_vs_data_rate,
)
from .. import units
from ..runner.registry import ExperimentSpec, register


@dataclass(frozen=True)
class Fig3Result:
    """Wi-R projection plus a BLE counterfactual at the same data rates."""

    wir: BatteryLifeProjection
    ble: BatteryLifeProjection

    def device_rows(self) -> list[dict[str, object]]:
        """The device-class rows of the figure (Wi-R column)."""
        return self.wir.as_rows()

    def curve_rows(self) -> list[dict[str, object]]:
        """The swept Wi-R curve (data rate, power, life, band)."""
        rows: list[dict[str, object]] = []
        for point in self.wir.curve:
            rows.append({
                "data_rate_bps": point.data_rate_bps,
                "sensing_power_uw": units.to_microwatt(point.sensing_power_watts),
                "comm_power_uw": units.to_microwatt(point.communication_power_watts),
                "life_days": point.life_days,
                "band": point.band.value,
            })
        return rows

    def bands_match_paper(self) -> bool:
        """Whether every annotated device class lands in its claimed band."""
        return all(row["matches_paper"] for row in self.wir.as_rows())

    def perpetual_rate_limit_bps(self) -> float:
        """Largest swept data rate that remains perpetually operable (Wi-R)."""
        return self.wir.perpetual_max_rate_bps()

    def wir_life_advantage_at(self, data_rate_bps: float) -> float:
        """Battery-life ratio Wi-R / BLE at the swept point nearest the rate.

        BLE's per-bit energy and sleep floor shorten life at every rate;
        the ratio grows with data rate and is the quantitative version of
        the paper's "<100x lower power than BLE" claim at the node level.
        """
        wir_point = min(self.wir.curve,
                        key=lambda p: abs(p.data_rate_bps - data_rate_bps))
        ble_point = min(self.ble.curve,
                        key=lambda p: abs(p.data_rate_bps - data_rate_bps))
        if ble_point.life_seconds == 0:
            return float("inf")
        return wir_point.life_seconds / ble_point.life_seconds


def run(n_points: int = 61) -> Fig3Result:
    """Sweep data rate for Wi-R and for the BLE counterfactual."""
    rates = np.logspace(2, 8, num=n_points)
    # BLE tops out below the high end of the sweep; cap the counterfactual
    # at its own goodput so the comparison stays physically meaningful.
    ble = ble_1m_phy()
    ble_rates = rates[rates <= ble.data_rate_bps()]
    return Fig3Result(
        wir=battery_life_vs_data_rate(rates, technology=wir_commercial()),
        ble=battery_life_vs_data_rate(ble_rates, technology=ble),
    )


def summarize_bands(result: Fig3Result) -> dict[str, str]:
    """Device class -> modelled band (for quick reporting)."""
    return {
        str(row["device_class"]): str(row["band"]) for row in result.device_rows()
    }


def _registry_summary(result: Fig3Result) -> list[str]:
    return ["perpetual region extends to "
            f"{result.perpetual_rate_limit_bps() / 1000.0:.0f} kb/s"]


register(ExperimentSpec(
    id="fig3",
    eid="E3",
    title="Fig. 3 — battery life vs data rate with Wi-R",
    module="fig3_battery_projection",
    run=run,
    rows=lambda result: result.device_rows(),
    summarize=_registry_summary,
    sweep_defaults={"n_points": (31, 61, 121)},
))
