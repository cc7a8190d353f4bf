"""Energy substrate: batteries, harvesters, converters, energy accounting.

This package models the energy sources and sinks the paper's battery-life
projections rely on: coin-cell and Li-Po batteries (Fig. 3 assumes a
1000 mAh cell), indoor energy harvesting (10--200 uW), DC-DC conversion
losses, and a ledger that integrates per-component power draw over time.
The :mod:`~repro.energy.runtime` module closes the loop for the
discrete-event simulator: :class:`NodeEnergyState` composes a battery,
an optional harvester and the node's ledger into a streaming
state-of-charge with brownout (node death) and low-battery signalling.
"""

from .battery import (
    Battery,
    BatteryChemistry,
    BatterySpec,
    coin_cell_cr2032,
    coin_cell_high_capacity,
    lipo_smartwatch,
    lipo_smartphone,
    lipo_headset,
    battery_life_seconds,
)
from .harvester import (
    EnergyHarvester,
    HarvesterSpec,
    HarvestingEnvironment,
    indoor_photovoltaic,
    outdoor_photovoltaic,
    thermoelectric_body,
    kinetic_wrist,
    rf_ambient,
    total_harvested_power,
)
from .converter import DCDCConverter, ldo_regulator, buck_converter
from .ledger import EnergyLedger
from .runtime import NodeEnergyState

__all__ = [
    "Battery",
    "BatteryChemistry",
    "BatterySpec",
    "coin_cell_cr2032",
    "coin_cell_high_capacity",
    "lipo_smartwatch",
    "lipo_smartphone",
    "lipo_headset",
    "battery_life_seconds",
    "EnergyHarvester",
    "HarvesterSpec",
    "HarvestingEnvironment",
    "indoor_photovoltaic",
    "outdoor_photovoltaic",
    "thermoelectric_body",
    "kinetic_wrist",
    "rf_ambient",
    "total_harvested_power",
    "DCDCConverter",
    "ldo_regulator",
    "buck_converter",
    "EnergyLedger",
    "NodeEnergyState",
]
