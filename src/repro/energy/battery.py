"""Battery models for wearable IoB nodes.

The paper's Fig. 3 projects battery life assuming a 1000 mAh high-capacity
coin cell.  Fig. 2 surveys commercial devices whose battery capacities span
from ~20 mAh (smart rings) to several thousand mAh (smartphones and
mixed-reality headsets).  This module provides:

* :class:`BatterySpec` — immutable description of a cell (capacity,
  voltage, usable fraction, self-discharge).
* :class:`Battery` — a stateful cell that can be drained/charged and
  reports remaining runtime for a given load.
* :func:`battery_life_seconds` — the closed-form projection used by the
  Fig. 3 reproduction (capacity / load power, with derating and
  self-discharge folded in).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError, EnergyError
from .. import units


class BatteryChemistry(enum.Enum):
    """Battery chemistries commonly found in wearables."""

    LITHIUM_COIN = "lithium_coin"
    LITHIUM_POLYMER = "lithium_polymer"
    SILVER_OXIDE = "silver_oxide"
    ZINC_AIR = "zinc_air"


#: Typical nominal terminal voltage per chemistry (volts).
NOMINAL_VOLTAGE = {
    BatteryChemistry.LITHIUM_COIN: 3.0,
    BatteryChemistry.LITHIUM_POLYMER: 3.7,
    BatteryChemistry.SILVER_OXIDE: 1.55,
    BatteryChemistry.ZINC_AIR: 1.4,
}

#: Typical self-discharge per year as a fraction of capacity.
SELF_DISCHARGE_PER_YEAR = {
    BatteryChemistry.LITHIUM_COIN: 0.01,
    BatteryChemistry.LITHIUM_POLYMER: 0.05,
    BatteryChemistry.SILVER_OXIDE: 0.10,
    BatteryChemistry.ZINC_AIR: 0.08,
}


@dataclass(frozen=True)
class BatterySpec:
    """Immutable description of a battery cell.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"CR2032"``).
    capacity_mah:
        Rated capacity in milliamp-hours.
    chemistry:
        One of :class:`BatteryChemistry`.
    voltage:
        Nominal terminal voltage.  Defaults to the chemistry's typical value.
    usable_fraction:
        Fraction of the rated capacity actually deliverable to the load
        before the cell voltage collapses (derating).  1.0 means ideal.
    self_discharge_per_year:
        Fraction of capacity lost per year to leakage.  Defaults to the
        chemistry's typical value.

    The energy runtime reads the cell constants below on every drain,
    so they are computed once, at construction.

    Attributes
    ----------
    energy_joules:
        Total rated energy content in joules.
    usable_energy_joules:
        Deliverable energy in joules after derating.
    leakage_power_watts:
        Equivalent constant leakage power due to self-discharge.
    empty_threshold_joules:
        One ulp of the usable energy: a state of charge at or below it
        counts as empty (see :attr:`Battery.is_empty`).
    """

    name: str
    capacity_mah: float
    chemistry: BatteryChemistry = BatteryChemistry.LITHIUM_COIN
    voltage: float | None = None
    usable_fraction: float = 1.0
    self_discharge_per_year: float | None = None

    def __post_init__(self) -> None:
        if self.capacity_mah < 0:
            raise ConfigurationError(
                f"battery capacity must be non-negative, got {self.capacity_mah}"
            )
        if not 0.0 < self.usable_fraction <= 1.0:
            raise ConfigurationError(
                f"usable_fraction must be in (0, 1], got {self.usable_fraction}"
            )
        if self.voltage is not None and self.voltage <= 0:
            raise ConfigurationError(f"voltage must be positive, got {self.voltage}")
        if self.self_discharge_per_year is not None and not (
            0.0 <= self.self_discharge_per_year < 1.0
        ):
            raise ConfigurationError(
                "self_discharge_per_year must be in [0, 1), got "
                f"{self.self_discharge_per_year}"
            )
        energy = units.mAh(self.capacity_mah, volts=self.nominal_voltage)
        usable = energy * self.usable_fraction
        # Frozen dataclass: derived constants are set past __setattr__.
        object.__setattr__(self, "energy_joules", energy)
        object.__setattr__(self, "usable_energy_joules", usable)
        object.__setattr__(
            self, "leakage_power_watts",
            energy * self.leakage_fraction_per_year / units.SECONDS_PER_YEAR)
        object.__setattr__(self, "empty_threshold_joules", math.ulp(usable))

    @property
    def nominal_voltage(self) -> float:
        """Terminal voltage, falling back to the chemistry's typical value."""
        if self.voltage is not None:
            return self.voltage
        return NOMINAL_VOLTAGE[self.chemistry]

    @property
    def leakage_fraction_per_year(self) -> float:
        """Self-discharge per year, falling back to the chemistry default."""
        if self.self_discharge_per_year is not None:
            return self.self_discharge_per_year
        return SELF_DISCHARGE_PER_YEAR[self.chemistry]


def coin_cell_cr2032() -> BatterySpec:
    """Standard CR2032 lithium coin cell (225 mAh, 3 V)."""
    return BatterySpec(name="CR2032", capacity_mah=225.0)


def coin_cell_high_capacity() -> BatterySpec:
    """High-capacity coin cell assumed by the paper's Fig. 3 (1000 mAh)."""
    return BatterySpec(name="high-capacity coin cell", capacity_mah=1000.0)


def lipo_smartwatch() -> BatterySpec:
    """Typical smartwatch Li-Po pack (~300 mAh, 3.7 V)."""
    return BatterySpec(
        name="smartwatch Li-Po",
        capacity_mah=300.0,
        chemistry=BatteryChemistry.LITHIUM_POLYMER,
    )


def lipo_smartphone() -> BatterySpec:
    """Typical smartphone Li-Po pack (~4000 mAh, 3.85 V)."""
    return BatterySpec(
        name="smartphone Li-Po",
        capacity_mah=4000.0,
        chemistry=BatteryChemistry.LITHIUM_POLYMER,
        voltage=3.85,
    )


def lipo_headset() -> BatterySpec:
    """Typical mixed-reality headset pack (~3500 mAh, 3.85 V)."""
    return BatterySpec(
        name="MR headset Li-Po",
        capacity_mah=3500.0,
        chemistry=BatteryChemistry.LITHIUM_POLYMER,
        voltage=3.85,
    )


def battery_life_seconds(
    spec: BatterySpec,
    load_power_watts: float,
    harvested_power_watts: float = 0.0,
    include_self_discharge: bool = True,
) -> float:
    """Project how long *spec* sustains a constant *load_power_watts*.

    This is the closed-form projection underpinning the paper's Fig. 3:
    battery life equals usable energy divided by net drain.  Harvested
    power offsets the load; if harvesting meets or exceeds the total drain
    the projected life is infinite (``math.inf``), which the paper labels
    "perpetually operable" when it exceeds one year.

    Parameters
    ----------
    spec:
        The battery to project.
    load_power_watts:
        Constant average load (sensing + computation + communication).
    harvested_power_watts:
        Average harvested power available to offset the load.
    include_self_discharge:
        Whether to add the cell's self-discharge as an extra drain.
    """
    if load_power_watts < 0:
        raise EnergyError(f"load power must be non-negative, got {load_power_watts}")
    if harvested_power_watts < 0:
        raise EnergyError(
            f"harvested power must be non-negative, got {harvested_power_watts}"
        )
    drain = load_power_watts
    if include_self_discharge:
        drain += spec.leakage_power_watts
    drain -= harvested_power_watts
    if drain <= 0.0:
        return math.inf
    return spec.usable_energy_joules / drain


@dataclass
class Battery:
    """A stateful battery that can be drained and recharged.

    The state of charge is tracked in joules.  Draining below empty raises
    :class:`repro.errors.EnergyError` unless ``clip=True`` is passed, in
    which case the cell empties and reports the unserved energy.
    """

    spec: BatterySpec
    state_of_charge_joules: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.state_of_charge_joules < 0:
            self.state_of_charge_joules = self.spec.usable_energy_joules
        if self.state_of_charge_joules > self.spec.usable_energy_joules:
            raise ConfigurationError(
                "initial state of charge exceeds usable capacity"
            )

    @property
    def state_of_charge_fraction(self) -> float:
        """Remaining charge as a fraction of usable capacity (0..1).

        Clamped to [0, 1] so float residue at either boundary (a charge
        landing one ulp above full, a drain one ulp below empty) never
        leaks out of the contract range.
        """
        usable = self.spec.usable_energy_joules
        if usable == 0.0:
            return 0.0
        return min(max(self.state_of_charge_joules / usable, 0.0), 1.0)

    @property
    def is_empty(self) -> bool:
        """Whether the cell has been fully drained.

        Robust to ±1 ulp of residue: a state of charge within one ulp of
        the usable capacity's zero counts as empty, so a sequence of
        drains that mathematically exhausts the cell cannot leave it
        "almost empty" forever on float dust.
        """
        return self.state_of_charge_joules <= self.spec.empty_threshold_joules

    def drain(self, energy_joules: float, clip: bool = False) -> float:
        """Remove *energy_joules* from the cell.

        Returns the energy actually delivered.  With ``clip=False`` (the
        default) attempting to over-drain raises :class:`EnergyError`; with
        ``clip=True`` the cell empties and the shortfall is simply not
        delivered.  NaN, infinite or negative energy raises
        :class:`EnergyError` before the charge changes.
        """
        if not 0.0 <= energy_joules < math.inf:
            raise EnergyError(
                f"drain energy must be finite and non-negative: {energy_joules}")
        if not clip and energy_joules > self.state_of_charge_joules:
            raise EnergyError(
                f"drain of {energy_joules:.3e} J exceeds remaining charge "
                f"{self.state_of_charge_joules:.3e} J"
            )
        return self.drain_fast(energy_joules)

    def drain_fast(self, energy_joules: float) -> float:
        """Unchecked clipping :meth:`drain` (``clip=True``).

        The energy runtime drains once per packet and validates the
        energy itself; callers pass finite non-negative energy.
        Returns the energy actually delivered.
        """
        soc = self.state_of_charge_joules
        if energy_joules <= soc:
            # 0 <= e <= soc, so the rounded soc - e is never negative.
            self.state_of_charge_joules = soc - energy_joules
            return energy_joules
        self.state_of_charge_joules = 0.0
        return soc

    def charge(self, energy_joules: float) -> float:
        """Add *energy_joules* to the cell, clipping at full capacity.

        Returns the energy actually stored.
        """
        if not energy_joules >= 0.0:  # NaN-safe
            raise EnergyError(
                f"charge energy must be non-negative: {energy_joules}")
        headroom = max(
            self.spec.usable_energy_joules - self.state_of_charge_joules, 0.0)
        stored = min(energy_joules, headroom)
        # soc + (usable - soc) can land one ulp above usable; clamp so a
        # full cell is *exactly* full.
        self.state_of_charge_joules = min(
            self.state_of_charge_joules + stored,
            self.spec.usable_energy_joules)
        return stored

    def run(self, load_power_watts: float, duration_seconds: float,
            harvested_power_watts: float = 0.0) -> float:
        """Advance the cell by *duration_seconds* under a constant load.

        Harvested power first offsets the load; any surplus recharges the
        cell.  Returns the duration actually sustained (shorter than
        requested only if the cell empties part-way).  A NaN, infinite
        or negative duration or power raises :class:`EnergyError` before
        the charge changes.
        """
        if not 0.0 <= duration_seconds < math.inf:
            raise EnergyError(
                f"duration must be finite and non-negative: {duration_seconds}")
        if not (0.0 <= load_power_watts < math.inf
                and 0.0 <= harvested_power_watts < math.inf):
            raise EnergyError(
                "powers must be finite and non-negative, got load "
                f"{load_power_watts} W and harvest {harvested_power_watts} W")
        return self.run_fast(load_power_watts, duration_seconds,
                             harvested_power_watts)

    def run_fast(self, load_power_watts: float, duration_seconds: float,
                 harvested_power_watts: float) -> float:
        """Unchecked :meth:`run` for callers that validated the inputs.

        The energy runtime advances every battery node once per energy
        tick; callers pass a finite non-negative duration and powers.
        """
        net = load_power_watts - harvested_power_watts
        if net <= 0.0:
            self.charge(-net * duration_seconds)
            return duration_seconds
        required = net * duration_seconds
        soc = self.state_of_charge_joules
        if required <= soc:
            self.state_of_charge_joules = soc - required
            return duration_seconds
        self.state_of_charge_joules = 0.0
        return soc / net

    def projected_life_seconds(self, load_power_watts: float,
                               harvested_power_watts: float = 0.0) -> float:
        """Projected runtime from the *current* state of charge."""
        net = load_power_watts - harvested_power_watts
        net += self.spec.leakage_power_watts
        if net <= 0.0:
            return math.inf
        return self.state_of_charge_joules / net
