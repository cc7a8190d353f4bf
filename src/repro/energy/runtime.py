"""Closed-loop node energy state: battery + harvester + ledger.

The closed-form experiments (Fig. 3, perpetual operation) project
lifetime from average power; :class:`NodeEnergyState` closes that loop
inside the discrete-event simulator.  It composes a stateful
:class:`~repro.energy.battery.Battery` (built from a
:class:`~repro.energy.battery.BatterySpec`), an optional
:class:`~repro.energy.harvester.EnergyHarvester` and the node's
:class:`~repro.energy.ledger.EnergyLedger`, and exposes exactly two
mutations:

* :meth:`drain` — an impulse drain (one packet transmission): post the
  energy to the ledger and remove it from the battery.
* :meth:`advance` — an interval drain (sensing/ISA/sleep power over a
  tick): post each load component, then net the total load, the cell's
  self-discharge and the harvested power against the battery.

Both detect *brownout*: the instant the battery empties, the state
records ``death_seconds`` (interpolated within the interval, so coarse
ticks still resolve the death time accurately) and freezes — a dead node
consumes nothing and posts nothing.  Nodes without a battery never die
(mains/hub-powered); nodes with a harvester whose income meets the load
recharge instead of draining ("perpetually operable" in the paper's
terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import EnergyError
from .battery import Battery, BatterySpec
from .harvester import EnergyHarvester, HarvestingEnvironment
from .ledger import EnergyLedger


@dataclass
class NodeEnergyState:
    """Streaming energy state of one simulated node.

    Parameters
    ----------
    battery:
        The node's cell, or ``None`` for an unconstrained (mains or
        hub-powered) node that can never brown out.
    harvester:
        Optional energy harvester crediting the battery continuously.
    environment:
        Harvesting environment the harvester operates in.
    ledger:
        Where consumption is posted.  The ledger records *demand served*:
        a node that browns out mid-interval only posts the sustained
        fraction.  Harvested energy is not posted (it is income, not
        consumption); it is tracked in :attr:`harvested_joules`.
    low_battery_fraction:
        State-of-charge fraction below which the owner should adapt its
        duty cycle (``None`` disables the signal).  The state only
        reports the crossing via :meth:`is_low_battery`; policy reactions
        live in the simulator.
    include_self_discharge:
        Whether the cell's self-discharge leaks from the battery as a
        constant extra drain (matches the closed-form projections).
    """

    battery: Battery | None = None
    harvester: EnergyHarvester | None = None
    environment: HarvestingEnvironment = HarvestingEnvironment.INDOOR_OFFICE
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    low_battery_fraction: float | None = None
    include_self_discharge: bool = True
    harvested_joules: float = 0.0
    death_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.low_battery_fraction is not None and not (
                0.0 < self.low_battery_fraction < 1.0):
            raise EnergyError(
                "low-battery fraction must be in (0, 1), got "
                f"{self.low_battery_fraction}")

    @classmethod
    def from_spec(cls, battery: BatterySpec | None = None,
                  harvester: EnergyHarvester | None = None,
                  environment: HarvestingEnvironment =
                  HarvestingEnvironment.INDOOR_OFFICE,
                  initial_charge_fraction: float = 1.0,
                  ledger: EnergyLedger | None = None,
                  low_battery_fraction: float | None = None,
                  ) -> "NodeEnergyState":
        """Build a state from an immutable battery spec."""
        if not 0.0 < initial_charge_fraction <= 1.0:
            raise EnergyError(
                "initial charge fraction must be in (0, 1], got "
                f"{initial_charge_fraction}")
        cell = None
        if battery is not None:
            cell = Battery(
                spec=battery,
                state_of_charge_joules=(battery.usable_energy_joules
                                        * initial_charge_fraction),
            )
        return cls(battery=cell, harvester=harvester,
                   environment=environment,
                   ledger=ledger if ledger is not None else EnergyLedger(),
                   low_battery_fraction=low_battery_fraction)

    # -- derived views -----------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the node still has energy to operate."""
        return self.death_seconds is None

    @property
    def state_of_charge_fraction(self) -> float:
        """Battery state of charge (1.0 for unconstrained nodes)."""
        if self.battery is None:
            return 1.0
        return self.battery.state_of_charge_fraction

    @property
    def harvest_power_watts(self) -> float:
        """Average harvested power in the configured environment."""
        if self.harvester is None:
            return 0.0
        return self.harvester.power_watts(self.environment)

    @property
    def leakage_power_watts(self) -> float:
        """Self-discharge drain (0 when disabled or batteryless)."""
        if self.battery is None or not self.include_self_discharge:
            return 0.0
        return self.battery.spec.leakage_power_watts

    def is_low_battery(self) -> bool:
        """Whether the charge has crossed the low-battery threshold."""
        if self.low_battery_fraction is None or self.battery is None:
            return False
        return self.state_of_charge_fraction < self.low_battery_fraction

    def projected_life_seconds(self, load_power_watts: float) -> float:
        """Runtime from the current charge under a constant load.

        Self-discharge is folded in via the battery's own projection
        (matching :func:`repro.energy.battery.battery_life_seconds`);
        when disabled the harvested power is credited with the leakage
        so the two cancel.
        """
        if self.battery is None:
            return math.inf
        harvest = self.harvest_power_watts
        if not self.include_self_discharge:
            harvest += self.battery.spec.leakage_power_watts
        return self.battery.projected_life_seconds(
            load_power_watts, harvested_power_watts=harvest)

    # -- mutations ---------------------------------------------------------

    def drain(self, component: str, energy_joules: float,
              timestamp_seconds: float, note: str = "") -> float:
        """Impulse drain (e.g. one packet's TX energy).

        Posts to the ledger and removes the energy from the battery,
        clipping at empty; an empty cell marks the node dead at
        *timestamp_seconds*.  Returns the energy actually delivered.
        Dead nodes deliver nothing and post nothing.  NaN, infinite or
        negative energy, or a non-finite timestamp, raises
        :class:`EnergyError` before any state changes.
        """
        if not (0.0 <= energy_joules < math.inf
                and -math.inf < timestamp_seconds < math.inf):
            raise EnergyError(
                f"drain of {energy_joules} J at {timestamp_seconds} s: energy "
                "must be finite and non-negative, the time finite")
        if self.death_seconds is not None:
            return 0.0
        battery = self.battery
        if battery is None:
            self.ledger.post_fast(component, energy_joules, timestamp_seconds,
                                  0.0, note)
            return energy_joules
        delivered = battery.drain_fast(energy_joules)
        if delivered > 0.0:
            self.ledger.post_fast(component, delivered, timestamp_seconds,
                                  0.0, note)
        # ``battery.is_empty``, without the property call.
        if (battery.state_of_charge_joules
                <= battery.spec.empty_threshold_joules):
            self.death_seconds = timestamp_seconds
        return delivered

    def advance(self, loads_watts: Mapping[str, float],
                duration_seconds: float, end_timestamp_seconds: float) -> float:
        """Interval drain: serve *loads_watts* for *duration_seconds*.

        The interval ends at *end_timestamp_seconds*.  The total load
        plus self-discharge is netted against the harvested power; a
        surplus recharges the battery (clipped at full), a deficit
        drains it.  If the cell empties part-way the death time is
        interpolated inside the interval and only the sustained
        fraction of each load is posted.  Returns the sustained
        duration.  A NaN, infinite or negative duration or load, or a
        non-finite end time, raises :class:`EnergyError` before any
        state changes.
        """
        if not (0.0 <= duration_seconds < math.inf
                and -math.inf < end_timestamp_seconds < math.inf):
            raise EnergyError(
                f"interval of {duration_seconds} s ending at "
                f"{end_timestamp_seconds} s: duration must be finite and "
                "non-negative, the end time finite")
        if self.death_seconds is not None or duration_seconds == 0.0:
            return 0.0
        load = 0.0
        for watts in loads_watts.values():
            if not 0.0 <= watts < math.inf:
                raise EnergyError(
                    f"load powers must be finite and non-negative: {watts}")
            load += watts
        harvest = self.harvest_power_watts
        if not (load < math.inf and 0.0 <= harvest < math.inf):
            raise EnergyError(
                f"total load {load} W and harvest {harvest} W must be "
                "finite and non-negative")
        sustained = duration_seconds
        battery = self.battery
        if battery is not None:
            sustained = battery.run_fast(
                load + self.leakage_power_watts, duration_seconds, harvest)
        self.harvested_joules += harvest * sustained
        stamp = end_timestamp_seconds - duration_seconds + sustained
        self.ledger.post_powers_fast(loads_watts, sustained, stamp)
        if (battery is not None and battery.state_of_charge_joules
                <= battery.spec.empty_threshold_joules):
            self.death_seconds = stamp
        return sustained
