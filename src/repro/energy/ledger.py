"""Per-component energy accounting.

An :class:`EnergyLedger` records how much energy each named component of a
node (sensor AFE, ISA block, radio, CPU, ...) has consumed.  The network
simulator and the architecture comparison both post here so that the
Fig. 1 power breakdown can be regenerated from simulated activity as
well as from closed-form budgets.

The ledger keeps O(1) state per component: a running total, a running
grand total and a post count.  Posting is O(1) and memory stays flat
however many posts a multi-hour simulation makes.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..errors import EnergyError


class EnergyLedger:
    """Accumulates energy per component and exposes breakdown summaries."""

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._grand_total = 0.0
        self._posted_count = 0

    # -- recording ---------------------------------------------------------

    def post(self, component: str, energy_joules: float) -> None:
        """Record that *component* consumed *energy_joules*.

        NaN, infinite or negative energy raises :class:`EnergyError`
        before anything is posted.
        """
        if not 0.0 <= energy_joules < math.inf:
            raise EnergyError(
                f"energy must be finite and non-negative: {energy_joules}")
        self.post_fast(component, energy_joules)

    def post_fast(self, component: str, energy_joules: float) -> None:
        """Unchecked :meth:`post`.

        The simulator kernel and the energy runtime post once or more
        per packet and per energy tick, and pass finite non-negative
        energy by construction.  The running totals take the same
        additions in the same order as :meth:`post`.
        """
        self._totals[component] = (self._totals.get(component, 0.0)
                                   + energy_joules)
        self._grand_total += energy_joules
        self._posted_count += 1

    def post_powers_fast(self, loads_watts: Mapping[str, float],
                         duration_seconds: float) -> None:
        """Unchecked :meth:`post_fast` of ``watts * duration`` per load.

        The energy runtime posts every static load of a node once per
        energy tick.  Each component takes the same additions, in the
        mapping's order, as one :meth:`post_fast` per load would.
        """
        totals = self._totals
        # The grand total accumulates in a local: the same additions, in
        # the same order, as per-post updates.
        grand = self._grand_total
        for component, watts in loads_watts.items():
            energy = watts * duration_seconds
            totals[component] = totals.get(component, 0.0) + energy
            grand += energy
        self._grand_total = grand
        self._posted_count += len(loads_watts)

    def post_power(self, component: str, power_watts: float,
                   duration_seconds: float) -> None:
        """Record a constant *power_watts* drawn for *duration_seconds*."""
        if not 0.0 <= power_watts < math.inf:
            raise EnergyError(
                f"power must be finite and non-negative: {power_watts}")
        if not 0.0 <= duration_seconds < math.inf:
            raise EnergyError(
                f"duration must be finite and non-negative: {duration_seconds}")
        self.post(component, power_watts * duration_seconds)

    # -- queries -----------------------------------------------------------

    @property
    def posted_count(self) -> int:
        """How many posts the totals hold."""
        return self._posted_count

    def total_energy(self, component: str | None = None) -> float:
        """Total posted energy, optionally restricted to one component."""
        if component is None:
            return self._grand_total
        return self._totals.get(component, 0.0)

    def components(self) -> list[str]:
        """All component names seen so far, in first-posted order."""
        return list(self._totals)

    def breakdown(self) -> dict[str, float]:
        """Energy per component as a dict (component -> joules)."""
        return dict(self._totals)

    def average_power(self, horizon_seconds: float,
                      component: str | None = None) -> float:
        """Average power over *horizon_seconds* (total energy / horizon)."""
        if not 0.0 < horizon_seconds < math.inf:
            raise EnergyError(
                f"horizon must be positive and finite: {horizon_seconds}")
        return self.total_energy(component) / horizon_seconds
