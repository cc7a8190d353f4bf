"""One fidelity contract: how close a fast path must stay to the DES.

The macro-tick hybrid (:mod:`repro.netsim.macrotick`) and the analytic
cohort closed forms (:mod:`repro.cohort.analytic`) stand in for the
exact kernel.  Every check that one of them is right reads this module:
:func:`compare` returns the named gaps of a fast :class:`Readout` from
the exact one, and :data:`HYBRID` and :data:`ANALYTIC` bound them.

A gap is measured against the exact side: relative
(``|fast - exact| / |exact|``), absolute (``|fast - exact|``) or, for
latencies, the factor ``max(r, 1 / r)`` of ``r = fast / exact``.  When
the exact value is 0, a fast 0 shows no gap (0, or a factor of 1) and
any other fast value an infinite one; absolute gaps need no such rule.
A gap passes when it is ``<=`` its tolerance (NaN never does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .simulator import SimulationResult

#: Utilisation at or above which neither fast path is trusted: the
#: macro-tick engine refuses to leap, and the analytic latency figures
#: only signal saturation.
VALIDITY_UTILIZATION = 0.9


@dataclass(frozen=True)
class Readout:
    """What a run reports; a quantity left ``None`` is not compared."""

    leaf_power_watts: float | None = None
    hub_power_watts: float | None = None
    delivered_fraction: float | None = None
    mean_latency_seconds: float | None = None
    p99_latency_seconds: float | None = None
    bus_utilization: float | None = None
    alive_fraction: float | None = None
    offered_packets: float | None = None
    goodput_bps: float | None = None

    @classmethod
    def of_result(cls, result: SimulationResult) -> Readout:
        return cls(
            leaf_power_watts=result.total_leaf_power_watts,
            hub_power_watts=result.hub_average_power_watts,
            delivered_fraction=result.delivered_fraction,
            mean_latency_seconds=result.mean_latency_seconds,
            p99_latency_seconds=result.p99_latency_seconds,
            bus_utilization=result.bus_utilization,
            alive_fraction=result.alive_fraction,
            offered_packets=result.offered_packets,
            goodput_bps=math.fsum(result.per_node_goodput_bps.values()))

    @classmethod
    def of_member(cls, metrics) -> Readout:
        """A cohort member's ``MemberMetrics``, which carry every
        quantity but the traffic totals."""
        return cls(**{field.name: getattr(metrics, field.name)
                      for field in fields(cls)
                      if field.name not in ("offered_packets", "goodput_bps")})


def ratio(fast: float, exact: float) -> float:
    """``fast / exact``, 1 when both are 0 and infinite when only
    *exact* is."""
    if exact == 0.0:
        return 1.0 if fast == 0.0 else math.inf
    return fast / exact


def _relative(fast: float, exact: float) -> float:
    if exact == 0.0:
        return 0.0 if fast == 0.0 else math.inf
    return abs(fast - exact) / abs(exact)


def _absolute(fast: float, exact: float) -> float:
    return abs(fast - exact)


def _factor(fast: float, exact: float) -> float:
    value = ratio(fast, exact)
    return math.inf if value == 0.0 else max(value, 1.0 / value)


#: Every gap, in report order: the readout field it compares and how.
_GAPS = {
    "leaf_power_rel_error": ("leaf_power_watts", _relative),
    "hub_power_rel_error": ("hub_power_watts", _relative),
    "delivered_fraction_abs_error": ("delivered_fraction", _absolute),
    "mean_latency_factor": ("mean_latency_seconds", _factor),
    "p99_latency_factor": ("p99_latency_seconds", _factor),
    "bus_utilization_abs_error": ("bus_utilization", _absolute),
    "alive_fraction_abs_error": ("alive_fraction", _absolute),
    "offered_packets_rel_error": ("offered_packets", _relative),
    "goodput_rel_error": ("goodput_bps", _relative),
}
GAP_NAMES = tuple(_GAPS)

#: Macro-tick hybrid vs the exact kernel.
HYBRID = {
    "leaf_power_rel_error": 0.05,
    "hub_power_rel_error": 0.05,
    "delivered_fraction_abs_error": 0.05,
    "mean_latency_factor": 2.5,
    "p99_latency_factor": 3.0,
    "bus_utilization_abs_error": 0.02,
    "alive_fraction_abs_error": 0.05,
    "offered_packets_rel_error": 0.05,
    "goodput_rel_error": 0.05,
}

#: Analytic closed forms vs the DES, below :data:`VALIDITY_UTILIZATION`.
ANALYTIC = {
    "leaf_power_rel_error": 0.05,
    "hub_power_rel_error": 0.05,
    "delivered_fraction_abs_error": 0.05,
    "mean_latency_factor": 2.5,
    "p99_latency_factor": 3.0,
    "bus_utilization_abs_error": 0.02,
    "alive_fraction_abs_error": 0.05,
}


class Gaps(dict):
    """Named gaps of a fast path from the exact one."""

    def beyond(self, table: Mapping[str, float]) -> dict[str, float]:
        """The gaps *table* bounds that exceed their tolerance."""
        return {name: gap for name, gap in self.items()
                if name in table and not gap <= table[name]}


def compare(fast: Readout, exact: Readout) -> Gaps:
    """Every gap both readouts report, in :data:`GAP_NAMES` order."""
    gaps = Gaps()
    for name, (field, measure) in _GAPS.items():
        fast_value, exact_value = getattr(fast, field), getattr(exact, field)
        if fast_value is not None and exact_value is not None:
            gaps[name] = measure(fast_value, exact_value)
    return gaps


def worst(gap_sets: Iterable[Gaps]) -> Gaps:
    """Per name, the largest gap of several comparisons (the first of
    equal ones, as :func:`max` picks)."""
    result = Gaps()
    for gaps in gap_sets:
        for name, gap in gaps.items():
            if name not in result or gap > result[name]:
                result[name] = gap
    return result
