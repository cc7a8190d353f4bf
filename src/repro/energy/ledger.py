"""Per-component energy accounting.

An :class:`EnergyLedger` records how much energy each named component of a
node (sensor AFE, ISA block, radio, CPU, ...) has consumed.  The network
simulator and the architecture comparison both post here so that the
Fig. 1 power breakdown can be regenerated from simulated activity as
well as from closed-form budgets.

The ledger keeps O(1) state per component: a running total, a running
grand total, a post count and a fixed-width time-bucketed power trace.
Posting is O(1) and memory stays flat however many posts a multi-hour
simulation makes.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping

import numpy as np

from ..errors import EnergyError

#: Default width of one power-trace bucket (seconds).
DEFAULT_TRACE_BUCKET_SECONDS = 60.0

#: Default number of power-trace buckets.  Posts beyond the covered
#: window accumulate into the final bucket, so memory is fixed.
DEFAULT_TRACE_BUCKETS = 64


def _check_post(energy_joules: float, duration_seconds: float,
                timestamp_seconds: float) -> None:
    """Reject a post that would poison the totals (NaN-safe)."""
    if not 0.0 <= energy_joules < math.inf:
        raise EnergyError(
            f"energy must be finite and non-negative: {energy_joules}")
    if not 0.0 <= duration_seconds < math.inf:
        raise EnergyError(
            f"duration must be finite and non-negative: {duration_seconds}")
    if not -math.inf < timestamp_seconds < math.inf:
        raise EnergyError(f"timestamp must be finite: {timestamp_seconds}")


class EnergyLedger:
    """Accumulates energy per component and exposes breakdown summaries.

    Parameters
    ----------
    trace_bucket_seconds:
        Width of one power-trace bucket.
    trace_buckets:
        Number of trace buckets.  Energy posted past the covered window
        lands in the last bucket.
    """

    def __init__(self,
                 trace_bucket_seconds: float = DEFAULT_TRACE_BUCKET_SECONDS,
                 trace_buckets: int = DEFAULT_TRACE_BUCKETS) -> None:
        if not 0.0 < trace_bucket_seconds < math.inf:
            raise EnergyError(
                "trace bucket width must be positive and finite: "
                f"{trace_bucket_seconds}")
        if not isinstance(trace_buckets, numbers.Integral) or trace_buckets < 1:
            raise EnergyError(
                "trace needs a whole number of buckets, at least one: "
                f"{trace_buckets}")
        self.trace_bucket_seconds = trace_bucket_seconds
        self.trace_buckets = trace_buckets
        self._totals: dict[str, float] = {}
        self._grand_total = 0.0
        self._posted_count = 0
        # Plain Python list, not an ndarray: the simulator kernel posts
        # per-packet energy millions of times per run, and a list index
        # add is several times cheaper than a numpy scalar update.  The
        # float arithmetic is identical (IEEE doubles either way).
        self._trace: list[float] = [0.0] * trace_buckets

    # -- recording ---------------------------------------------------------

    def post(self, component: str, energy_joules: float,
             duration_seconds: float = 0.0,
             timestamp_seconds: float = 0.0) -> None:
        """Record that *component* consumed *energy_joules*.

        NaN, infinite or negative energy or duration, and a non-finite
        timestamp, raise :class:`EnergyError` before anything is posted.
        """
        _check_post(energy_joules, duration_seconds, timestamp_seconds)
        self.post_fast(component, energy_joules, timestamp_seconds)

    def post_fast(self, component: str, energy_joules: float,
                  timestamp_seconds: float) -> None:
        """Unchecked :meth:`post`.

        The simulator kernel and the energy runtime post once or more
        per packet and per energy tick, and pass finite non-negative
        energy by construction.  The running totals and trace take the
        same additions in the same order as :meth:`post`.
        """
        self._totals[component] = (self._totals.get(component, 0.0)
                                   + energy_joules)
        self._grand_total += energy_joules
        self._posted_count += 1
        bucket = int(timestamp_seconds / self.trace_bucket_seconds)
        if bucket >= self.trace_buckets:
            bucket = self.trace_buckets - 1
        elif bucket < 0:
            bucket = 0
        self._trace[bucket] += energy_joules

    def post_powers_fast(self, loads_watts: Mapping[str, float],
                         duration_seconds: float,
                         timestamp_seconds: float) -> None:
        """Unchecked :meth:`post_fast` of ``watts * duration`` per load.

        The energy runtime posts every static load of a node once per
        energy tick, all at one timestamp, so the trace bucket is
        computed once.  Each component takes the same additions, in the
        mapping's order, as one :meth:`post_fast` per load would.
        """
        bucket = int(timestamp_seconds / self.trace_bucket_seconds)
        if bucket >= self.trace_buckets:
            bucket = self.trace_buckets - 1
        elif bucket < 0:
            bucket = 0
        totals = self._totals
        # The grand total and the one trace bucket accumulate in locals:
        # the same additions, in the same order, as per-post updates.
        grand = self._grand_total
        cell = self._trace[bucket]
        for component, watts in loads_watts.items():
            energy = watts * duration_seconds
            totals[component] = totals.get(component, 0.0) + energy
            grand += energy
            cell += energy
        self._grand_total = grand
        self._trace[bucket] = cell
        self._posted_count += len(loads_watts)

    def post_power(self, component: str, power_watts: float,
                   duration_seconds: float,
                   timestamp_seconds: float = 0.0) -> None:
        """Record a constant *power_watts* drawn for *duration_seconds*."""
        if not 0.0 <= power_watts < math.inf:
            raise EnergyError(
                f"power must be finite and non-negative: {power_watts}")
        self.post(component, power_watts * duration_seconds,
                  duration_seconds, timestamp_seconds)

    def post_interval(self, component: str, energy_joules: float,
                      start_seconds: float, end_seconds: float) -> None:
        """Record energy consumed uniformly over ``[start, end)``.

        The macro-tick fast path posts once per component per leap
        segment; the power trace must nevertheless read as if the energy
        had been posted packet-by-packet, so the amount is spread over
        the trace buckets in proportion to how much of the interval each
        bucket covers.  Bucket edges are half-open on the right: an
        interval ending exactly on an edge deposits nothing into the
        bucket that starts there.  Energy past the covered window
        accumulates into the final bucket (the same clamp point posts
        use), and a zero-length interval degenerates to a point post.
        """
        duration = end_seconds - start_seconds
        # A NaN, infinite or reversed interval has a duration that fails.
        _check_post(energy_joules, duration, start_seconds)
        self._totals[component] = (self._totals.get(component, 0.0)
                                   + energy_joules)
        self._grand_total += energy_joules
        self._posted_count += 1
        width = self.trace_bucket_seconds
        last = self.trace_buckets - 1
        # An interval too short to spread over (a subnormal duration
        # overflows the density) is a point post too.
        density = energy_joules / duration if duration > 0.0 else math.inf
        if not math.isfinite(density):
            bucket = min(int(start_seconds / width), last)
            self._trace[max(bucket, 0)] += energy_joules
            return
        trace = self._trace
        first = max(min(int(start_seconds / width), last), 0)
        cursor = start_seconds
        bucket = first
        while bucket < last:
            edge = (bucket + 1) * width
            if end_seconds <= edge:
                break
            trace[bucket] += density * (edge - cursor)
            cursor = edge
            bucket += 1
        # Remainder: everything from the cursor to the interval end.  An
        # end landing exactly on this bucket's right edge stays here —
        # the half-open convention — and anything beyond the trace
        # window has already been clamped into the final bucket.
        trace[bucket] += density * (end_seconds - cursor)

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

    def power_trace_watts(self) -> np.ndarray:
        """Average power per trace bucket (watts; length ``trace_buckets``).

        The final bucket also absorbs everything posted past the covered
        window, so its value reads as a lower bound on time and an upper
        bound on power once a run outlives the trace.
        """
        return np.asarray(self._trace) / self.trace_bucket_seconds

    def trace_energy_joules(self) -> np.ndarray:
        """Raw per-bucket energy of the power trace (joules)."""
        return np.array(self._trace)

    # -- merging / lifecycle -----------------------------------------------

    def merge(self, other: "EnergyLedger") -> "EnergyLedger":
        """Return a new ledger combining both ledgers exactly.

        Per-component and grand totals add exactly (ordinary float sums
        in self-then-other order); component order is self's components
        followed by other's unseen ones; trace buckets add elementwise.
        Merging requires identical trace configurations — cohort shards built
        from the same spec always satisfy this.
        """
        if (self.trace_bucket_seconds != other.trace_bucket_seconds
                or self.trace_buckets != other.trace_buckets):
            raise EnergyError(
                "cannot merge ledgers with different trace configurations")
        merged = EnergyLedger(
            trace_bucket_seconds=self.trace_bucket_seconds,
            trace_buckets=self.trace_buckets,
        )
        merged._totals = dict(self._totals)
        for component, energy in other._totals.items():
            merged._totals[component] = (merged._totals.get(component, 0.0)
                                         + energy)
        merged._grand_total = self._grand_total + other._grand_total
        merged._posted_count = self._posted_count + other._posted_count
        merged._trace = [mine + theirs for mine, theirs
                         in zip(self._trace, other._trace)]
        return merged

    def clear(self) -> None:
        """Drop all accumulated state (keeps the trace configuration)."""
        self._totals.clear()
        self._grand_total = 0.0
        self._posted_count = 0
        self._trace = [0.0] * self.trace_buckets
