"""Streaming cohort aggregation: flat memory at any population.

A shard worker never returns its members' ``SimulationResult`` objects —
it folds each member into a :class:`CohortAccumulator` and ships only an
encoded frame of the accumulator back (see :mod:`repro.cohort.codec`).
Accumulators merge associatively *in member order*: every per-member
metric is held by a :class:`~repro.netsim.stats.LatencyAccumulator`,
which is an exact concatenation while the population fits its exact
window (so shard-merged summaries are bit-identical to a serial run) and
a bounded mergeable quantile sketch beyond it (so memory stays flat and
p50/p99 keep their documented rank error however large the cohort
grows).  ``keep_members=True`` additionally retains the raw
:class:`MemberMetrics` rows for debugging — opt-in, mirroring
``EnergyLedger.keep_entries``.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ScenarioError
from ..netsim.simulator import SimulationResult
from ..netsim.stats import DEFAULT_EXACT_CAPACITY, LatencyAccumulator
from ..runner.artifacts import sanitize
from ..scenarios.spec import ScenarioSpec

#: Per-member metrics summarised across the cohort, in report order.
MEMBER_METRIC_FIELDS = (
    "mean_latency_seconds",
    "p99_latency_seconds",
    "delivered_fraction",
    "bus_utilization",
    "leaf_power_watts",
    "hub_power_watts",
    "leaf_energy_joules",
    "alive_fraction",
)

#: Percentiles reported for each member metric.
SUMMARY_PERCENTILES = (50.0, 90.0, 99.0)

@dataclass(frozen=True)
class MemberMetrics:
    """One member's outcome, reduced to the scalars the cohort keeps."""

    index: int
    scenario: str
    source: str  # "des" or "analytic"
    arbitration: str
    node_count: int
    duration_seconds: float
    delivered_packets: int
    delivered_fraction: float
    mean_latency_seconds: float
    p99_latency_seconds: float
    bus_utilization: float
    leaf_power_watts: float
    hub_power_watts: float
    leaf_energy_joules: float
    hub_energy_joules: float
    #: Fraction of the member's nodes still alive at the horizon.
    alive_fraction: float = 1.0
    #: Earliest brownout within the run (``inf`` when none occurred).
    first_death_seconds: float = math.inf

    @classmethod
    def from_simulation(cls, index: int, spec: ScenarioSpec,
                        result: SimulationResult) -> "MemberMetrics":
        """Reduce one discrete-event run to its cohort scalars."""
        leaf_power = result.total_leaf_power_watts
        return cls(
            index=index,
            scenario=spec.name,
            source="des",
            arbitration=spec.arbitration,
            node_count=spec.leaf_count,
            duration_seconds=result.duration_seconds,
            delivered_packets=result.delivered_packets,
            delivered_fraction=result.delivered_fraction,
            mean_latency_seconds=result.mean_latency_seconds,
            p99_latency_seconds=result.p99_latency_seconds,
            bus_utilization=result.bus_utilization,
            leaf_power_watts=leaf_power,
            hub_power_watts=result.hub_average_power_watts,
            leaf_energy_joules=leaf_power * result.duration_seconds,
            hub_energy_joules=result.hub_energy_joules,
            alive_fraction=result.alive_fraction,
            first_death_seconds=result.first_death_seconds,
        )


@dataclass(frozen=True)
class MemberColumns:
    """A batch of members as columns, one per :class:`MemberMetrics` field.

    What the analytic kernel returns and
    :meth:`CohortAccumulator.add_columns` consumes; columns are lists or
    numpy arrays, all as long as the batch.
    """

    index: Sequence[int]
    scenario: Sequence[str]
    source: Sequence[str]
    arbitration: Sequence[str]
    node_count: Sequence[int]
    duration_seconds: Sequence[float]
    delivered_packets: Sequence[int]
    delivered_fraction: Sequence[float]
    mean_latency_seconds: Sequence[float]
    p99_latency_seconds: Sequence[float]
    bus_utilization: Sequence[float]
    leaf_power_watts: Sequence[float]
    hub_power_watts: Sequence[float]
    leaf_energy_joules: Sequence[float]
    hub_energy_joules: Sequence[float]
    alive_fraction: Sequence[float]
    first_death_seconds: Sequence[float]

    def __len__(self) -> int:
        return len(self.index)

    def column(self, name: str) -> list:
        """One column as a list of Python scalars."""
        values = getattr(self, name)
        return values.tolist() if isinstance(values, np.ndarray) \
            else list(values)

    def row(self, position: int) -> MemberMetrics:
        """The member at *position* as a row."""
        return MemberMetrics(**{
            name: _scalar(getattr(self, name)[position])
            for name in _MEMBER_FIELDS})

    def rows(self) -> list[MemberMetrics]:
        """Every member as a row, in batch order."""
        columns = [self.column(name) for name in _MEMBER_FIELDS]
        return [MemberMetrics(*values) for values in zip(*columns)]


#: Field order shared by :class:`MemberMetrics` and :class:`MemberColumns`.
_MEMBER_FIELDS = tuple(field.name for field in dataclasses.fields(MemberMetrics))


def _scalar(value):
    """A numpy scalar as the equal Python scalar (others unchanged)."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class ValidationRecord:
    """Analytic-vs-DES deviation of one sampled member."""

    index: int
    scenario: str
    arbitration: str
    analytic_leaf_power_watts: float
    des_leaf_power_watts: float
    analytic_delivered_fraction: float
    des_delivered_fraction: float
    analytic_mean_latency_seconds: float
    des_mean_latency_seconds: float
    analytic_alive_fraction: float = 1.0
    des_alive_fraction: float = 1.0

    @property
    def alive_fraction_abs_error(self) -> float:
        return abs(self.analytic_alive_fraction - self.des_alive_fraction)

    @property
    def leaf_power_rel_error(self) -> float:
        if self.des_leaf_power_watts == 0.0:
            return 0.0
        return abs(self.analytic_leaf_power_watts
                   - self.des_leaf_power_watts) / self.des_leaf_power_watts

    @property
    def delivered_fraction_abs_error(self) -> float:
        return abs(self.analytic_delivered_fraction
                   - self.des_delivered_fraction)

    @property
    def mean_latency_ratio(self) -> float:
        """Analytic/DES mean latency (1.0 when neither saw a packet)."""
        if self.des_mean_latency_seconds == 0.0:
            return 1.0 if self.analytic_mean_latency_seconds == 0.0 else float("inf")
        return (self.analytic_mean_latency_seconds
                / self.des_mean_latency_seconds)

    @property
    def mean_latency_factor(self) -> float:
        """Deviation factor (>= 1) in either direction: an analytic
        estimate 10x *below* the DES is as wrong as one 10x above."""
        ratio = self.mean_latency_ratio
        if ratio == 0.0:
            return float("inf")
        return max(ratio, 1.0 / ratio)

    def row(self) -> dict[str, object]:
        return {
            "member": self.index,
            "mac": self.arbitration,
            "leaf_power_err": round(self.leaf_power_rel_error, 4),
            "delivered_err": round(self.delivered_fraction_abs_error, 4),
            "latency_ratio": round(self.mean_latency_ratio, 3),
        }


class CohortAccumulator:
    """Mergeable, bounded-memory summary of a (partial) cohort.

    Counters are integers (exactly associative); every float metric lives
    in a :class:`LatencyAccumulator` so merging shard accumulators in
    member order reproduces the serial statistics bit-for-bit while the
    population fits the exact window, and degrades to the mergeable
    quantile sketch's documented rank error beyond it.

    Parameters
    ----------
    exact_capacity:
        Exact-window size of every metric accumulator.
    keep_members:
        Retain the raw :class:`MemberMetrics` rows in :attr:`members`
        (and ship them inside encoded shard frames) for debugging.
        Off by default — the whole point of streaming aggregation is
        that nothing per-member survives the merge.
    """

    def __init__(self, exact_capacity: int = DEFAULT_EXACT_CAPACITY,
                 keep_members: bool = False) -> None:
        self.population = 0
        self.node_count = 0
        self.delivered_packets = 0
        #: Members that saw at least one node brown out within the run.
        self.dead_members = 0
        #: Earliest brownout across the cohort (``inf`` when none).
        self.first_death_seconds = math.inf
        self.by_policy: dict[str, int] = {}
        self.by_source: dict[str, int] = {}
        self.keep_members = keep_members
        #: Raw member rows, retained only when ``keep_members`` is set.
        self.members: list[MemberMetrics] = []
        self.metrics: dict[str, LatencyAccumulator] = {
            name: LatencyAccumulator(exact_capacity=exact_capacity)
            for name in MEMBER_METRIC_FIELDS
        }
        #: Packet-level latency distribution, merged from the per-run
        #: accumulators of members that executed on the DES (the analytic
        #: path has no packets to contribute).
        self.packet_latency = LatencyAccumulator()

    # -- recording ---------------------------------------------------------

    def add(self, metrics: MemberMetrics) -> None:
        """Fold one member into the aggregate."""
        if self.keep_members:
            self.members.append(metrics)
        self.population += 1
        self.node_count += metrics.node_count
        self.delivered_packets += metrics.delivered_packets
        if metrics.first_death_seconds < math.inf:
            self.dead_members += 1
            self.first_death_seconds = min(self.first_death_seconds,
                                           metrics.first_death_seconds)
        self.by_policy[metrics.arbitration] = (
            self.by_policy.get(metrics.arbitration, 0) + 1)
        self.by_source[metrics.source] = (
            self.by_source.get(metrics.source, 0) + 1)
        for name in MEMBER_METRIC_FIELDS:
            self.metrics[name].add(getattr(metrics, name))

    def add_columns(self, columns: MemberColumns) -> None:
        """Fold a batch of members in, in batch order.

        Leaves the accumulator — counters, retained members and every
        metric's exact window or sketch — exactly as the equivalent run
        of :meth:`add` calls would.
        """
        if not len(columns):
            return
        if self.keep_members:
            self.members.extend(columns.rows())
        self.population += len(columns)
        self.node_count += sum(columns.column("node_count"))
        self.delivered_packets += sum(columns.column("delivered_packets"))
        deaths = [seconds for seconds in columns.column("first_death_seconds")
                  if seconds < math.inf]
        if deaths:
            self.dead_members += len(deaths)
            self.first_death_seconds = min(self.first_death_seconds,
                                           min(deaths))
        for counts, name in ((self.by_policy, "arbitration"),
                             (self.by_source, "source")):
            for key, value in Counter(columns.column(name)).items():
                counts[key] = counts.get(key, 0) + value
        for name in MEMBER_METRIC_FIELDS:
            self.metrics[name].add_many(getattr(columns, name))

    def merge(self, other: "CohortAccumulator") -> None:
        """Fold another (later-member-range) accumulator into this one."""
        if self.keep_members:
            # Only what the other side actually retained can travel; a
            # keep_members=False shard contributes aggregates only.
            self.members.extend(other.members)
        self.population += other.population
        self.node_count += other.node_count
        self.delivered_packets += other.delivered_packets
        self.dead_members += other.dead_members
        self.first_death_seconds = min(self.first_death_seconds,
                                       other.first_death_seconds)
        for key, value in other.by_policy.items():
            self.by_policy[key] = self.by_policy.get(key, 0) + value
        for key, value in other.by_source.items():
            self.by_source[key] = self.by_source.get(key, 0) + value
        for name in MEMBER_METRIC_FIELDS:
            self.metrics[name].merge(other.metrics[name])
        self.packet_latency.merge(other.packet_latency)

    def merge_encoded(self, frame: bytes) -> "object":
        """Decode one binary shard frame and fold it in.

        The streaming-merge entry point: the cohort engine hands each
        worker's encoded bytes straight here, so no pickled accumulator
        ever crosses the process boundary.  Returns the decoded
        :class:`~repro.cohort.codec.ShardFrame` so callers can collect
        the shard's validations and timing without a second decode.
        """
        from .codec import decode_shard  # local: codec imports this module
        decoded = decode_shard(frame)
        self.merge(decoded.accumulator)
        return decoded

    # -- queries -----------------------------------------------------------

    def summary_rows(self) -> list[dict[str, object]]:
        """One report row per member metric: mean and cross-member percentiles.

        Values pass through the artifact layer's ``sanitize`` — the same
        JSON-tolerant spelling ``SimulationResult.to_dict`` relies on —
        so a degenerate cohort (zero delivered packets, every member
        dead) yields ``"inf"``/``"nan"`` strings instead of leaking bare
        non-finite floats into JSON artifacts.
        """
        if self.population == 0:
            raise ScenarioError("cohort accumulator is empty")
        rows: list[dict[str, object]] = []
        for name in MEMBER_METRIC_FIELDS:
            accumulator = self.metrics[name]
            row: dict[str, object] = {
                "metric": name,
                "mean": sanitize(accumulator.mean),
                "min": sanitize(accumulator.min_seconds),
            }
            for percentile in SUMMARY_PERCENTILES:
                row[f"p{percentile:.0f}"] = sanitize(
                    accumulator.percentile(percentile))
            row["max"] = sanitize(accumulator.max_seconds)
            rows.append(row)
        return rows

    def overview(self) -> dict[str, object]:
        """Headline aggregate numbers for a one-line report.

        Float values are sanitized like :meth:`summary_rows`: a cohort
        with zero delivered packets must still produce a valid JSON
        artifact.
        """
        if self.population == 0:
            raise ScenarioError("cohort accumulator is empty")
        overview: dict[str, object] = {
            "population": self.population,
            "nodes": self.node_count,
            "delivered_packets": self.delivered_packets,
            "policies": ",".join(f"{key}:{value}" for key, value
                                 in sorted(self.by_policy.items())),
            "sources": ",".join(f"{key}:{value}" for key, value
                                in sorted(self.by_source.items())),
            "mean_leaf_power_uw": sanitize(
                self.metrics["leaf_power_watts"].mean * 1e6),
            "mean_member_p99_ms": sanitize(
                self.metrics["p99_latency_seconds"].mean * 1e3),
            "dead_members": self.dead_members,
        }
        if math.isfinite(self.first_death_seconds):
            # Only present when a brownout occurred: keeps the overview
            # compact (the all-survived case needs no column).
            overview["first_death_s"] = self.first_death_seconds
        if self.packet_latency.count:
            overview["packet_p99_ms"] = sanitize(
                self.packet_latency.percentile(99.0) * 1e3)
        return overview
