"""E16 — link margin vs delivered traffic and retransmission energy.

The paper's link-budget argument (Section III-B/IV) is static: a channel
either closes or it does not.  The reliability layer makes the question
quantitative — *how much* margin buys *how much* delivery — by sweeping
the operating SNR margin of a small Wi-R body, mapping each margin to a
per-packet erasure probability through the :class:`~repro.comm.budget`
waterfall, and running the lossy DES under stop-and-wait ARQ.  Each
operating point reports the sampled delivered fraction, attempt count
and retransmission energy next to the truncated-geometric closed forms
(:class:`~repro.netsim.reliability.ARQPolicy`), so the experiment doubles
as the standing cross-validation of the cohort fast path's reliability
correction.  The sweep runs under any MAC policy: retry storms interact
with slot schedules and polling rings, which is exactly what the default
sweep grid ablates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..comm.budget import LinkBudget
from ..comm.eqs_hbc import wir_commercial
from ..errors import ConfigurationError
from ..netsim import fidelity
from ..netsim.config import NodeConfig
from ..netsim.reliability import ARQPolicy, LinkReliability
from ..netsim.simulator import BodyNetworkSimulator, SimulationResult
from ..netsim.traffic import PeriodicSource
from ..runner.registry import ExperimentSpec, register
from .. import units

#: Detection threshold the margin is measured against.
REQUIRED_SNR_DB = 10.0

#: Default margins swept (dB above the required SNR).  0 dB is a link a
#: designer would call "just closes"; at 4096-bit packets it still
#: erases ~96 % of frames — the gap between "closes" and "delivers" is
#: the point of the experiment.
DEFAULT_MARGINS_DB = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0)


@dataclass(frozen=True)
class ReliabilityPoint:
    """One operating point: sampled DES vs closed-form reliability."""

    margin_db: float
    packet_error_rate: float
    mac_policy: str
    predicted_delivery: float
    predicted_attempts: float
    simulated: SimulationResult

    @property
    def delivered_fraction(self) -> float:
        return self.simulated.delivered_fraction

    @property
    def attempts_per_delivered(self) -> float:
        return self.simulated.attempts_per_delivered

    @property
    def attempts_per_offered(self) -> float:
        """Sampled attempts per *offered* packet — the quantity the
        truncated-geometric closed form predicts.  Undershoots the
        prediction once retries saturate the medium (offered packets
        stuck in the backlog were never attempted), which is itself a
        finding of the sweep."""
        sim = self.simulated
        if sim.offered_packets == 0:
            return 1.0
        return (sim.delivered_packets + sim.erased_attempts) \
            / sim.offered_packets

    @property
    def gaps(self) -> fidelity.Gaps:
        """Closed-form vs DES delivered fraction."""
        return fidelity.compare(
            fidelity.Readout(delivered_fraction=self.predicted_delivery),
            fidelity.Readout(delivered_fraction=self.delivered_fraction))

    def row(self) -> dict[str, object]:
        sim = self.simulated
        return {
            "margin_db": self.margin_db,
            "per": round(self.packet_error_rate, 4),
            "mac": self.mac_policy,
            "delivered_fraction": round(sim.delivered_fraction, 4),
            "predicted_delivery": round(self.predicted_delivery, 4),
            "attempts_per_offered": round(self.attempts_per_offered, 3),
            "predicted_attempts": round(self.predicted_attempts, 3),
            "lost": sim.lost_packets,
            "retx": sim.retransmissions,
            "retx_energy_uj": round(
                sim.retransmission_energy_joules * 1e6, 3),
            "mean_latency_ms": round(sim.mean_latency_seconds * 1e3, 3),
        }


@dataclass(frozen=True)
class ReliabilityResult:
    """E16 outcome: the margin sweep under one MAC policy."""

    mac_policy: str
    retry_limit: int | None
    bits_per_packet: float
    points: tuple[ReliabilityPoint, ...]

    def rows(self) -> list[dict[str, object]]:
        return [point.row() for point in self.points]

    def worst_gaps(self) -> fidelity.Gaps:
        """Worst closed-form-vs-DES gaps across the sweep."""
        return fidelity.worst(point.gaps for point in self.points)

    def delivered_fractions(self) -> list[float]:
        """Delivered fraction per swept margin, in sweep order."""
        return [point.delivered_fraction for point in self.points]

    def margin_for_delivery(self, target: float = 0.999) -> float:
        """Smallest swept margin whose link delivers *target* traffic."""
        for point in self.points:
            if point.delivered_fraction >= target:
                return point.margin_db
        return math.inf


def run(margins_db: tuple[float, ...] = DEFAULT_MARGINS_DB,
        mac_policy: str = "fifo",
        retry_limit: int | None = 3,
        node_count: int = 4,
        per_node_rate_bps: float = units.kilobit_per_second(16.0),
        bits_per_packet: float = 4096.0,
        simulated_seconds: float = 20.0,
        seed: int = 0) -> ReliabilityResult:
    """Sweep the SNR margin of a lossy Wi-R body under ARQ.

    Every margin maps to one packet-erasure probability (shared by all
    leaves); the DES then samples delivery, retransmissions and energy
    at that operating point.  Keep ``per_node_rate_bps`` modest — retry
    storms multiply airtime, and the low-margin points are *meant* to
    approach saturation, not start there.
    """
    if node_count < 1:
        raise ConfigurationError("node count must be >= 1")
    if simulated_seconds <= 0:
        raise ConfigurationError("simulated duration must be positive")
    if not margins_db:
        raise ConfigurationError("sweep needs at least one margin")
    arq = ARQPolicy(retry_limit=retry_limit)
    technology = wir_commercial()
    points: list[ReliabilityPoint] = []
    for margin in margins_db:
        budget = LinkBudget.from_snr_db(REQUIRED_SNR_DB + margin,
                                        required_snr_db=REQUIRED_SNR_DB)
        error_rate = budget.packet_error_rate(bits_per_packet)
        reliability = LinkReliability(seed=seed, arq=arq)
        simulator = BodyNetworkSimulator(technology, rng=seed,
                                         arbitration=mac_policy,
                                         reliability=reliability)
        for index in range(node_count):
            simulator.attach(NodeConfig(
                f"leaf{index}",
                PeriodicSource.from_rate(per_node_rate_bps,
                                         bits_per_packet=bits_per_packet),
                sensing_power_watts=units.microwatt(30.0),
            ))
            reliability.set_error_rate(f"leaf{index}", error_rate)
        points.append(ReliabilityPoint(
            margin_db=margin,
            packet_error_rate=error_rate,
            mac_policy=mac_policy,
            predicted_delivery=arq.delivery_probability(error_rate),
            predicted_attempts=arq.expected_attempts(error_rate),
            simulated=simulator.run(simulated_seconds),
        ))
    return ReliabilityResult(
        mac_policy=mac_policy,
        retry_limit=retry_limit,
        bits_per_packet=bits_per_packet,
        points=tuple(points),
    )


def _summary(result: ReliabilityResult) -> list[str]:
    lowest = result.points[0]
    return [
        f"mac policy: {result.mac_policy}, "
        f"retry limit: {result.retry_limit}",
        f"margin for >=99.9% delivery: "
        f"{result.margin_for_delivery(0.999):g} dB "
        f"(at {lowest.margin_db:g} dB the link still erases "
        f"{lowest.packet_error_rate * 100.0:.0f}% of frames)",
        "worst closed-form delivery gap: "
        f"{result.worst_gaps()['delivered_fraction_abs_error']:.3f}",
    ]


register(ExperimentSpec(
    id="reliability",
    eid="E16",
    title="Link margin vs delivered fraction and retransmission energy",
    module="reliability",
    run=run,
    rows=lambda result: result.rows(),
    summarize=_summary,
    sweep_defaults={"seed": (0, 1),
                    "mac_policy": ("fifo", "tdma", "polling")},
))
