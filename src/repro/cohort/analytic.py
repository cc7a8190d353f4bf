"""Vectorised steady-state approximation of member scenarios.

Running 10 000 members through the discrete-event simulator takes hours;
the cohort engine therefore offers this analytic fast path: the same
:class:`~repro.scenarios.spec.ScenarioSpec` a DES run would compile is
reduced to flat numpy arrays (one row per concrete leaf node across the
whole batch) and evaluated with closed-form steady-state queueing and the
exact ledger arithmetic of the simulator.

The fidelity contract, validated continuously by the engine's sampled
cross-checks and by the gallery tolerance tests:

* **Energy and power are tight** — the ledger math (sensing/ISA power,
  energy-per-bit transmit/receive cost, sleep power in the idle residue)
  is identical to the simulator's accounting; the only divergence is
  packet quantisation at the horizon (documented at ≤ 10 %, typically
  ≪ 1 %).
* **Delivered fraction is tight in the stable regime** (``ρ < 0.9``):
  the approximation is ``min(1, 1/ρ)`` with the MAC's capacity overhead
  (TDMA guards, polling overhead) folded into ``ρ``.
* **Latency is an estimate** — an M/D/1-flavoured queueing delay plus a
  policy-specific mean access delay (half a TDMA superframe, half a
  polling ring).  Inside the validity envelope it tracks the DES within
  a small constant factor; outside (``ρ ≥ 0.9``) it only signals
  saturation, it does not predict the backlog trajectory.
* **Lifetime is first-order** — battery rows project time-to-death as
  usable energy over net drain (average load plus self-discharge minus
  harvest, the Fig. 3 arithmetic per node), then clip that node's
  traffic and consumption at its death.  Constant-load members track
  the DES brownout within the packet-quantisation error; low-battery
  duty-cycle adaptation is deliberately unmodelled (a throttled node
  outlives the estimate).
* **Lossy links are closed-form** — a scenario with a
  :class:`~repro.scenarios.spec.ReliabilitySpec` multiplies each node's
  offered traffic by the truncated-geometric expected attempt count
  ``E[attempts] = (1 - PER^(L+1)) / (1 - PER)`` (capped by the ARQ
  retry limit ``L``) for airtime and transmit energy, and by the ARQ
  delivery probability ``1 - PER^(L+1)`` for goodput; ack frames charge
  the medium, the leaf receiver and the hub transmitter per delivered
  packet.  Posture schedules enter through the spec's time-averaged
  reliability profile.  Lossless members multiply by exactly 1.0 / add
  exactly 0.0 everywhere, so their results are bit-identical to the
  pre-reliability fast path.
* **Source coding is closed-form** — a node with a
  :class:`~repro.coding.CodingSpec` keeps its generation cadence but
  its on-air payload, per-packet service time, slot sizing and packet
  erasure rate all use the coded packet size, and the encoder's power
  draw joins the node's static load — the same compile-time reduction
  the DES applies, so the two sides agree by construction.  Uncoded
  members take the plain-attribute paths with no extra float
  operation, keeping their results bit-identical to the pre-coding
  fast path.

Evaluation is two steps: a reduction to an :class:`AnalyticRows` table
(one row per concrete leaf, contiguous per member, plus per-member
columns) and :func:`evaluate_rows`, the one numpy kernel that turns any
such table into :class:`~repro.cohort.aggregate.MemberColumns`.  Two
reductions feed it: :func:`scenario_rows` from arbitrary scenario specs
(what :func:`evaluate_members` uses) and :func:`draw_rows` straight from
a cohort's columnar draws, without building a scenario per member.

Per-member reductions use ``np.bincount``/``np.maximum.at`` over rows
that are contiguous per member, and the within-member slot cursor is
accumulated row by row, so a member's arithmetic involves only its own
rows in a fixed order — the result for member *i* is bit-identical
whether the batch holds the whole cohort, one shard or one block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..comm.mac import PollingMAC
from ..errors import ScenarioError
from ..netsim.arbitration import (
    DEFAULT_POLL_OVERHEAD_BITS as POLL_OVERHEAD_BITS,
    DEFAULT_POLL_TURNAROUND_SECONDS as POLL_TURNAROUND_SECONDS,
    DEFAULT_TDMA_GUARD_SECONDS as TDMA_GUARD_SECONDS,
    DEFAULT_TDMA_SUPERFRAME_SECONDS as TDMA_SUPERFRAME_SECONDS,
)
# Utilisation above which the latency estimate is saturation signalling
# only (the documented validity envelope of the fast path); one constant
# shared with the macro-tick engine's leap refusal.
from ..netsim.macrotick import VALIDITY_UTILIZATION  # noqa: F401
from ..scenarios.spec import (
    ScenarioSpec,
    battery_for,
    environment_for,
    harvester_for,
    technology_for,
)
from .aggregate import MemberColumns, MemberMetrics

if TYPE_CHECKING:
    from .spec import MemberDraws

#: Harvesting environment of a sampled cohort member (the scenario
#: default).
DEFAULT_ENVIRONMENT = "indoor_office"

@dataclass(frozen=True)
class TechProfile:
    """The four link numbers the steady-state model needs."""

    rate_bps: float
    tx_energy_per_bit: float
    rx_energy_per_bit: float
    sleep_power_watts: float


@functools.lru_cache(maxsize=None)
def tech_profile(key: str) -> TechProfile:
    technology = technology_for(key)
    return TechProfile(
        rate_bps=technology.data_rate_bps(),
        tx_energy_per_bit=technology.tx_energy_per_bit(),
        rx_energy_per_bit=technology.rx_energy_per_bit(),
        sleep_power_watts=technology.sleep_power(),
    )


@functools.lru_cache(maxsize=None)
def _battery_profile(key: str, scale: float) -> tuple[float, float]:
    """(usable energy, self-discharge power) of a scaled battery."""
    spec = battery_for(key, scale)
    return spec.usable_energy_joules, spec.leakage_power_watts


@functools.lru_cache(maxsize=None)
def _harvest_power(key: str, environment: str) -> float:
    return harvester_for(key).power_watts(environment_for(environment))


@functools.lru_cache(maxsize=None)
def _poll_cost(hub_technology: str) -> float:
    """Medium time of one poll exchange on the hub link."""
    mac = PollingMAC(link_rate_bps=tech_profile(hub_technology).rate_bps,
                     poll_overhead_bits=POLL_OVERHEAD_BITS,
                     turnaround_seconds=POLL_TURNAROUND_SECONDS)
    return mac.cycle_time_seconds(1, 0.0)


def active_fractions(spec: ScenarioSpec) -> dict[str, float]:
    """Fraction of the run each concrete node generates traffic.

    Integrates :meth:`ScenarioSpec.node_awake_intervals` — the single
    sleep/wake replay implementation (same prefix matching and same tie
    order the simulator applies), shared with the reliability profile's
    awake-time weighting so the two can never drift apart.
    """
    return {
        concrete: sum(end - start for start, end
                      in spec.node_awake_intervals(concrete))
        for node in spec.nodes
        for concrete in node.expanded_names()
    }


@dataclass(frozen=True)
class AnalyticRows:
    """Input of :func:`evaluate_rows`: leaf rows plus per-member columns.

    Leaf rows are contiguous per member (``member_of`` is non-decreasing
    and every member has at least one row).  Everything derived from
    more than one row — utilisation, slot offsets, burst sizes — is left
    to the kernel, so every reduction shares that arithmetic.
    """

    # -- per member
    index: Sequence[int]
    scenario: Sequence[str]
    arbitration: Sequence[str]
    duration: np.ndarray
    node_count: np.ndarray
    policy_tdma: np.ndarray
    policy_polling: np.ndarray
    poll_cost: np.ndarray           # medium time per poll (polling only)
    hub_rate: np.ndarray
    hub_sleep: np.ndarray
    hub_tx_epb: np.ndarray
    overhead: np.ndarray            # MAC overhead per packet
    ack_time: np.ndarray            # medium time per ack (ARQ only)
    ack_bits: np.ndarray            # ack length (ARQ only)
    # -- per leaf row
    member_of: np.ndarray
    rate: np.ndarray                # offered source rate
    awake: np.ndarray               # fraction of the run generating
    source_bits: np.ndarray         # source bits per packet
    air_bits: np.ndarray            # on-air bits per packet (coded)
    air_rate: np.ndarray            # on-air average rate (slot sizing)
    periodic: np.ndarray
    link_rate: np.ndarray
    tx_epb: np.ndarray
    rx_epb: np.ndarray
    sleep_power: np.ndarray
    static_power: np.ndarray        # sensing + ISA (+ coder), always on
    initial_energy: np.ndarray      # usable battery joules (inf = mains)
    leak_w: np.ndarray              # battery self-discharge power
    harvest_w: np.ndarray           # harvested power in the environment
    delivery_prob: np.ndarray       # ARQ delivery probability (1 = lossless)
    attempts: np.ndarray            # expected attempts/packet (1 = lossless)


def scenario_rows(specs: Sequence[ScenarioSpec], indices: Sequence[int],
                  interference: Sequence[tuple[float, float] | None]
                  | None = None) -> AnalyticRows:
    """Reduce scenario specs to the kernel's row table."""
    rows: dict[str, list] = {name: [] for name in (
        "member_of", "rate", "awake", "source_bits", "air_bits", "air_rate",
        "periodic", "link_rate", "tx_epb", "rx_epb", "sleep_power",
        "static_power", "initial_energy", "leak_w", "harvest_w",
        "delivery_prob", "attempts")}
    count = len(specs)
    ack_time = np.zeros(count)
    ack_bits = np.zeros(count)
    for position, spec in enumerate(specs):
        hub = tech_profile(spec.hub_technology)
        reliability_profile = None
        if spec.reliability is not None:
            ambient = (interference[position]
                       if interference is not None else None)
            if ambient is None:
                reliability_profile = spec.reliability_profile()
            else:
                rf_dbm, eqs_volts = ambient
                reliability_profile = spec.reliability_profile_adjusted(
                    rf_interference_dbm=rf_dbm,
                    eqs_interference_volts=eqs_volts)
            arq = spec.reliability.arq_policy()
            if arq is not None:
                # Every attempt occupies the medium for the hub's ack
                # frame plus the turnaround (Medium.service_time_seconds).
                ack_time[position] = (arq.ack_bits / hub.rate_bps
                                      + arq.ack_turnaround_seconds)
                ack_bits[position] = arq.ack_bits
        fractions = active_fractions(spec)
        for node in spec.nodes:
            profile = tech_profile(node.technology)
            # A coded node keeps its generation cadence but puts shorter
            # packets on the air: on-air payload, per-packet service,
            # slot sizing (registration-time rate) and the coded PER the
            # reliability profile already folded in all use the coded
            # numbers.  Every accessor returns the plain attribute when
            # ``coding is None``, so uncoded members stay bit-identical.
            power = node.sensing_power_watts + node.isa_power_watts
            coding_power = node.coding_power_watts()
            if coding_power > 0.0:
                # Added only when a coder runs: uncoded members see the
                # historical sum with no extra float operation.
                power += coding_power
            if node.battery is not None:
                usable, leakage = _battery_profile(node.battery,
                                                   node.battery_scale)
                energy = usable * node.initial_charge_fraction
            else:
                energy, leakage = np.inf, 0.0
            harvest = (_harvest_power(node.harvester, spec.environment)
                       if node.harvester is not None else 0.0)
            for concrete in node.expanded_names():
                if reliability_profile is None:
                    delivered_share, mean_attempts = 1.0, 1.0
                else:
                    delivered_share, mean_attempts = \
                        reliability_profile[concrete]
                for name, value in (
                        ("member_of", position),
                        ("rate", node.resolved_rate_bps()),
                        ("awake", fractions[concrete]),
                        ("source_bits", node.bits_per_packet),
                        ("air_bits", node.coded_bits_per_packet()),
                        ("air_rate", node.air_rate_bps()),
                        ("periodic", node.traffic == "periodic"),
                        ("link_rate", profile.rate_bps),
                        ("tx_epb", profile.tx_energy_per_bit),
                        ("rx_epb", profile.rx_energy_per_bit),
                        ("sleep_power", profile.sleep_power_watts),
                        ("static_power", power),
                        ("initial_energy", energy),
                        ("leak_w", leakage),
                        ("harvest_w", harvest),
                        ("delivery_prob", delivered_share),
                        ("attempts", mean_attempts)):
                    rows[name].append(value)
    hubs = [tech_profile(spec.hub_technology) for spec in specs]
    policy_polling = np.array([spec.arbitration == "polling"
                               for spec in specs], dtype=bool)
    return AnalyticRows(
        index=list(indices),
        scenario=[spec.name for spec in specs],
        arbitration=[spec.arbitration for spec in specs],
        duration=np.array([spec.duration_seconds for spec in specs],
                          dtype=float),
        node_count=np.array([spec.leaf_count for spec in specs],
                            dtype=float),
        policy_tdma=np.array([spec.arbitration == "tdma" for spec in specs],
                             dtype=bool),
        policy_polling=policy_polling,
        poll_cost=np.array([_poll_cost(spec.hub_technology) if polling
                            else 0.0 for spec, polling
                            in zip(specs, policy_polling)]),
        hub_rate=np.array([hub.rate_bps for hub in hubs]),
        hub_sleep=np.array([hub.sleep_power_watts for hub in hubs]),
        hub_tx_epb=np.array([hub.tx_energy_per_bit for hub in hubs]),
        overhead=np.array([spec.per_packet_overhead_seconds
                           for spec in specs], dtype=float),
        ack_time=ack_time,
        ack_bits=ack_bits,
        **{name: np.asarray(values, dtype=np.int64 if name == "member_of"
                            else bool if name == "periodic" else float)
           for name, values in rows.items()},
    )


def draw_rows(draws: "MemberDraws") -> AnalyticRows:
    """The kernel's row table straight from a cohort's columnar draws.

    Equal, column for column, to :func:`scenario_rows` of the members'
    scenarios (sampled members carry no reliability or coding spec and
    run in the default environment), without building them.
    """
    cohort = draws.cohort
    count = len(draws)
    kinds = draws.kinds
    kind = draws.kind
    rate = np.array([leaf.resolved_rate_bps() for leaf in kinds])[kind]
    static = np.array([leaf.sensing_power_watts + leaf.isa_power_watts
                       for leaf in kinds])[kind]
    periodic = np.array([leaf.traffic == "periodic" for leaf in kinds])[kind]
    profiles = [tech_profile(key) for key in draws.technologies]
    technology = draws.technology

    def per_link(attribute: str) -> np.ndarray:
        return np.array([getattr(profile, attribute)
                         for profile in profiles])[technology]

    rows = len(kind)
    battery = draws.battery[draws.member]
    initial_energy = np.full(rows, np.inf)
    leak_w = np.zeros(rows)
    for key_index, key in enumerate(draws.batteries):
        usable, leakage = _battery_profile(key, cohort.battery_scale)
        worn = battery == key_index
        initial_energy[worn] = usable  # sampled cells start full
        leak_w[worn] = leakage
    harvester = draws.harvester[draws.member]
    harvest_w = np.zeros(rows)
    for key_index, key in enumerate(draws.harvesters):
        harvest_w[harvester == key_index] = _harvest_power(
            key, DEFAULT_ENVIRONMENT)

    hub = tech_profile(cohort.hub_technology)
    policies = cohort.mac_policies.choices
    policy = draws.arbitration
    policy_polling = np.array([choice == "polling"
                               for choice in policies])[policy]
    bits = draws.bits_per_packet
    return AnalyticRows(
        index=list(range(draws.start, draws.stop)),
        scenario=draws.member_names(),
        arbitration=[policies[choice] for choice in policy.tolist()],
        duration=np.full(count, float(cohort.member_duration_seconds)),
        node_count=np.bincount(draws.member, minlength=count).astype(float),
        policy_tdma=np.array([choice == "tdma" for choice in policies])[policy],
        policy_polling=policy_polling,
        poll_cost=np.where(policy_polling,
                           _poll_cost(cohort.hub_technology), 0.0),
        hub_rate=np.full(count, hub.rate_bps),
        hub_sleep=np.full(count, hub.sleep_power_watts),
        hub_tx_epb=np.full(count, hub.tx_energy_per_bit),
        overhead=draws.overhead_seconds,
        ack_time=np.zeros(count),
        ack_bits=np.zeros(count),
        member_of=draws.member,
        rate=rate,
        awake=draws.awake,
        source_bits=bits,
        air_bits=bits,
        air_rate=rate,
        periodic=periodic,
        link_rate=per_link("rate_bps"),
        tx_epb=per_link("tx_energy_per_bit"),
        rx_epb=per_link("rx_energy_per_bit"),
        sleep_power=per_link("sleep_power_watts"),
        static_power=static,
        initial_energy=initial_energy,
        leak_w=leak_w,
        harvest_w=harvest_w,
        delivery_prob=np.ones(rows),
        attempts=np.ones(rows),
    )


def _slot_offsets(member_of: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each row's slot start: its member's earlier slot widths, summed in
    row order from 0.0 (a per-member running cursor, never a global
    cumulative sum, so an offset does not depend on the batch)."""
    rows = len(member_of)
    first = np.flatnonzero(np.r_[True, member_of[1:] != member_of[:-1]])
    step = np.arange(rows) - np.repeat(first, np.diff(np.r_[first, rows]))
    offset = np.zeros(rows)
    for depth in range(1, int(step.max(initial=0)) + 1):
        at = np.flatnonzero(step == depth)
        offset[at] = offset[at - 1] + width[at - 1]
    return offset


def _burst_sizes(member_of: np.ndarray, period: np.ndarray,
                 periodic: np.ndarray) -> np.ndarray:
    """Periodic rows: how many of the member's periodic rows share the
    exact period (they fire together); 1.0 for everything else."""
    sizes = np.ones(len(member_of))
    rows = np.flatnonzero(periodic)
    if not len(rows):
        return sizes
    order = rows[np.lexsort((period[rows], member_of[rows]))]
    boundary = np.r_[True, (member_of[order][1:] != member_of[order][:-1])
                     | (period[order][1:] != period[order][:-1])]
    group = np.cumsum(boundary) - 1
    sizes[order] = np.bincount(group)[group].astype(float)
    return sizes


def evaluate_rows(table: AnalyticRows) -> MemberColumns:
    """The analytic kernel: steady-state metrics of every member in *table*."""
    member_of, duration, node_count = (table.member_of, table.duration,
                                       table.node_count)
    policy_tdma, policy_polling = table.policy_tdma, table.policy_polling
    poll_cost, ack_bits = table.poll_cost, table.ack_bits
    hub_sleep, hub_tx_epb = table.hub_sleep, table.hub_tx_epb
    bits, link_rate = table.air_bits, table.link_rate
    tx_epb, rx_epb, sleep_power = table.tx_epb, table.rx_epb, table.sleep_power
    static_power = table.static_power
    initial_energy, leak_w, harvest_w = (table.initial_energy, table.leak_w,
                                         table.harvest_w)
    attempts, delivery_prob = table.attempts, table.delivery_prob
    count = len(duration)

    packet_rate = table.awake * table.rate / table.source_bits
    period_seconds = table.source_bits / table.rate
    is_periodic = table.periodic
    # Effective airtime per offered packet: every attempt re-serialises
    # the frame, pays the MAC overhead and — under ARQ — the ack
    # exchange.  ``x * 1.0 + 0.0`` is an exact identity, so lossless
    # rows keep the historical service value bit-for-bit.
    service = attempts * (bits / link_rate + table.overhead[member_of]
                          + table.ack_time[member_of])
    # Slot widths mirror TDMASchedule.build: payload time at the medium
    # rate plus the guard, sized from the full (registration-time)
    # offered rate.
    slot_seconds = (table.air_rate * TDMA_SUPERFRAME_SECONDS
                    / table.hub_rate[member_of] + TDMA_GUARD_SECONDS)
    slot_offset = _slot_offsets(member_of, slot_seconds)
    # A periodic source whose period is an exact multiple of the
    # superframe arrives at a constant slot phase: its access delay is
    # its slot offset, not a uniform draw over the frame.
    cycles = period_seconds / TDMA_SUPERFRAME_SECONDS
    phase_locked = is_periodic & (np.abs(cycles - np.rint(cycles)) < 1e-9)
    # Periodic sources all emit their first packet one period after
    # t=0, so equal-period nodes arrive *simultaneously*, every time: a
    # burst that must serialise.
    batch_size = _burst_sizes(member_of, period_seconds, is_periodic)

    def per_member(weights: np.ndarray) -> np.ndarray:
        return np.bincount(member_of, weights=weights, minlength=count)

    total_packet_rate = per_member(packet_rate)
    rho_service = per_member(packet_rate * service)
    # Capacity overheads of the MAC fold into the effective utilisation:
    # TDMA pays a guard slot per node and superframe, polling pays one
    # poll per *transmission attempt* (a retransmission re-enters the
    # ring) once it is mostly backlogged.  ``packet_rate * attempts`` is
    # bit-identical to ``packet_rate`` for lossless members.
    attempt_rate = per_member(packet_rate * attempts)
    rho = rho_service.copy()
    rho[policy_tdma] += (node_count[policy_tdma] * TDMA_GUARD_SECONDS
                         / TDMA_SUPERFRAME_SECONDS)
    rho[policy_polling] += (attempt_rate[policy_polling]
                            * poll_cost[policy_polling])

    with np.errstate(divide="ignore", invalid="ignore"):
        saturation_fraction = np.where(rho > 1.0, 1.0 / rho, 1.0)
        mean_service = np.where(total_packet_rate > 0.0,
                                rho_service / total_packet_rate, 0.0)
        # M/D/1-flavoured queueing wait in the stable regime; in overload
        # the wait is backlog growth, approximated by a quarter of the
        # run (the mean age of an eventually-served packet).
        stable = rho < 1.0
        wait = np.where(
            stable,
            np.clip(rho / (2.0 * np.maximum(1.0 - rho, 1e-12)), 0.0, None)
            * mean_service,
            0.25 * duration * (1.0 - saturation_fraction),
        )
        wait = np.minimum(wait, duration)

    max_service = np.zeros(count)
    np.maximum.at(max_service, member_of,
                  np.where(packet_rate > 0.0, service, 0.0))

    # A phase-locked node always waits exactly until its slot; a drifting
    # one samples the frame uniformly.
    node_access = np.where(phase_locked, slot_offset,
                           TDMA_SUPERFRAME_SECONDS / 2.0)
    node_access_tail = np.where(phase_locked, slot_offset,
                                TDMA_SUPERFRAME_SECONDS)

    access_mean = np.zeros(count)
    with np.errstate(invalid="ignore"):
        tdma_access = np.where(
            total_packet_rate > 0.0,
            per_member(packet_rate * node_access) / total_packet_rate, 0.0)
    access_mean[policy_tdma] = tdma_access[policy_tdma]
    access_mean[policy_polling] = (poll_cost[policy_polling]
                                   * (node_count[policy_polling] / 2.0 + 1.0))
    access_tail = np.zeros(count)
    tdma_tail = np.zeros(count)
    np.maximum.at(tdma_tail, member_of,
                  np.where(packet_rate > 0.0, node_access_tail, 0.0))
    access_tail[policy_tdma] = tdma_tail[policy_tdma]
    access_tail[policy_polling] = (poll_cost[policy_polling]
                                   * node_count[policy_polling])

    # Synchronized-burst drain: equal-period periodic peers arrive as one
    # batch and serialise at a policy-specific spacing — back-to-back
    # service for FIFO, service plus a poll for polling, and for TDMA the
    # frame time divided by how many transmissions fit the member's slot
    # span (windows cover only part of each superframe, so a drained
    # burst trickles out at frame granularity).
    slot_span = per_member(slot_seconds)
    drain = service.copy()
    polling_rows = policy_polling[member_of]
    drain[polling_rows] += poll_cost[member_of][polling_rows]
    tdma_rows = policy_tdma[member_of]
    with np.errstate(divide="ignore", invalid="ignore"):
        frame_drain = TDMA_SUPERFRAME_SECONDS / np.maximum(
            1.0, slot_span[member_of] / service)
    drain[tdma_rows] = np.maximum(drain, frame_drain)[tdma_rows]
    batch_wait = (batch_size - 1.0) / 2.0 * drain
    with np.errstate(invalid="ignore"):
        member_batch_wait = np.where(
            total_packet_rate > 0.0,
            per_member(packet_rate * batch_wait) / total_packet_rate, 0.0)
    batch_tail = np.zeros(count)
    np.maximum.at(batch_tail, member_of,
                  np.where(packet_rate > 0.0,
                           (batch_size - 1.0) * drain, 0.0))

    mean_latency = mean_service + wait + access_mean + member_batch_wait
    p99_latency = np.maximum(
        max_service + 3.0 * wait + access_tail + batch_tail, mean_latency)
    had_packets = total_packet_rate * duration > 0.0
    mean_latency = np.where(had_packets, mean_latency, 0.0)
    p99_latency = np.where(had_packets, p99_latency, 0.0)

    # Horizon accounting: the DES counts every generated packet as
    # offered, so packets still in flight at the end of the run push the
    # delivered fraction below one.  Two effects matter: packets born
    # within one mean latency of the horizon, and — because the sampler
    # clamps packet sizes to an integer fraction of the duration — the
    # final packet of a stream whose period divides the duration exactly
    # (generated *at* the horizon, it can never deliver).
    offered_row = packet_rate * duration[member_of]
    with np.errstate(divide="ignore", invalid="ignore"):
        cycles_run = duration[member_of] / period_seconds
    on_boundary = (is_periodic & (offered_row >= 1.0)
                   & (np.abs(cycles_run - np.rint(cycles_run))
                      < 1e-6 * np.maximum(cycles_run, 1.0)))
    undelivered_row = np.minimum(
        offered_row,
        on_boundary.astype(float) + packet_rate * mean_latency[member_of])
    offered = per_member(offered_row)
    with np.errstate(invalid="ignore"):
        horizon_fraction = np.where(
            offered > 0.0, 1.0 - per_member(undelivered_row) / offered, 1.0)
    # Admission: what the medium accepts and eventually serialises
    # (saturation and horizon effects).  The lossy link then drops the
    # ARQ-unrecoverable share of *admitted* packets; erased attempts
    # still consumed airtime and energy, so the admission fraction — not
    # the delivered fraction — drives the serialisation terms below.
    admission_fraction = np.minimum(saturation_fraction, horizon_fraction)
    with np.errstate(invalid="ignore"):
        member_delivery = np.where(
            total_packet_rate > 0.0,
            per_member(packet_rate * delivery_prob) / total_packet_rate, 1.0)
    delivered_fraction = admission_fraction * member_delivery

    # Depletion model: each battery row's average pre-death power
    # projects its time to death (usable energy over net drain, the
    # closed-form Fig. 3 arithmetic applied per node); a node past its
    # death stops generating *and* consuming, so traffic and energy
    # below use the alive duration instead of the horizon.  Deliberately
    # unmodelled: low-battery duty-cycle adaptation (a throttled node
    # outlives this estimate) and state-of-charge trajectories.  A
    # battery-less batch (the default cohort) skips the extra vector
    # passes entirely.
    full_duration = duration[member_of]
    member_death = np.full(count, np.inf)
    if np.isfinite(initial_energy).any():
        bits_tx_full = (packet_rate * bits * full_duration
                        * saturation_fraction[member_of] * attempts)
        tx_seconds_full = bits_tx_full / link_rate
        ack_energy_full = (packet_rate * full_duration
                           * saturation_fraction[member_of]
                           * delivery_prob * ack_bits[member_of] * rx_epb)
        energy_full = (static_power * full_duration
                       + bits_tx_full * tx_epb
                       + ack_energy_full
                       + sleep_power * np.maximum(full_duration
                                                  - tx_seconds_full, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            power_full = np.where(full_duration > 0.0,
                                  energy_full / full_duration, 0.0)
            net_drain = power_full + leak_w - harvest_w
            death = np.where(net_drain > 0.0, initial_energy / net_drain,
                             np.inf)
        alive_duration = np.minimum(death, full_duration)
        rows_per_member = per_member(np.ones_like(packet_rate))
        with np.errstate(invalid="ignore"):
            alive_fraction = np.where(
                rows_per_member > 0.0,
                per_member((death > full_duration).astype(float))
                / rows_per_member, 1.0)
        np.minimum.at(member_death, member_of, death)
        member_death = np.where(member_death <= duration, member_death,
                                np.inf)
        delivered_packets = np.rint(
            per_member(packet_rate * alive_duration * delivery_prob)
            * admission_fraction).astype(np.int64)
        busy = (per_member(packet_rate * service * alive_duration)
                * admission_fraction)
    else:
        alive_duration = full_duration
        alive_fraction = np.ones(count)
        delivered_packets = np.rint(
            total_packet_rate * duration * delivered_fraction
        ).astype(np.int64)
        busy = rho_service * duration * admission_fraction

    # Ledger arithmetic, identical to the simulator's accounting: the
    # transmitted bits follow the accepted traffic — every ARQ attempt
    # re-serialises the frame, so erased attempts burn transmit energy
    # and hub receive energy too — and the sleep residue is whatever the
    # link is not serialising, both clipped to each node's alive
    # duration.  Acks charge the leaf receiver and the hub transmitter
    # once per delivered packet.
    bits_tx = (packet_rate * bits * alive_duration
               * admission_fraction[member_of] * attempts)
    tx_seconds = bits_tx / link_rate
    delivered_row = (packet_rate * alive_duration
                     * admission_fraction[member_of] * delivery_prob)
    ack_rx_energy = delivered_row * ack_bits[member_of] * rx_epb
    node_energy = (static_power * alive_duration
                   + bits_tx * tx_epb
                   + ack_rx_energy
                   + sleep_power * np.maximum(alive_duration
                                              - tx_seconds, 0.0))
    leaf_energy = per_member(node_energy)
    leaf_power = leaf_energy / duration
    utilization = np.minimum(np.where(duration > 0, busy / duration, 0.0),
                             1.0)
    hub_rx_energy = per_member(bits_tx * rx_epb)
    hub_ack_energy = per_member(delivered_row) * ack_bits * hub_tx_epb
    hub_energy = hub_rx_energy + hub_ack_energy + hub_sleep * np.maximum(
        duration - np.minimum(busy, duration), 0.0)
    hub_power = hub_energy / duration

    return MemberColumns(
        index=table.index,
        scenario=table.scenario,
        source=["analytic"] * count,
        arbitration=table.arbitration,
        node_count=node_count.astype(np.int64),
        duration_seconds=duration,
        delivered_packets=delivered_packets,
        delivered_fraction=delivered_fraction,
        mean_latency_seconds=mean_latency,
        p99_latency_seconds=p99_latency,
        bus_utilization=utilization,
        leaf_power_watts=leaf_power,
        hub_power_watts=hub_power,
        leaf_energy_joules=leaf_energy,
        hub_energy_joules=hub_energy,
        alive_fraction=alive_fraction,
        first_death_seconds=member_death,
    )


def evaluate_members(specs: Sequence[ScenarioSpec],
                     indices: Sequence[int] | None = None,
                     interference: Sequence[tuple[float, float] | None]
                     | None = None) -> list[MemberMetrics]:
    """Steady-state metrics for a batch of member scenarios.

    *indices* labels the returned metrics (member indices within the
    cohort); it defaults to the batch positions.

    *interference* is the multi-body correction: one
    ``(rf_interference_dbm, eqs_interference_volts)`` pair per member —
    the aggregate co-channel power and coupled voltage the member's
    body receives from the rest of its room — or ``None`` for a member
    alone in its room.  A member's reliability profile is then derived
    through :meth:`~repro.scenarios.spec.ScenarioSpec.
    reliability_profile_adjusted`, which feeds interference-raised
    erasure rates into the same vectorised attempt/delivery columns
    the kernel reads; every other float is untouched.
    ``interference=None`` (the default, and any all-``None`` sequence)
    is exactly the standalone evaluation — bit-identical, the cohort
    side of the one-body neutrality contract.
    """
    indices = list(indices) if indices is not None else list(range(len(specs)))
    if len(indices) != len(specs):
        raise ScenarioError("indices must match the batch length")
    if interference is not None and len(interference) != len(specs):
        raise ScenarioError("interference must match the batch length")
    if not specs:
        return []
    return evaluate_rows(scenario_rows(specs, indices, interference)).rows()


def evaluate_member(spec: ScenarioSpec, index: int = 0) -> MemberMetrics:
    """Steady-state metrics for a single scenario (tests, validation)."""
    return evaluate_members([spec], [index])[0]
