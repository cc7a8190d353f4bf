"""Declarative scenario specifications for the body-network simulator.

A :class:`ScenarioSpec` describes a whole on-body workload — which leaf
nodes exist (compiled from :mod:`repro.sensors.catalog` modalities or
explicit rates), which link technology each one carries (mixed Wi-R /
MQS implant / BLE legacy populations), how the medium is arbitrated
(FIFO, TDMA, hub polling) and which duty-cycle events fire during the
run — and compiles it into a ready-to-run
:class:`~repro.netsim.simulator.BodyNetworkSimulator`.

Specs are plain frozen dataclasses: they can be defined in one
expression, registered under a name (see :mod:`repro.scenarios.registry`)
and reproduced exactly from their parameters.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from ..body.posture import Posture, channel_for_posture
from ..comm.ble import ble_1m_phy, ble_2m_phy
from ..comm.budget import (eqs_link_budget,
                           interference_adjusted_noise_floor_dbm,
                           interference_adjusted_noise_volts,
                           rf_link_budget)
from ..comm.eqs_hbc import (
    EQSHBCTransceiver,
    eqs_hbc_sub_uw,
    wir_commercial,
    wir_leaf_node,
)
from ..comm.link import CommTechnology
from ..comm.mqs_hbc import mqs_implant_link, mqs_wearable_relay
from ..comm.nfmi import nfmi_hearing_aid
from ..energy.battery import (
    BatterySpec,
    coin_cell_cr2032,
    coin_cell_high_capacity,
    lipo_smartwatch,
)
from ..energy.harvester import (
    EnergyHarvester,
    HarvestingEnvironment,
    indoor_photovoltaic,
    kinetic_wrist,
    outdoor_photovoltaic,
    rf_ambient,
    thermoelectric_body,
)
from ..coding import CodingSpec
from ..errors import ScenarioError
from ..netsim.arbitration import POLICY_FACTORIES
from ..netsim.reliability import DEFAULT_ACK_BITS, ARQPolicy, LinkReliability
from ..netsim.config import NodeConfig
from ..netsim.simulator import BodyNetworkSimulator, SimulationResult
from ..netsim.traffic import PeriodicSource, PoissonSource, TrafficSource
from ..sensors.catalog import SensorModality, modality_spec

#: Link technologies a scenario node may carry, by short name.
TECHNOLOGY_FACTORIES: dict[str, Callable[[], CommTechnology]] = {
    "wir": wir_commercial,
    "wir_leaf": wir_leaf_node,
    "sub_uw": eqs_hbc_sub_uw,
    "mqs_implant": mqs_implant_link,
    "mqs_relay": mqs_wearable_relay,
    "ble": ble_1m_phy,
    "ble_2m": ble_2m_phy,
    "nfmi": nfmi_hearing_aid,
}

#: Battery cells a scenario node may carry, by short name.
BATTERY_FACTORIES: dict[str, Callable[[], BatterySpec]] = {
    "cr2032": coin_cell_cr2032,
    "coin_1000mah": coin_cell_high_capacity,
    "lipo_watch": lipo_smartwatch,
}

#: Harvesters a scenario node may carry, by short name.
HARVESTER_FACTORIES: dict[str, Callable[[], EnergyHarvester]] = {
    "indoor_pv": indoor_photovoltaic,
    "outdoor_pv": outdoor_photovoltaic,
    "teg": thermoelectric_body,
    "kinetic": kinetic_wrist,
    "rf": rf_ambient,
}

#: Harvesting environments, by short name.
ENVIRONMENTS: dict[str, HarvestingEnvironment] = {
    environment.value: environment for environment in HarvestingEnvironment
}


def technology_for(key: str) -> CommTechnology:
    """Instantiate the link technology registered under *key*."""
    try:
        return TECHNOLOGY_FACTORIES[key]()
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGY_FACTORIES))
        raise ScenarioError(
            f"unknown technology {key!r} (known: {known})") from None


def battery_for(key: str, scale: float = 1.0) -> BatterySpec:
    """Instantiate the battery registered under *key*, capacity-scaled.

    ``scale`` shrinks (or grows) the cell's capacity, which is how a
    scenario compresses a week of battery trajectory into an hour of
    simulated time (see the ``week_wear`` gallery scenario).
    """
    try:
        spec = BATTERY_FACTORIES[key]()
    except KeyError:
        known = ", ".join(sorted(BATTERY_FACTORIES))
        raise ScenarioError(
            f"unknown battery {key!r} (known: {known})") from None
    if scale == 1.0:
        return spec
    return dataclasses.replace(spec, capacity_mah=spec.capacity_mah * scale)


def harvester_for(key: str) -> EnergyHarvester:
    """Instantiate the harvester registered under *key*."""
    try:
        return HARVESTER_FACTORIES[key]()
    except KeyError:
        known = ", ".join(sorted(HARVESTER_FACTORIES))
        raise ScenarioError(
            f"unknown harvester {key!r} (known: {known})") from None


def environment_for(key: str) -> HarvestingEnvironment:
    """Resolve a harvesting-environment short name."""
    try:
        return ENVIRONMENTS[key]
    except KeyError:
        known = ", ".join(sorted(ENVIRONMENTS))
        raise ScenarioError(
            f"unknown environment {key!r} (known: {known})") from None


#: Whole-body postures, by short name (see :mod:`repro.body.posture`).
POSTURES: dict[str, Posture] = {posture.value: posture for posture in Posture}


def posture_for(key: str) -> Posture:
    """Resolve a posture short name."""
    try:
        return POSTURES[key]
    except KeyError:
        known = ", ".join(sorted(POSTURES))
        raise ScenarioError(
            f"unknown posture {key!r} (known: {known})") from None


@dataclass(frozen=True)
class ReliabilitySpec:
    """Lossy-link configuration of a scenario.

    Turns the scenario's per-node link budgets into per-packet erasure
    probabilities and arms the medium's ARQ.  The physical story:

    * EQS (Wi-R family) nodes ride the capacitive body channel, whose
      gain depends on ``posture`` (ground coupling) — swap postures with
      ``action="posture"`` :class:`ScenarioEvent`s.  The receiver's
      input-referred noise is ``eqs_noise_rms_volts``.
    * RF (BLE/Wi-Fi family) nodes pay Friis plus body shadowing against
      ``rf_noise_floor_dbm`` — raise the floor to model an
      interference-heavy environment (a noisy clinical ward).
    * Technologies with no modelled channel (MQS implants, NFMI) fall
      back to ``default_error_rate``.

    ``arq=False`` makes the medium a pure erasure channel (every
    corrupted packet is lost); otherwise a stop-and-wait ARQ retries up
    to ``arq_retry_limit`` times with ``ack_bits``-long acks.
    """

    posture: str = "standing_shoes"
    eqs_noise_rms_volts: float = 1e-6
    rf_noise_floor_dbm: float = -94.0
    default_error_rate: float = 0.0
    arq: bool = True
    arq_retry_limit: int | None = 3
    ack_bits: float = DEFAULT_ACK_BITS

    def __post_init__(self) -> None:
        posture_for(self.posture)  # raises with the known list
        if self.eqs_noise_rms_volts <= 0:
            raise ScenarioError("EQS noise must be positive")
        if not 0.0 <= self.default_error_rate <= 1.0:
            raise ScenarioError("default error rate must be in [0, 1]")
        if self.arq_retry_limit is not None and self.arq_retry_limit < 0:
            raise ScenarioError("ARQ retry limit must be >= 0 (or None)")
        if self.ack_bits < 0:
            raise ScenarioError("ack length must be non-negative")

    def arq_policy(self) -> ARQPolicy | None:
        """The medium-level ARQ policy this spec compiles to."""
        if not self.arq:
            return None
        return ARQPolicy(retry_limit=self.arq_retry_limit,
                         ack_bits=self.ack_bits)

    def node_error_rate(self, node: "ScenarioNodeSpec",
                        posture: str | None = None) -> float:
        """Per-packet erasure probability of one leaf population.

        *posture* overrides the spec's initial posture (posture events
        re-derive rates mid-run).  Only EQS nodes feel the posture; RF
        nodes feel the noise floor; everything else gets the default.
        """
        return self.node_error_rate_adjusted(node, posture)

    def node_error_rate_adjusted(self, node: "ScenarioNodeSpec",
                                 posture: str | None = None,
                                 rf_interference_dbm: float = -math.inf,
                                 eqs_interference_volts: float = 0.0,
                                 tx_power_offset_db: float = 0.0) -> float:
        """Erasure probability under interference and a tx-power boost.

        The multi-body/controller entry point: *rf_interference_dbm* is
        the aggregate co-channel power other bodies put on the air
        (power-summed onto the thermal floor for RF nodes),
        *eqs_interference_volts* the receiver-referred voltage their
        EQS activity couples onto this body (root-sum-squared onto the
        input noise), and *tx_power_offset_db* a controller's transmit
        boost (voltage swing for EQS, radiated power for RF).  At the
        neutral arguments no float is touched — the noise helpers return
        their inputs and a zero offset skips both boosts — so
        :meth:`node_error_rate` is this method at its defaults, and a
        one-body environment and a static controller stay bit-identical
        to a standalone run.
        """
        technology = technology_for(node.technology)
        if isinstance(technology, EQSHBCTransceiver):
            swing = technology.tx_swing_volts
            if tx_power_offset_db != 0.0:
                swing = swing * 10.0 ** (tx_power_offset_db / 20.0)
            channel = channel_for_posture(
                posture_for(posture if posture is not None else self.posture))
            budget = eqs_link_budget(
                channel,
                tx_swing_volts=swing,
                noise_rms_volts=interference_adjusted_noise_volts(
                    self.eqs_noise_rms_volts, eqs_interference_volts),
                distance_metres=node.channel_distance_metres,
                frequency_hz=technology.carrier_frequency_hz,
            )
        elif hasattr(technology, "path_loss") and \
                hasattr(technology, "tx_power_dbm"):
            tx_power = technology.tx_power_dbm
            if tx_power_offset_db != 0.0:
                tx_power = tx_power + tx_power_offset_db
            budget = rf_link_budget(
                technology.path_loss,
                tx_power_dbm=tx_power,
                noise_floor_dbm=interference_adjusted_noise_floor_dbm(
                    self.rf_noise_floor_dbm, rf_interference_dbm),
                distance_metres=node.channel_distance_metres,
            )
        else:
            return self.default_error_rate
        # Coded nodes put shorter packets on the air, so the same BER
        # corrupts fewer of them — the PER side of the coding trade.
        return budget.packet_error_rate(node.coded_bits_per_packet())


@dataclass(frozen=True)
class ScenarioNodeSpec:
    """One leaf population in a scenario.

    Either ``modality`` (rate taken from the sensor catalog's compressed
    rate) or an explicit ``rate_bps`` must be given.  ``count > 1``
    replicates the node as ``name0..nameN-1``.

    ``battery`` (a :data:`BATTERY_FACTORIES` key) gives the node a finite
    cell whose capacity is multiplied by ``battery_scale`` — scaling a
    cell down compresses days of battery trajectory into a short run.
    ``harvester`` (a :data:`HARVESTER_FACTORIES` key) credits energy back
    in the scenario's environment, and ``low_battery_fraction`` arms the
    simulator's duty-cycle adaptation.  All default to off, which keeps
    the node's compiled behaviour bit-identical to the pre-energy-runtime
    kernel.

    ``coding`` (a :class:`~repro.coding.CodingSpec`) puts a rate-adaptive
    source coder between the sensor and the radio: packets keep their
    generation cadence but carry ``coded_bits_per_packet()`` on the air,
    the link budget sees the shorter packets (lower PER), and the
    encoder's power draw (:meth:`coding_power_watts`) is charged to the
    ``"coding"`` ledger component.  ``coding=None`` (the default) leaves
    every compiled float bit-identical to the pre-coding layer.
    """

    name: str
    modality: SensorModality | None = None
    rate_bps: float | None = None
    bits_per_packet: float = 8192.0
    technology: str = "wir"
    traffic: str = "periodic"
    count: int = 1
    sensing_power_watts: float = 30e-6
    isa_power_watts: float = 0.0
    battery: str | None = None
    battery_scale: float = 1.0
    initial_charge_fraction: float = 1.0
    harvester: str | None = None
    low_battery_fraction: float | None = None
    #: On-body channel length to the hub (wrist-to-chest scale); feeds
    #: the node's link budget when the scenario is lossy.
    channel_distance_metres: float = 1.5
    #: Optional rate-adaptive source coder (see :mod:`repro.coding`).
    coding: CodingSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("node name must be non-empty")
        if self.channel_distance_metres <= 0:
            raise ScenarioError(
                f"node {self.name!r} channel distance must be positive")
        if self.modality is None and self.rate_bps is None:
            raise ScenarioError(
                f"node {self.name!r} needs a modality or an explicit rate")
        if self.rate_bps is not None and self.rate_bps <= 0:
            raise ScenarioError(f"node {self.name!r} rate must be positive")
        if self.bits_per_packet <= 0:
            raise ScenarioError(
                f"node {self.name!r} packet size must be positive")
        if self.count < 1:
            raise ScenarioError(f"node {self.name!r} count must be >= 1")
        if self.traffic not in ("periodic", "poisson"):
            raise ScenarioError(
                f"node {self.name!r} traffic must be 'periodic' or 'poisson'")
        if self.technology not in TECHNOLOGY_FACTORIES:
            technology_for(self.technology)  # raises with the known list
        if self.sensing_power_watts < 0 or self.isa_power_watts < 0:
            raise ScenarioError(
                f"node {self.name!r} powers must be non-negative")
        if self.battery_scale <= 0:
            raise ScenarioError(
                f"node {self.name!r} battery scale must be positive")
        if not 0.0 < self.initial_charge_fraction <= 1.0:
            raise ScenarioError(
                f"node {self.name!r} initial charge must be in (0, 1]")
        if self.low_battery_fraction is not None and not (
                0.0 < self.low_battery_fraction < 1.0):
            raise ScenarioError(
                f"node {self.name!r} low-battery fraction must be in (0, 1)")
        if self.battery is not None:
            battery_for(self.battery)  # raises with the known list
        if self.harvester is not None:
            harvester_for(self.harvester)  # raises with the known list

    def resolved_rate_bps(self) -> float:
        """The offered rate: explicit override, else catalog compressed rate."""
        if self.rate_bps is not None:
            return self.rate_bps
        return modality_spec(self.modality).compressed_data_rate_bps

    def expanded_names(self) -> list[str]:
        """Concrete node names after replication."""
        if self.count == 1:
            return [self.name]
        return [f"{self.name}{index}" for index in range(self.count)]

    # -- source coding -----------------------------------------------------
    #
    # When ``coding is None`` every method below returns the plain
    # attribute (or a literal 0.0 / 1.0) with no arithmetic applied, so
    # the compiled simulator and the cohort fast path stay bit-identical
    # to the pre-coding layer.

    def coded_bits_per_packet(self) -> float:
        """On-air payload per packet (source bits when uncoded)."""
        if self.coding is None:
            return self.bits_per_packet
        return self.coding.coded_bits(self.bits_per_packet, self.modality)

    def effective_coding_rate(self) -> float:
        """Achieved coded bits per source bit (1.0 when uncoded)."""
        if self.coding is None:
            return 1.0
        return self.coding.effective_rate(self.modality)

    def coding_power_watts(self) -> float:
        """Average encoder draw for this node's stream (0.0 uncoded)."""
        if self.coding is None:
            return 0.0
        return self.coding.encode_power_watts(self.resolved_rate_bps(),
                                              self.modality)

    def air_rate_bps(self) -> float:
        """Average on-air rate after coding.

        Mirrors the attached source's ``average_rate_bps()`` arithmetic
        exactly (coded payload over the uncoded generation period), so
        analytic slot sizing agrees bit-for-bit with what the simulator
        registers on its medium.
        """
        if self.coding is None:
            return self.resolved_rate_bps()
        return self.coded_bits_per_packet() \
            / (self.bits_per_packet / self.resolved_rate_bps())

    def make_source(self) -> TrafficSource:
        """Build this node's traffic source.

        A coded node keeps the *generation* cadence of its source stream
        (one packet per ``bits_per_packet`` source bits) but each packet
        carries the coded payload — the bit-reduction factor the kernel's
        service/energy tables fold in.
        """
        rate = self.resolved_rate_bps()
        if self.coding is not None:
            coded_bits = self.coded_bits_per_packet()
            if self.traffic == "periodic":
                return PeriodicSource(
                    period_seconds=self.bits_per_packet / rate,
                    bits_per_packet=coded_bits,
                )
            return PoissonSource(
                mean_interarrival_seconds=self.bits_per_packet / rate,
                mean_bits_per_packet=coded_bits,
            )
        if self.traffic == "periodic":
            return PeriodicSource.from_rate(rate,
                                            bits_per_packet=self.bits_per_packet)
        return PoissonSource(
            mean_interarrival_seconds=self.bits_per_packet / rate,
            mean_bits_per_packet=self.bits_per_packet,
        )


@dataclass(frozen=True)
class ScenarioEvent:
    """A duty-cycle or posture event during the run.

    Fires at ``at_fraction`` of the simulated duration and either puts
    every node whose name starts with one of the ``node_prefixes`` to
    sleep (``action="sleep"``) / wakes it back up (``action="wake"``),
    or — ``action="posture"`` with the ``posture`` field set — swaps the
    active body channel for the matching nodes, re-deriving their
    packet-erasure probabilities through :class:`ReliabilitySpec` and
    :func:`repro.body.posture.channel_for_posture`.  A whole-body
    posture change uses the match-everything prefix ``("",)``.
    """

    at_fraction: float
    action: str
    node_prefixes: tuple[str, ...]
    posture: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ScenarioError("event fraction must be in [0, 1]")
        if self.action not in ("sleep", "wake", "posture"):
            raise ScenarioError(
                "event action must be 'sleep', 'wake' or 'posture'")
        if not self.node_prefixes:
            raise ScenarioError("event needs at least one node prefix")
        if self.action == "posture":
            if self.posture is None:
                raise ScenarioError("posture event needs a posture")
            posture_for(self.posture)  # raises with the known list
        elif self.posture is not None:
            raise ScenarioError(
                "only posture events may carry a posture")


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario execution: the spec's identity plus the sim outcome."""

    scenario: str
    duration_seconds: float
    arbitration: str
    node_count: int
    technologies: tuple[str, ...]
    simulated: SimulationResult

    def row(self) -> dict[str, object]:
        """One report-table row for this scenario run.

        The lifetime columns only appear for battery-carrying scenarios,
        so the historical gallery rows are byte-identical to before the
        energy runtime existed.
        """
        sim = self.simulated
        row: dict[str, object] = {
            "scenario": self.scenario,
            "nodes": self.node_count,
            "mac": self.arbitration,
            "technologies": len(self.technologies),
            "sim_seconds": self.duration_seconds,
            "delivered": sim.delivered_packets,
            "delivered_fraction": round(sim.delivered_fraction, 4),
            "mean_latency_ms": sim.mean_latency_seconds * 1e3,
            "p99_latency_ms": sim.p99_latency_seconds * 1e3,
            "bus_utilization": round(sim.bus_utilization, 4),
            "leaf_power_uw": sim.total_leaf_power_watts * 1e6,
            "hub_power_uw": sim.hub_average_power_watts * 1e6,
        }
        if sim.per_node_state_of_charge:
            row["min_soc"] = round(
                min(sim.per_node_state_of_charge.values()), 4)
            row["dead_nodes"] = sim.dead_node_count
            row["first_death_s"] = (
                round(sim.first_death_seconds, 2)
                if math.isfinite(sim.first_death_seconds) else float("inf"))
        if sim.per_node_state_of_charge or sim.harvested_joules > 0.0:
            # Harvester-only nodes (no battery) still bank income.
            row["harvested_j"] = round(sim.harvested_joules, 6)
        if sim.reliability_enabled:
            # Only lossy scenarios grow these columns, so the historical
            # gallery rows stay byte-identical.
            row["erased"] = sim.erased_attempts
            row["retx"] = sim.retransmissions
            row["lost"] = sim.lost_packets
            row["attempts_per_pkt"] = round(sim.attempts_per_delivered, 4)
            row["retx_energy_uj"] = round(
                sim.retransmission_energy_joules * 1e6, 3)
        if sim.coding_enabled:
            # Coding columns only appear for coded scenarios, keeping the
            # historical gallery rows byte-identical (same pattern as the
            # reliability columns above).
            row["bit_reduction"] = round(sim.bit_reduction_factor, 4)
            row["encode_energy_fraction"] = round(
                sim.encode_energy_fraction, 4)
        return row


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, named body-network workload."""

    name: str
    description: str
    duration_seconds: float
    nodes: tuple[ScenarioNodeSpec, ...]
    arbitration: str = "fifo"
    hub_technology: str = "wir"
    events: tuple[ScenarioEvent, ...] = ()
    per_packet_overhead_seconds: float = 100e-6
    environment: str = "indoor_office"
    energy_update_interval_seconds: float = 1.0
    reliability: ReliabilitySpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.duration_seconds <= 0:
            raise ScenarioError("scenario duration must be positive")
        if not self.nodes:
            raise ScenarioError(f"scenario {self.name!r} has no nodes")
        if self.arbitration not in POLICY_FACTORIES:
            known = ", ".join(sorted(POLICY_FACTORIES))
            raise ScenarioError(
                f"scenario {self.name!r}: unknown arbitration "
                f"{self.arbitration!r} (known: {known})")
        technology_for(self.hub_technology)
        environment_for(self.environment)
        if self.energy_update_interval_seconds <= 0:
            raise ScenarioError(
                f"scenario {self.name!r}: energy update interval must be "
                "positive")
        seen: set[str] = set()
        for node in self.nodes:
            for concrete in node.expanded_names():
                if concrete in seen:
                    raise ScenarioError(
                        f"scenario {self.name!r}: duplicate node "
                        f"{concrete!r}")
                seen.add(concrete)
            # A node faster than its own link can never drain its queue.
            link_rate = technology_for(node.technology).data_rate_bps()
            if node.resolved_rate_bps() > link_rate:
                raise ScenarioError(
                    f"scenario {self.name!r}: node {node.name!r} offers "
                    f"{node.resolved_rate_bps():.3g} bit/s over a "
                    f"{link_rate:.3g} bit/s link")
        for event in self.events:
            prefixes = tuple(event.node_prefixes)
            if not any(concrete.startswith(prefix)
                       for prefix in prefixes
                       for node in self.nodes
                       for concrete in node.expanded_names()):
                raise ScenarioError(
                    f"scenario {self.name!r}: event prefixes {prefixes!r} "
                    "match no node")
            if event.action == "posture" and self.reliability is None:
                raise ScenarioError(
                    f"scenario {self.name!r}: posture events need a "
                    "reliability spec (the posture only matters through "
                    "the link budget)")

    # -- derived views -----------------------------------------------------

    @property
    def leaf_count(self) -> int:
        """Total concrete leaf nodes after replication."""
        return sum(node.count for node in self.nodes)

    def offered_rate_bps(self) -> float:
        """Aggregate offered rate of all leaves."""
        return sum(node.resolved_rate_bps() * node.count
                   for node in self.nodes)

    def technologies(self) -> tuple[str, ...]:
        """Sorted set of technology keys used by the leaves."""
        return tuple(sorted({node.technology for node in self.nodes}))

    @property
    def has_energy_runtime(self) -> bool:
        """Whether any leaf carries a battery or a harvester."""
        return any(node.battery is not None or node.harvester is not None
                   for node in self.nodes)

    @property
    def has_coding(self) -> bool:
        """Whether any leaf runs a source coder."""
        return any(node.coding is not None for node in self.nodes)

    def capabilities(self) -> tuple[str, ...]:
        """Capability tags (``lossy`` / ``coded`` / ``battery``).

        The navigation column of ``repro scenarios list``: which
        subsystems a scenario exercises — a reliability spec (lossy
        links), source coders, or batteries/harvesters.  Multi-body
        environments add their own ``multi-body`` tag on top (see
        :meth:`repro.scenarios.environment.EnvironmentSpec.capabilities`).
        """
        tags = []
        if self.reliability is not None:
            tags.append("lossy")
        if self.has_coding:
            tags.append("coded")
        if self.has_energy_runtime:
            tags.append("battery")
        return tuple(tags)

    def node_posture_timeline(self, concrete: str,
                              node: "ScenarioNodeSpec"
                              ) -> list[tuple[float, float, str]]:
        """``(start, end, posture)`` segments one concrete node sees.

        Replays the scenario's posture events in the simulator's order
        (schedule order at equal fractions).  Requires a reliability
        spec (which provides the initial posture).
        """
        if self.reliability is None:
            raise ScenarioError(
                f"scenario {self.name!r} has no reliability spec")
        segments: list[tuple[float, float, str]] = []
        current = self.reliability.posture
        last = 0.0
        ordered = sorted(enumerate(self.events),
                         key=lambda pair: (pair[1].at_fraction, pair[0]))
        for _, event in ordered:
            if event.action != "posture":
                continue
            if not any(concrete.startswith(prefix)
                       for prefix in event.node_prefixes):
                continue
            if event.at_fraction > last:
                segments.append((last, event.at_fraction, current))
            last = event.at_fraction
            current = event.posture
        if last < 1.0 or not segments:
            segments.append((last, 1.0, current))
        return segments

    def node_awake_intervals(self, concrete: str
                             ) -> list[tuple[float, float]]:
        """``(start, end)`` fractions during which one node generates.

        The same sleep/wake replay :func:`repro.cohort.analytic.
        active_fractions` integrates, kept here as intervals so posture
        segments can be weighted by the traffic that actually flowed in
        them.
        """
        ordered = sorted(enumerate(self.events),
                         key=lambda pair: (pair[1].at_fraction, pair[0]))
        intervals: list[tuple[float, float]] = []
        active = True
        last = 0.0
        for _, event in ordered:
            if event.action not in ("sleep", "wake"):
                continue
            if not any(concrete.startswith(prefix)
                       for prefix in event.node_prefixes):
                continue
            if active and event.at_fraction > last:
                intervals.append((last, event.at_fraction))
            last = event.at_fraction
            active = event.action == "wake"
        if active and last < 1.0:
            intervals.append((last, 1.0))
        return intervals

    def reliability_profile(self) -> dict[str, tuple[float, float]]:
        """Per-packet ``(delivery probability, expected attempts)``
        averaged over each concrete node's posture schedule.

        The closed-form counterpart of the DES erasure process, used by
        the cohort analytic fast path: each posture segment contributes
        its ARQ delivery probability and truncated-geometric attempt
        count (see :class:`~repro.netsim.reliability.ARQPolicy`),
        weighted by the node's *awake* time inside the segment — a
        posture the node slept through offered no packets and must not
        tilt the average.  Without ARQ a corrupted packet is lost, so
        delivery probability is ``1 - PER`` and every packet is
        attempted exactly once.
        """
        return self.reliability_profile_adjusted()

    def reliability_profile_adjusted(
            self, rf_interference_dbm: float = -math.inf,
            eqs_interference_volts: float = 0.0
    ) -> dict[str, tuple[float, float]]:
        """:meth:`reliability_profile` under ambient interference.

        The closed-form interference correction the cohort analytic
        applies to multi-body members: every posture segment's erasure
        probability is re-derived through
        :meth:`ReliabilitySpec.node_error_rate_adjusted` with the given
        aggregate co-channel power (RF nodes) and coupled voltage (EQS
        nodes).  At the neutral arguments every segment computes
        exactly the floats of the plain profile — which is why
        :meth:`reliability_profile` simply delegates here, and why
        one-body cohorts stay bit-identical.
        """
        if self.reliability is None:
            return {concrete: (1.0, 1.0) for node in self.nodes
                    for concrete in node.expanded_names()}
        arq = self.reliability.arq_policy()
        profile: dict[str, tuple[float, float]] = {}
        for node in self.nodes:
            for concrete in node.expanded_names():
                awake = self.node_awake_intervals(concrete)
                delivered = 0.0
                attempts = 0.0
                total_weight = 0.0
                for start, end, posture in \
                        self.node_posture_timeline(concrete, node):
                    weight = sum(min(end, high) - max(start, low)
                                 for low, high in awake
                                 if min(end, high) > max(start, low))
                    if weight == 0.0:
                        continue
                    total_weight += weight
                    error_rate = self.reliability.node_error_rate_adjusted(
                        node, posture,
                        rf_interference_dbm=rf_interference_dbm,
                        eqs_interference_volts=eqs_interference_volts)
                    if arq is None:
                        delivered += weight * (1.0 - error_rate)
                        attempts += weight
                    else:
                        delivered += weight \
                            * arq.delivery_probability(error_rate)
                        attempts += weight \
                            * arq.expected_attempts(error_rate)
                if total_weight == 0.0:
                    profile[concrete] = (1.0, 1.0)  # never awake: no packets
                else:
                    profile[concrete] = (delivered / total_weight,
                                         attempts / total_weight)
        return profile

    # -- compilation -------------------------------------------------------

    def build(self, seed: int = 0,
              duration_seconds: float | None = None,
              latency_exact_capacity: int | None = None
              ) -> BodyNetworkSimulator:
        """Compile the spec into a configured simulator.

        Duty-cycle events are pre-scheduled on the simulator's queue
        against the resolved duration; call :meth:`run` (or
        ``simulator.run`` with the same duration) to execute.
        """
        duration = (duration_seconds if duration_seconds is not None
                    else self.duration_seconds)
        if duration <= 0:
            raise ScenarioError("duration must be positive")
        hub_technology = technology_for(self.hub_technology)
        link_reliability = None
        if self.reliability is not None:
            link_reliability = LinkReliability(
                seed=seed,
                arq=self.reliability.arq_policy(),
                default_error_rate=self.reliability.default_error_rate,
            )
        simulator = BodyNetworkSimulator(
            hub_technology,
            rng=seed,
            per_packet_overhead_seconds=self.per_packet_overhead_seconds,
            arbitration=self.arbitration,
            latency_exact_capacity=latency_exact_capacity,
            energy_update_interval_seconds=self.energy_update_interval_seconds,
            harvest_environment=environment_for(self.environment),
            reliability=link_reliability,
        )
        spec_of: dict[str, ScenarioNodeSpec] = {}
        for node in self.nodes:
            technology = (None if node.technology == self.hub_technology
                          else technology_for(node.technology))
            battery = (battery_for(node.battery, node.battery_scale)
                       if node.battery is not None else None)
            for concrete in node.expanded_names():
                spec_of[concrete] = node
                simulator.attach(NodeConfig(
                    concrete,
                    node.make_source(),
                    sensing_power_watts=node.sensing_power_watts,
                    isa_power_watts=node.isa_power_watts,
                    technology=technology,
                    battery=battery,
                    harvester=(harvester_for(node.harvester)
                               if node.harvester is not None else None),
                    initial_charge_fraction=node.initial_charge_fraction,
                    low_battery_fraction=node.low_battery_fraction,
                    coding_power_watts=node.coding_power_watts(),
                    coding_rate=node.effective_coding_rate(),
                ))
                if link_reliability is not None:
                    link_reliability.set_error_rate(
                        concrete,
                        self.reliability.node_error_rate(node))
        for event in self.events:
            targets = [name for name in simulator.nodes
                       if any(name.startswith(prefix)
                              for prefix in event.node_prefixes)]
            if event.action == "posture":
                def swap_posture(targets=targets, posture=event.posture):
                    for name in targets:
                        simulator.set_node_error_rate(
                            name, self.reliability.node_error_rate(
                                spec_of[name], posture))
                simulator.queue.schedule_at(
                    event.at_fraction * duration, swap_posture)
                continue
            active = event.action == "wake"
            simulator.queue.schedule_at(
                event.at_fraction * duration,
                lambda targets=targets, active=active: [
                    simulator.set_node_active(name, active)
                    for name in targets
                ],
            )
        return simulator

    def run(self, seed: int = 0,
            duration_seconds: float | None = None,
            latency_exact_capacity: int | None = None,
            fast_path: str | None = None) -> ScenarioResult:
        """Compile and execute; returns the scenario-labelled result.

        ``fast_path`` is forwarded to
        :meth:`~repro.netsim.simulator.BodyNetworkSimulator.run`:
        ``"hybrid"`` enables the macro-tick steady-state fast path,
        ``None``/``"exact"`` keep the bit-exact kernel.
        """
        duration = (duration_seconds if duration_seconds is not None
                    else self.duration_seconds)
        simulator = self.build(seed=seed, duration_seconds=duration,
                               latency_exact_capacity=latency_exact_capacity)
        simulated = simulator.run(duration, fast_path=fast_path)
        return ScenarioResult(
            scenario=self.name,
            duration_seconds=duration,
            arbitration=self.arbitration,
            node_count=self.leaf_count,
            technologies=self.technologies(),
            simulated=simulated,
        )

    def describe(self) -> dict[str, object]:
        """Summary row for ``repro scenarios list``."""
        return {
            "scenario": self.name,
            "nodes": self.leaf_count,
            "mac": self.arbitration,
            "technologies": ",".join(self.technologies()),
            "offered_kbps": self.offered_rate_bps() / 1e3,
            "sim_seconds": self.duration_seconds,
            "events": len(self.events),
            "description": self.description,
            "capabilities": ",".join(self.capabilities()) or "-",
        }
