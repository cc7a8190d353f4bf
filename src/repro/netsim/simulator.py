"""End-to-end body-network simulation: leaves, hub, shared body medium.

A :class:`BodyNetworkSimulator` wires together traffic sources (one per
leaf node), a shared :class:`~repro.netsim.bus.Medium` with a pluggable
arbitration policy (FIFO, TDMA slots, hub polling), per-node link
technologies (mixed Wi-R / MQS implant / BLE legacy populations on one
body) and per-node energy ledgers, then runs the event queue for a
simulated duration.  The result reports per-node average power, per-node
goodput and latency statistics — the dynamic counterpart of the
closed-form budgets in :mod:`repro.core`, and the engine behind the
network-scaling ablation and the scenario gallery.

Nodes may carry a finite battery and an energy harvester (see
:mod:`repro.energy.runtime`): the simulator then drains the battery on
every transmission and, through periodic energy ticks merged into
the kernel's event order, on every sensing/ISA/sleep interval,
credits harvested energy back, and reacts to the two
state-of-charge thresholds — a *low-battery* crossing throttles the
node's traffic (duty-cycle adaptation), an empty cell *browns the node
out* (it stops generating and consuming for the rest of the run).
Nodes without a battery behave exactly as before; a simulation with no
battery- or harvester-carrying node is bit-identical to the historical
kernel.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Mapping
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from ..errors import SimulationError
from ..comm.link import CommTechnology
from ..control import (Controller, ControllerRuntime, Observation,
                       SoCThrottleController, make_controller)
from ..energy.battery import Battery
from ..energy.harvester import HarvestingEnvironment
from ..energy.ledger import EnergyLedger
from ..energy.runtime import NodeEnergyState
from .. import units
from .arbitration import (ArbitrationPolicy, FIFOArbitration,
                          HubPollingArbitration, TDMAArbitration)
from .bus import Medium
from .events import EventQueue
from .packet import Packet
from .reliability import LinkReliability
from .config import DEFAULT_LOW_BATTERY_STRIDE, NodeConfig
from .stats import PENDING_FLUSH_THRESHOLD
from .traffic import PeriodicSource, TrafficSource

#: Default spacing of the periodic energy ticks (simulated
#: seconds).  Only scheduled when at least one node carries a battery or
#: harvester; brownout times are interpolated inside the interval, so
#: the default resolves death times far finer than the tick itself.
DEFAULT_ENERGY_UPDATE_INTERVAL_SECONDS = 1.0

#: The implicit low-battery policy of every energy node that has no
#: controller attached: the historical 1-in-``low_battery_stride``
#: throttle, now expressed as the default
#: :class:`~repro.control.SoCThrottleController` configuration.  The
#: instance is stateless, so one shared object serves every node.
_DEFAULT_SOC_THROTTLE = SoCThrottleController()

#: Bump when :meth:`SimulationResult.to_dict`'s layout changes
#: incompatibly.  Serialised results embed this version so artifacts
#: written by an older layout are rejected loudly instead of being
#: misread field-by-field.
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class EnergyEvent:
    """One energy-state transition observed during a run."""

    kind: str  # "brownout" or "low_battery"
    node: str
    time_seconds: float
    state_of_charge_fraction: float


@dataclass
class SimulatedNode:
    """One leaf node attached to the body network."""

    name: str
    source: TrafficSource
    technology: CommTechnology
    sensing_power_watts: float = 0.0
    isa_power_watts: float = 0.0
    active: bool = True
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    packets_sent: int = 0
    bits_sent: float = 0.0
    energy: NodeEnergyState | None = None
    packets_delivered: int = 0
    tx_stride: int = 1
    low_battery_stride: int = DEFAULT_LOW_BATTERY_STRIDE
    generated_count: int = 0
    accounted_bits: float = 0.0
    energy_settled_seconds: float = 0.0
    #: Extra bits serialised beyond one frame per accepted packet
    #: (retransmission overhead).  Corrupted attempts add their frame; a
    #: packet declared lost gives one frame back, because its first
    #: serialisation is already counted in ``bits_sent``.
    retx_bits: float = 0.0
    #: Bits of packets the lossy link ultimately failed to deliver.
    lost_bits: float = 0.0
    #: Transmission attempts the lossy link erased (monotone counter;
    #: controllers difference it into windowed PER observations).
    erased_attempts: int = 0
    #: Closed-loop policy attached to this node (``None`` → the default
    #: low-battery throttle; see :meth:`BodyNetworkSimulator.
    #: attach_controller`).
    controller: Controller | None = None
    #: Constant source-coder draw (0.0 = no coder; see repro.coding).
    coding_power_watts: float = 0.0
    #: Coded bits per source bit the attached source already reflects;
    #: bookkeeping only (source-bit totals), never rescales packets.
    coding_rate: float = 1.0

    def __post_init__(self) -> None:
        # NaN-safe: a NaN power fails every comparison, so test the
        # accepted range instead of the rejected one.
        if not (0.0 <= self.sensing_power_watts < math.inf
                and 0.0 <= self.isa_power_watts < math.inf):
            raise SimulationError(
                "node powers must be finite and non-negative")
        if not 0.0 <= self.coding_power_watts < math.inf:
            raise SimulationError(
                "coding power must be finite and non-negative")
        if not 0.0 < self.coding_rate <= 1.0:
            raise SimulationError("coding rate must be in (0, 1]")


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    duration_seconds: float
    delivered_packets: int
    dropped_packets: int
    delivered_bits: float
    mean_latency_seconds: float
    p99_latency_seconds: float
    bus_utilization: float
    per_node_average_power_watts: dict[str, float]
    per_node_goodput_bps: dict[str, float]
    hub_rx_energy_joules: float
    arbitration: str = "fifo"
    hub_energy_joules: float = 0.0
    hub_average_power_watts: float = 0.0
    offered_packets: int = 0
    #: Final state of charge of every battery-carrying node (fraction).
    per_node_state_of_charge: dict[str, float] = field(default_factory=dict)
    #: Brownout time of every node that died during the run.
    per_node_first_death_seconds: dict[str, float] = field(default_factory=dict)
    #: Packets each dead node delivered before its brownout.
    per_node_delivered_before_death: dict[str, int] = field(default_factory=dict)
    #: Chronological brownout / low-battery transitions.
    energy_events: tuple[EnergyEvent, ...] = ()
    #: Total energy credited by harvesters across all nodes.
    harvested_joules: float = 0.0
    #: Whether a lossy-link reliability model was attached to the run.
    reliability_enabled: bool = False
    #: Transmission attempts corrupted by the lossy link.
    erased_attempts: int = 0
    #: Corrupted attempts the ARQ policy retransmitted.
    retransmissions: int = 0
    #: Packets lost after exhausting their retries (or erased, no ARQ).
    lost_packets: int = 0
    #: Leaf energy wasted serialising corrupted attempts.
    retransmission_energy_joules: float = 0.0
    #: Leaf energy spent receiving ARQ acks.
    ack_energy_joules: float = 0.0
    #: Whether any leaf ran a source coder (see :mod:`repro.coding`).
    coding_enabled: bool = False
    #: Total leaf energy spent in source-coder encoders.
    coding_energy_joules: float = 0.0
    #: Delivered payload re-expanded to pre-coder source bits.
    source_bits_delivered: float = 0.0

    @property
    def bit_reduction_factor(self) -> float:
        """Source bits per coded bit over the delivered traffic.

        1.0 when no coder ran (delivered bits *are* source bits); a
        coder compressing 2:1 across the board reads 2.0.
        """
        if not self.coding_enabled or self.delivered_bits <= 0.0:
            return 1.0
        return self.source_bits_delivered / self.delivered_bits

    @property
    def encode_energy_fraction(self) -> float:
        """Share of total leaf energy spent encoding (0.0 uncoded)."""
        total = self.total_leaf_power_watts * self.duration_seconds
        if total <= 0.0:
            return 0.0
        return self.coding_energy_joules / total

    @property
    def total_leaf_power_watts(self) -> float:
        """Sum of all leaf nodes' average power."""
        return sum(self.per_node_average_power_watts.values())

    @property
    def delivered_fraction(self) -> float:
        """Delivered / offered packets (1.0 when nothing was offered).

        Offered counts every generated packet — dropped ones and those
        still queued or in flight at the horizon — so a saturated medium
        that merely backlogs traffic reads below 1.0 even before its
        buffer bound starts dropping.
        """
        if self.offered_packets == 0:
            return 1.0
        return self.delivered_packets / self.offered_packets

    @property
    def attempts_per_delivered(self) -> float:
        """Mean transmission attempts per delivered packet (1.0 lossless).

        Counts every serialisation the medium performed — delivered
        packets plus corrupted attempts — against the deliveries; the
        retransmission overhead factor the reliability experiment sweeps.
        A run that erased every attempt delivered nothing at infinite
        cost, and reports exactly that.
        """
        if self.delivered_packets == 0:
            return math.inf if self.erased_attempts > 0 else 1.0
        return (self.delivered_packets + self.erased_attempts) \
            / self.delivered_packets

    @property
    def first_death_seconds(self) -> float:
        """Earliest brownout time (``inf`` when every node survived)."""
        if not self.per_node_first_death_seconds:
            return math.inf
        return min(self.per_node_first_death_seconds.values())

    @property
    def dead_node_count(self) -> int:
        """Number of nodes that browned out during the run."""
        return len(self.per_node_first_death_seconds)

    @property
    def alive_fraction(self) -> float:
        """Fraction of leaf nodes still alive at the horizon."""
        total = len(self.per_node_average_power_watts)
        if total == 0:
            return 1.0
        return 1.0 - self.dead_node_count / total

    def to_dict(self) -> dict[str, object]:
        """Schema-versioned plain-dict form of this result.

        Every field is reduced to JSON-friendly types (energy events
        become a list of dicts); derived properties are not included —
        :meth:`from_dict` reconstructs an object that recomputes them.
        The artifact layer's ``sanitize`` may further spell non-finite
        floats as ``"nan"``/``"inf"`` strings; :meth:`from_dict` accepts
        those spellings back.
        """
        data: dict[str, object] = {
            "result_schema_version": RESULT_SCHEMA_VERSION,
        }
        for spec in dataclasses.fields(self):
            data[spec.name] = getattr(self, spec.name)
        data["per_node_average_power_watts"] = dict(
            self.per_node_average_power_watts)
        data["per_node_goodput_bps"] = dict(self.per_node_goodput_bps)
        data["per_node_state_of_charge"] = dict(self.per_node_state_of_charge)
        data["per_node_first_death_seconds"] = dict(
            self.per_node_first_death_seconds)
        data["per_node_delivered_before_death"] = dict(
            self.per_node_delivered_before_death)
        data["energy_events"] = [dataclasses.asdict(event)
                                 for event in self.energy_events]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        Tolerates the JSON/sanitize round-trip: non-finite floats spelt
        as strings are parsed back, lists come back as tuples where the
        field wants one.  A missing or different schema version raises
        :class:`~repro.errors.SimulationError`.
        """
        version = data.get("result_schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise SimulationError(
                f"result document has schema version {version!r}, "
                f"expected {RESULT_SCHEMA_VERSION}")
        _float = float  # parses "nan"/"inf"/"-inf" string spellings too

        def float_map(value: object) -> dict[str, float]:
            return {str(key): _float(item)
                    for key, item in dict(value).items()}

        kwargs: dict[str, object] = {}
        for spec in dataclasses.fields(cls):
            if spec.name not in data:
                continue  # field left to its dataclass default
            value = data[spec.name]
            if spec.name in ("delivered_packets", "dropped_packets",
                             "offered_packets", "erased_attempts",
                             "retransmissions", "lost_packets"):
                kwargs[spec.name] = int(value)
            elif spec.name == "arbitration":
                kwargs[spec.name] = str(value)
            elif spec.name in ("reliability_enabled", "coding_enabled"):
                kwargs[spec.name] = bool(value)
            elif spec.name == "per_node_delivered_before_death":
                kwargs[spec.name] = {str(key): int(item)
                                     for key, item in dict(value).items()}
            elif spec.name in ("per_node_average_power_watts",
                               "per_node_goodput_bps",
                               "per_node_state_of_charge",
                               "per_node_first_death_seconds"):
                kwargs[spec.name] = float_map(value)
            elif spec.name == "energy_events":
                kwargs[spec.name] = tuple(
                    EnergyEvent(
                        kind=str(event["kind"]),
                        node=str(event["node"]),
                        time_seconds=_float(event["time_seconds"]),
                        state_of_charge_fraction=_float(
                            event["state_of_charge_fraction"]),
                    )
                    for event in value)
            else:
                kwargs[spec.name] = _float(value)
        return cls(**kwargs)


class BodyNetworkSimulator:
    """Discrete-event simulation of leaves streaming to one hub.

    Parameters
    ----------
    technology:
        Default link technology (sets the medium rate and, for nodes that
        do not override it, energy/bit and sleep power).
    rng:
        Random generator (or seed) driving stochastic traffic sources.
    per_packet_overhead_seconds:
        MAC guard time per packet on the shared medium.
    arbitration:
        Arbitration policy instance or short name (``"fifo"``, ``"tdma"``,
        ``"polling"``).  Defaults to FIFO, which reproduces the historical
        shared-bus behaviour bit-identically.
    latency_exact_capacity:
        Exact-sample capacity of the latency statistics; beyond it the
        accumulator streams with bounded memory (multi-hour runs).
    energy_update_interval_seconds:
        Spacing of the periodic energy ticks (harvest credit,
        static-power drain, threshold checks).  Only used when a node
        carries a battery or harvester.
    harvest_environment:
        Environment every node's harvester operates in.
    reliability:
        Optional :class:`~repro.netsim.reliability.LinkReliability`
        driving per-packet erasures (and, via its ARQ policy,
        retransmissions) on the shared medium.  ``None`` — the default —
        keeps the exact historical lossless behaviour.
    """

    def __init__(self, technology: CommTechnology,
                 rng: np.random.Generator | int | None = 0,
                 per_packet_overhead_seconds: float = 100e-6,
                 arbitration: ArbitrationPolicy | str | None = None,
                 latency_exact_capacity: int | None = None,
                 energy_update_interval_seconds: float =
                 DEFAULT_ENERGY_UPDATE_INTERVAL_SECONDS,
                 harvest_environment: HarvestingEnvironment =
                 HarvestingEnvironment.INDOOR_OFFICE,
                 reliability: LinkReliability | None = None) -> None:
        if not 0.0 < energy_update_interval_seconds < math.inf:
            raise SimulationError(
                "energy update interval must be positive and finite")
        self.technology = technology
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.rng = rng
        self.queue = EventQueue()
        self.reliability = reliability
        self.bus = Medium(
            link_rate_bps=technology.data_rate_bps(),
            per_packet_overhead_seconds=per_packet_overhead_seconds,
            policy=arbitration,
            latency_exact_capacity=latency_exact_capacity,
            reliability=reliability,
        )
        self.nodes: dict[str, SimulatedNode] = {}
        self.hub_ledger = EnergyLedger()
        self.energy_update_interval_seconds = energy_update_interval_seconds
        self.harvest_environment = harvest_environment
        self.energy_events: list[EnergyEvent] = []
        self._death_records: dict[str, tuple[float, int]] = {}
        #: Per-node controller runtimes, keyed by node name.
        self.controllers: dict[str, ControllerRuntime] = {}
        #: The cadence stream: one ``(time, sequence, runtime)`` entry per
        #: ticking controller, merged by the kernel with its other
        #: streams.  Like queued events, it persists across kernel entries.
        self._cadence_heap: list[tuple[float, int, ControllerRuntime]] = []
        #: Callables ``hook(duration_seconds)`` run by :meth:`run` after
        #: the kernel's ledger write-back and before the static-power
        #: accounting — the only safe point for post-hoc ledger posts
        #: against fast-path nodes (the kernel write-back would clobber
        #: anything posted mid-run).
        self._pre_account_hooks: list[Callable[[float], None]] = []
        #: Set once :meth:`run` returns: the static and hub power it
        #: posts cover the whole run, so a second run would double them.
        self._has_run = False

    def attach(self, config: NodeConfig) -> SimulatedNode:
        """Attach a leaf node described by a :class:`NodeConfig`.

        See :class:`~repro.netsim.config.NodeConfig` for the meaning of
        each field.  Raises :class:`~repro.errors.SimulationError` on a
        duplicate node name or an invalid low-battery stride.
        """
        if config.name in self.nodes:
            raise SimulationError(f"node {config.name!r} already exists")
        if config.low_battery_stride < 1:
            raise SimulationError("low-battery stride must be >= 1")
        node = SimulatedNode(
            name=config.name,
            source=config.source,
            technology=(config.technology if config.technology is not None
                        else self.technology),
            sensing_power_watts=config.sensing_power_watts,
            isa_power_watts=config.isa_power_watts,
            low_battery_stride=config.low_battery_stride,
            coding_power_watts=config.coding_power_watts,
            coding_rate=config.coding_rate,
        )
        if config.battery is not None or config.harvester is not None:
            node.energy = NodeEnergyState.from_spec(
                battery=config.battery,
                harvester=config.harvester,
                environment=self.harvest_environment,
                initial_charge_fraction=config.initial_charge_fraction,
                ledger=node.ledger,
                low_battery_fraction=config.low_battery_fraction,
            )
        self.nodes[config.name] = node
        self.bus.register_node(
            config.name, config.source.average_rate_bps(),
            link_rate_bps=(config.technology.data_rate_bps()
                           if config.technology is not None else None),
        )
        return node

    def attach_controller(self, name: str,
                          controller: Controller | str | None = None,
                          error_rate_fn: Callable[[float], float]
                          | None = None) -> ControllerRuntime:
        """Bind a closed-loop controller to one attached node.

        *controller* may be a live :class:`~repro.control.Controller`,
        a :class:`~repro.control.ControllerSpec`, a bare kind name
        (``"static"``, ``"per_backoff"``, ``"soc_throttle"``) or
        ``None`` for the neutral static policy.  *error_rate_fn* maps a
        tx-power offset (dB) to the node's re-derived per-packet
        erasure probability; without it, tx-power actions settle their
        energy premium but cannot move the link.

        A controller with a cadence arms its first evaluation tick on
        the simulator's cadence stream immediately (the kernel merges it
        deterministically with energy ticks and scenario events); a
        cadence-free controller perturbs nothing until a low-battery
        crossing observes it.  A cadence that is neither ``None`` nor
        positive and finite raises :class:`~repro.errors.SimulationError`
        before anything is registered.
        """
        try:
            node = self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None
        if name in self.controllers:
            raise SimulationError(
                f"node {name!r} already has a controller")
        if not isinstance(controller, Controller):
            # None, a bare kind name, or a ControllerSpec: instantiate.
            controller = make_controller(controller)
        cadence = controller.cadence_seconds
        # NaN-safe: a NaN cadence fails both comparisons.
        if cadence is not None and not 0.0 < cadence < math.inf:
            raise SimulationError(
                f"controller cadence must be None or positive and finite, "
                f"got {cadence!r}")
        runtime = ControllerRuntime(self, node, controller,
                                    error_rate_fn=error_rate_fn)
        node.controller = controller
        self.controllers[name] = runtime
        self._pre_account_hooks.append(runtime.finalize)
        runtime.schedule()
        return runtime

    def set_node_active(self, name: str, active: bool) -> None:
        """Gate a node's traffic generation (duty-cycle / posture events).

        A browned-out node cannot be woken: death is terminal for the
        remainder of the run.
        """
        try:
            node = self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None
        if active and node.energy is not None and not node.energy.alive:
            return
        node.active = active

    def set_node_error_rate(self, name: str, error_rate: float) -> None:
        """Update one node's packet-erasure probability mid-run.

        Scenario posture events call this when the active body channel
        (and with it the link budget) changes.
        """
        if self.reliability is None:
            raise SimulationError(
                "no reliability model attached to this simulator")
        if name not in self.nodes:
            raise SimulationError(f"unknown node {name!r}")
        self.reliability.set_error_rate(name, error_rate)

    def _account_attempt(self, packet: Packet, success: bool) -> None:
        """Energy of one transmission attempt on a lossy medium.

        A successful attempt's frame energy flows through the kernel's
        delivery accounting; here it only pays for its ack (leaf
        receives, hub transmits).  A corrupted attempt pays the full
        wasted frame as leaf transmit under ``wir_retx`` and gets no ack
        (the leaf times out).  The hub's ``wir_rx`` for the frame is
        posted by the kernel's completion step, once per attempt,
        corrupted or delivered.
        """
        node = self.nodes[packet.source]
        now = self.queue.now
        arq = self.reliability.arq if self.reliability is not None else None
        if success:
            if arq is None or arq.ack_bits == 0.0:
                return
            ack_energy = arq.ack_bits * node.technology.rx_energy_per_bit()
            energy = node.energy
            if energy is None:
                node.ledger.post_fast("arq_ack", ack_energy, now)
            elif energy.death_seconds is None:
                energy.drain("arq_ack", ack_energy, now)
                if energy.death_seconds is not None:
                    self._record_death(node)
            self.hub_ledger.post_fast(
                "ack_tx", arq.ack_bits * self.technology.tx_energy_per_bit(),
                now)
            return
        node.retx_bits += packet.bits
        tx_energy = packet.bits * node.technology.tx_energy_per_bit()
        energy = node.energy
        if energy is None:
            node.ledger.post_fast("wir_retx", tx_energy, now)
        elif energy.death_seconds is None:
            energy.drain("wir_retx", tx_energy, now)
            if energy.death_seconds is not None:
                self._record_death(node)

    def _account_loss(self, packet: Packet) -> None:
        """A packet the link gave up on: goodput and airtime bookkeeping.

        The attempt-level energy is already correct (every one of its
        failed serialisations posted ``wir_retx``); here the per-node
        counters reconcile: the frame ``bits_sent`` charged at submit
        never serialised *in addition to* the failed attempts, and the
        payload never became goodput.
        """
        node = self.nodes[packet.source]
        node.retx_bits -= packet.bits
        node.lost_bits += packet.bits

    def _record_death(self, node: SimulatedNode) -> None:
        """Mark a brownout once: stop traffic, freeze the node's counters.

        The dead node's queued packets are purged from the medium — a
        browned-out transmitter cannot serialise its backlog.  At most
        one already-granted transmission may still complete (it was in
        flight when the cell emptied).
        """
        if node.name in self._death_records:
            return
        assert node.energy is not None and node.energy.death_seconds is not None
        self._death_records[node.name] = (node.energy.death_seconds,
                                          node.packets_delivered)
        node.active = False
        self.bus.purge_node(node.name)
        self.energy_events.append(EnergyEvent(
            kind="brownout", node=node.name,
            time_seconds=node.energy.death_seconds,
            state_of_charge_fraction=0.0))

    @staticmethod
    def _settle_record(node: SimulatedNode) -> tuple:
        """Constants :meth:`_settle_energy` reads for one energy node.

        ``(inline, state, battery, ledger, data rate, sleep power,
        leakage, empty threshold, low-battery fraction, harvester)``.
        ``inline`` is true for a stock :class:`NodeEnergyState` whose
        cell (if any) is a stock :class:`~repro.energy.battery.Battery`
        and whose ledger keeps no entries; any other node settles
        through the checked :meth:`NodeEnergyState.advance`.
        """
        state = node.energy
        battery = state.battery
        inline = (type(state) is NodeEnergyState
                  and (battery is None or type(battery) is Battery)
                  and state.ledger.entries is None)
        return (inline, state, battery, state.ledger,
                node.technology.data_rate_bps(),
                node.technology.sleep_power(), state.leakage_power_watts,
                (battery.spec.empty_threshold_joules
                 if battery is not None else 0.0),
                (state.low_battery_fraction
                 if battery is not None else None),
                state.harvester)

    def _settle_energy(self, node: SimulatedNode, now: float,
                       record: tuple | None = None) -> None:
        """Serve an energy node's loads since its last settlement.

        The one settlement routine: energy ticks, :meth:`run`'s final
        settlement and macro-tick leaps all call it.  It serves the
        static loads, then the controller's tx-power premium, records a
        brownout and lets the node's policy observe a low-battery
        crossing.  *record* is the node's :meth:`_settle_record`, which
        the kernel hoists at entry; other callers leave it to be built
        here.  A stock node's interval runs
        :meth:`NodeEnergyState.advance`'s arithmetic inline, adding the
        loads in its order (sensing, isa, wir_sleep, coding).
        """
        if record is None:
            record = self._settle_record(node)
        (inline, state, battery, ledger, data_rate, sleep_power, leakage,
         empty, low, harvester) = record
        elapsed = now - node.energy_settled_seconds
        node.energy_settled_seconds = now
        if elapsed <= 0.0 or state.death_seconds is not None:
            return
        # Transceiver sleep power covers whatever the interval did not
        # spend serialising (corrupted attempts serialise too) — the same
        # split the batteryless path applies to the whole run at once.
        serialised_bits = node.bits_sent + node.retx_bits
        delta_bits = serialised_bits - node.accounted_bits
        node.accounted_bits = serialised_bits
        sleep_time = max(elapsed - delta_bits / data_rate, 0.0)
        sensing = node.sensing_power_watts
        isa = node.isa_power_watts
        sleep = sleep_power * sleep_time / elapsed
        coding = node.coding_power_watts
        load = sensing + isa + sleep
        if coding > 0.0:
            load += coding
        harvest = (harvester.power_watts(state.environment)
                   if harvester is not None else 0.0)
        if inline and 0.0 <= load < math.inf and 0.0 <= harvest < math.inf:
            sustained = elapsed
            if battery is not None:
                # ``Battery.run_fast`` over the load plus leakage.
                net = load + leakage - harvest
                if net <= 0.0:
                    battery.charge(-net * elapsed)
                else:
                    required = net * elapsed
                    soc = battery.state_of_charge_joules
                    if required <= soc:
                        battery.state_of_charge_joules = soc - required
                    else:
                        battery.state_of_charge_joules = 0.0
                        sustained = soc / net
            if harvester is not None:
                state.harvested_joules += harvest * sustained
            stamp = now - elapsed + sustained
            # ``EnergyLedger.post_powers_fast``: one trace bucket, and
            # every total, the grand total and the bucket take the
            # loads' energies in order.
            bucket = int(stamp / ledger.trace_bucket_seconds)
            if bucket >= ledger.trace_buckets:
                bucket = ledger.trace_buckets - 1
            elif bucket < 0:
                bucket = 0
            totals = ledger._totals
            trace = ledger._trace
            energy = sensing * sustained
            totals["sensing"] = totals.get("sensing", 0.0) + energy
            grand = ledger._grand_total + energy
            cell = trace[bucket] + energy
            energy = isa * sustained
            totals["isa"] = totals.get("isa", 0.0) + energy
            grand += energy
            cell += energy
            energy = sleep * sustained
            totals["wir_sleep"] = totals.get("wir_sleep", 0.0) + energy
            grand += energy
            cell += energy
            posts = 3
            if coding > 0.0:
                energy = coding * sustained
                totals["coding"] = totals.get("coding", 0.0) + energy
                grand += energy
                cell += energy
                posts = 4
            ledger._grand_total = grand
            trace[bucket] = cell
            ledger._posted_count += posts
            if (battery is not None
                    and battery.state_of_charge_joules <= empty):
                state.death_seconds = stamp
        else:
            # Loads or harvest that fail the check make ``advance`` raise.
            loads = {"sensing": sensing, "isa": isa, "wir_sleep": sleep}
            if coding > 0.0:
                loads["coding"] = coding
            state.advance(loads, elapsed, now)
        if self.controllers:
            runtime = self.controllers.get(node.name)
            if runtime is not None:
                # The interval's tx-power premium drains the same cell.
                runtime.drain_premium(now)
        if state.death_seconds is not None:
            self._record_death(node)
        elif node.tx_stride == 1 and (
                low is not None and battery.state_of_charge_fraction < low
                if inline else state.is_low_battery()):
            # The threshold crossing is a controller observation: the
            # node's policy (default: the legacy 1-in-stride throttle,
            # bit-identically) decides the throttled stride.
            controller = node.controller
            if controller is None:
                controller = _DEFAULT_SOC_THROTTLE
            action = controller.evaluate(Observation(
                kind="low_battery", time_seconds=now,
                state_of_charge=state.state_of_charge_fraction,
                low_battery=True, tx_stride=node.tx_stride,
                low_battery_stride=node.low_battery_stride))
            if action is not None and action.tx_stride is not None:
                node.tx_stride = action.tx_stride
                if node.tx_stride > 1:
                    self.energy_events.append(EnergyEvent(
                        kind="low_battery", node=node.name, time_seconds=now,
                        state_of_charge_fraction=state.
                        state_of_charge_fraction))

    def _run_kernel(self, end_time: float) -> None:
        """Drain the simulation with the batched five-stream merge loop.

        The kernel merges five event streams by ``(time, sequence)``:

        * **generation** — one heap entry per node holding its next
          packet-generation instant;
        * **transmission chain** — the medium's single in-flight begin or
          completion (the medium serialises, so at most one exists),
          carried in plain locals while the loop runs;
        * **energy tick** — one local ``(time, sequence)`` key, every
          ``energy_update_interval_seconds`` while any node carries a
          battery or harvester, that settles those nodes' static loads;
        * **cadence** — the simulator's heap of ``(time, sequence,
          runtime)`` controller ticks; each evaluates one node's closed
          loop and re-arms one cadence later;
        * **control** — the :class:`EventQueue` proper: posture events
          and anything else callers scheduled directly.

        All five claim sequence numbers from one shared counter, at the
        points where a one-event-per-dispatch schedule (a begin, then a
        completion, per transmission) would claim them, so the merged
        total order — and therefore every RNG draw, float addition and
        statistic — is fixed and pinned by the golden-hex tests.  A
        begin event whose instant nothing else can reach (no generation,
        control or horizon crossing before it) is folded into the grant
        that created it: the begin and completion claim the same counter
        values the two-dispatch schedule would have claimed, so the
        merge order is unchanged while the loop runs one iteration per
        packet instead of two.

        While the loop runs, shared state lives in locals and flat
        per-node tables: the aggregate counters (delivered packets and
        bits, medium busy time), the latency accumulator's buffers (its
        extrema are folded in batch at spill/flush boundaries — min/max
        are order-independent), the sequence counter, the chain, and
        each node's traffic counters and fast-path ledger totals.
        Everything is written back when the loop exits, with every
        addition replayed in the legacy order.  Control-stream events
        observe consistent per-node traffic counters and queue state
        (synced around ``queue.step()``); an energy tick syncs only the
        energy nodes' serialised bits and strides; a cadence tick syncs
        only its own node's serialised bits, its delivered count and the
        slotted backlog, and reloads that node's stride (an evaluation
        reads its node and the arbiter, and acts only through the
        node's stride and erasure rate); aggregate statistics
        and fast-path ledger totals otherwise sync lazily.  The in-flight
        chain event crosses the horizon through ``bus._chain``: taken
        over on entry, handed back on exit.

        The stock objects' per-event methods run inline, under exact
        type checks, so a subclass keeps the method path: the FIFO,
        TDMA and polling grants (admission, the idle-bus grant at
        generation and the re-grant at completion), a stock battery
        node's per-delivery ``NodeEnergyState.drain``, and — through
        :meth:`_settle_energy` with per-node constants hoisted at entry
        — each energy tick's ``NodeEnergyState.advance``.
        """
        queue = self.queue
        bus = self.bus
        policy = bus.policy
        stats = bus.stats
        latency = stats.latency
        reliability = bus.reliability
        arq = reliability.arq if reliability is not None else None
        # ``ARQPolicy.may_retry`` is ``attempts < max_attempts``; without
        # ARQ no attempt count (always >= 1) passes the comparison.
        max_attempts = arq.max_attempts if arq is not None else 0
        if reliability is not None:
            # The erasure draw is read inline from the node's prefetched
            # block (``LinkReliability.draw_erasure`` without the call);
            # the method runs only to create or refill a block.
            error_rates = reliability._error_rates
            default_error_rate = reliability.default_error_rate
            prefetched = reliability._draws
            draw_erasure = reliability.draw_erasure
        rng = self.rng
        nodes = self.nodes
        hub_ledger = self.hub_ledger
        claim = queue.claim_sequence
        max_queue = bus.max_queue_packets
        pending_count = policy.pending_count
        enqueue = policy.enqueue
        next_grant = policy.next_grant
        service_cache = bus._service_cache
        purged = bus._purged_nodes
        inf_ = math.inf

        # The stock arbiters get their admission path inlined (exact type
        # checks — subclasses keep the method-call path).  FIFO admission
        # reads the deque fresh each time because a brownout purge
        # replaces it; the slotted arbiters clear per-node deques in
        # place, so those aliases stay valid for the whole run.
        policy_type = type(policy)
        fifo_fast = policy_type is FIFOArbitration
        slotted_fast = policy_type in (TDMAArbitration, HubPollingArbitration)
        # The grants are inlined too, at both grant sites: the FIFO head
        # pop, the TDMA slot-ring walk and the polling ring walk.  The
        # TDMA ring and its validity flags are re-read per grant, so a
        # mid-run slot-table rebuild falls back to the method safely.
        tdma_fast = policy_type is TDMAArbitration
        polling_fast = policy_type is HubPollingArbitration
        superframe = policy.superframe_seconds if tdma_fast else 0.0
        floor_ = math.floor
        bisect_ = bisect_right
        new_packet = Packet.__new__
        int_ = int
        len_ = len
        max_ = max
        heappop_ = heappop
        heappush_ = heappush
        heapreplace_ = heapreplace

        # Per-node state, flattened into index-addressed tables (the
        # completion step resolves the index from ``packet._node``).  The
        # traffic counters start from the node attributes and replay
        # their additions in the legacy order, so the written-back floats
        # are bit-identical.
        node_list = list(nodes.values())
        n_nodes = len(node_list)
        node_slot = {node_list[i].name: i for i in range(n_nodes)}
        # (period, bits, service, name) for plain periodic sources —
        # their draws consume no randomness and every packet serialises
        # in the same time, so both lookups can be skipped outright.
        periodic: list[tuple[float, float, float, str] | None] = []
        gen_heap: list[tuple[float, int, int]] = []
        node_queues: list = []
        tx_e: list[float] = []
        rx_e: list[float] = []
        # A "fast" node's only mid-run ledger traffic is its own posts
        # (``wir_tx`` deliveries, and on a lossy medium ``wir_retx``
        # frames and ``arq_ack`` receptions), so they can accrue in
        # plain table slots and land on the (still fresh) ledger in one
        # write-back.  ``grand_acc`` replays every post in event order,
        # so the grand total keeps the per-post float associativity.
        fast_flags: list[bool] = []
        wir_acc: list[float] = []
        retx_acc: list[float] = []
        ack_acc: list[float] = []
        grand_acc: list[float] = []
        tx_posts_l: list[int] = []
        retx_posts_l: list[int] = []
        ack_posts_l: list[int] = []
        ack_e_l: list[float] = []
        trace_l: list = []
        trace_w_l: list[float] = []
        trace_last_l: list[int] = []
        gen_counts: list[int] = []
        sent_counts: list[int] = []
        bits_l: list[float] = []
        deliv_counts: list[int] = []
        stride_l: list[int] = []
        # ``(battery, ledger, empty threshold)`` of a stock battery node,
        # whose delivery drain runs ``NodeEnergyState.drain`` inline;
        # ``None`` for every other node.
        drain_l: list[tuple[Battery, EnergyLedger, float] | None] = []
        # Ack energies are fixed products, precomputed once (the same
        # two floats the per-attempt multiplication would produce).
        arq_ack_bits = arq.ack_bits if arq is not None else 0.0
        ack_posting = reliability is not None and arq_ack_bits != 0.0
        hub_ack_e = (arq_ack_bits * self.technology.tx_energy_per_bit()
                     if ack_posting else 0.0)
        for index, node in enumerate(node_list):
            source = node.source
            tx_e.append(node.technology.tx_energy_per_bit())
            rx_val = node.technology.rx_energy_per_bit()
            rx_e.append(rx_val)
            ack_e_l.append(arq_ack_bits * rx_val)
            ledger = node.ledger
            fast_flags.append(node.energy is None
                              and ledger.entries is None
                              and ledger._posted_count == 0)
            wir_acc.append(0.0)
            retx_acc.append(0.0)
            ack_acc.append(0.0)
            grand_acc.append(0.0)
            tx_posts_l.append(0)
            retx_posts_l.append(0)
            ack_posts_l.append(0)
            trace_l.append(ledger._trace)
            trace_w_l.append(ledger.trace_bucket_seconds)
            trace_last_l.append(ledger.trace_buckets - 1)
            gen_counts.append(node.generated_count)
            sent_counts.append(node.packets_sent)
            bits_l.append(node.bits_sent)
            deliv_counts.append(node.packets_delivered)
            stride_l.append(node.tx_stride)
            state = node.energy
            battery = state.battery if state is not None else None
            drain_l.append(
                (battery, state.ledger, battery.spec.empty_threshold_joules)
                if type(state) is NodeEnergyState
                and type(battery) is Battery else None)
            if type(source) is PeriodicSource:
                bits = source.bits_per_packet
                probe = Packet(node.name, "hub", bits, 0.0)
                periodic.append((source.period_seconds, bits,
                                 bus.service_time_seconds(probe),
                                 node.name))
            else:
                periodic.append(None)
            node_queues.append(policy._queues.get(node.name)
                               if slotted_fast else None)
            next_time = queue._now + source.next_interarrival_seconds(rng)
            if next_time <= end_time:
                gen_heap.append((next_time, claim(), index))
        heapify(gen_heap)
        if slotted_fast and any(entry is None for entry in node_queues):
            slotted_fast = False
        # The slotted arbiters' backlog counter and the TDMA slot ring
        # are hoisted into locals; every call that can mutate them (a
        # method grant, a purge, a control event) is bracketed by a sync
        # and re-hoist.  The ring is built up front so the first grant
        # already takes the inline path (a missing link rate surfaces
        # identically on that first grant instead).
        slot_pending = policy._pending if slotted_fast else 0
        ring = None
        ring_starts = None
        ring_ok = False
        # Per-index (offset, width) windows back the idle-bus grant
        # shortcut; ``win_src`` tracks the dict they were read from, so
        # a slot-table rebuild (always a fresh dict) is detected by
        # identity instead of rebuilding the table on every re-hoist.
        win_l: list[tuple[float, float] | None] = [None] * n_nodes
        win_src = None
        # The polling ring's queues in ring order, each kernel node's
        # position in it, and the per-poll cost.  The walk is inline once
        # the cost is known (the first method grant computes it), and the
        # ring only ever grows by appending, so its length tells whether
        # a control event registered a node.
        poll_queues: list = []
        poll_pos = [0] * n_nodes
        poll_size = 0
        poll_cost = 0.0
        poll_ok = False

        def _rehoist_rings() -> None:
            nonlocal ring, ring_starts, ring_ok, win_src, poll_size, \
                poll_cost, poll_ok
            if polling_fast:
                poll_ok = slotted_fast and policy._poll_cost is not None
                if poll_ok:
                    poll_cost = policy._poll_cost
                    names = policy._ring
                    if len(names) != poll_size:
                        poll_size = len(names)
                        poll_queues[:] = [policy._queues[name]
                                          for name in names]
                        position = {name: k for k, name in enumerate(names)}
                        for i in range(n_nodes):
                            poll_pos[i] = position[node_list[i].name]
                return
            ring_ok = (slotted_fast and tdma_fast
                       and policy._windows is not None and policy._ring_fast)
            if ring_ok:
                ring = policy._ring
                ring_starts = policy._ring_starts
                if policy._windows is not win_src:
                    win_src = policy._windows
                    for i in range(n_nodes):
                        win_l[i] = win_src.get(node_list[i].name)

        if tdma_fast and slotted_fast:
            try:
                policy._slot_table()
            except SimulationError:
                pass
        _rehoist_rings()
        # The energy tick claims its first sequence number here, after
        # the generation heap, and each later one after its settles.  It
        # is anchored one interval past the *current* clock, not at the
        # absolute ``interval``: the hybrid driver re-enters the kernel at
        # arbitrary times, where an absolute first tick would be in the
        # past.  At a cold start ``now`` is 0.0 and ``0.0 + interval ==
        # interval`` exactly.
        sentinel = (inf_, inf_)
        energy_rows = []
        for i in range(n_nodes):
            if node_list[i].energy is not None:
                energy_rows.append(
                    (i, node_list[i], self._settle_record(node_list[i])))
        tick_interval = self.energy_update_interval_seconds
        tick_key = sentinel
        if energy_rows and queue._now + tick_interval <= end_time:
            tick_key = (queue._now + tick_interval, claim())
        settle = self._settle_energy

        # On a lossy medium the attempt accounting posts ack
        # transmissions to the hub too; the hub can only go fast if every
        # node does, otherwise a method-path attempt would interleave hub
        # posts with the accumulated ones.
        hub_fast = (hub_ledger.entries is None
                    and hub_ledger._posted_count == 0
                    and (reliability is None or all(fast_flags)))
        hub_rx_acc = 0.0
        hub_ack_acc = 0.0
        hub_grand = 0.0
        hub_posts = 0
        hub_ack_posts = 0
        hub_trace = hub_ledger._trace
        hub_w = hub_ledger.trace_bucket_seconds
        hub_last = hub_ledger.trace_buckets - 1
        # Completion times are nondecreasing, so the hub's trace bucket
        # only ever moves forward: cache it and recompute (once per
        # completion) only when the time crosses the cached bucket's
        # upper edge.
        hub_bucket = 0
        hub_limit = 0.0

        delivered_cnt = stats.delivered_packets
        delivered_bits_sum = stats.delivered_bits
        busy_s = stats.busy_seconds
        cnt = latency.count
        lat_min = latency._min
        lat_max = latency._max
        lat_list = latency._samples
        lat_pending = latency._pending
        lat_cap = latency.exact_capacity
        lat_flush = PENDING_FLUSH_THRESHOLD
        # Samples already in the window are covered by the hoisted
        # ``lat_min``/``lat_max`` (every add path maintains them), so
        # min/max syncs only need to scan entries appended since the
        # last sync — an index, not a copy.
        lat_scan = len(lat_list) if lat_list is not None else 0

        # The in-flight transmission, as loop locals; a previous run may
        # hand a chain over across the horizon.
        chain_key = sentinel
        chain_kind = 0
        chain_packet = None
        chain_service = 0.0
        handoff = bus._chain
        if handoff is not None:
            bus._chain = None
            chain_key = (handoff[0], handoff[1])
            chain_kind = handoff[2]
            chain_packet = handoff[3]
            chain_service = handoff[4]
        queue_key = queue.peek_key() or sentinel
        cadence_heap = self._cadence_heap
        cad_key = cadence_heap[0] if cadence_heap else sentinel
        ctrl_key = tick_key if tick_key < queue_key else queue_key
        if cad_key < ctrl_key:
            ctrl_key = cad_key
        # Hoisted after the setup claims above — every in-loop claim is
        # an inline increment, written back around control events.
        seq = queue._seq

        def _publish_nodes() -> None:
            for i in range(n_nodes):
                nd = node_list[i]
                nd.generated_count = gen_counts[i]
                nd.packets_sent = sent_counts[i]
                nd.bits_sent = bits_l[i]
                if fast_flags[i]:
                    nd.packets_delivered = deliv_counts[i]

        def _reload_nodes() -> None:
            for i in range(n_nodes):
                nd = node_list[i]
                gen_counts[i] = nd.generated_count
                sent_counts[i] = nd.packets_sent
                bits_l[i] = nd.bits_sent
                stride_l[i] = nd.tx_stride
                if fast_flags[i]:
                    deliv_counts[i] = nd.packets_delivered

        # Empty streams are represented by the (inf, inf) sentinel rather
        # than None so head selection is two plain comparisons.  The
        # sentinel never wins while an event remains at or before
        # ``end_time``, and once every stream is the sentinel the loop
        # exits on the time bound before any identity check runs.
        while True:
            # Generations below the chain/control barrier dispatch in a
            # tight inner loop: nothing a generation does can move the
            # control stream, and a grant — the only way it arms the
            # chain — recomputes the barrier in place.  Sequence numbers
            # are globally unique, so tuple comparison never reaches the
            # streams' differing trailing elements, and a generation
            # wins the three-way merge exactly when it sorts below the
            # minimum of the other two heads.  Generation times never
            # exceed the horizon (scheduling is gated), so the drain
            # needs no horizon check.
            barrier = chain_key if chain_key < ctrl_key else ctrl_key
            while gen_heap:
                head = gen_heap[0]
                if head >= barrier:
                    break
                t = head[0]
                heappop_(gen_heap)
                index = head[2]
                node = node_list[index]
                fast = periodic[index]
                packet = None
                if node.active:
                    opportunity = gen_counts[index]
                    gen_counts[index] = opportunity + 1
                    if opportunity % stride_l[index] == 0:
                        if fast is not None:
                            # Periodic fast path: build the packet by
                            # direct slot assignment — ``__init__``'s
                            # guards are vacuous here (bits and t are
                            # validated / non-negative by construction).
                            bits = fast[1]
                            packet = new_packet(Packet)
                            packet.source = fast[3]
                            packet.destination = "hub"
                            packet.bits = bits
                            packet.created_at = t
                            packet.delivered_at = None
                            packet.queued_at = None
                            packet.attempts = 0
                            packet._metadata = None
                            packet._service = fast[2]
                            packet._node = index
                        else:
                            bits = node.source.packet_bits(rng)
                            packet = Packet(node.name, "hub", bits, t)
                            packet._node = index
                # The interarrival draw moves ahead of admission relative
                # to the legacy callback, but no other draw sits between
                # them, so the rng stream is consumed identically; the
                # grant below needs the next generation instant for its
                # begin-fusion check.
                next_time = t + (fast[0] if fast is not None
                                 else node.source.next_interarrival_seconds(
                                     rng))
                fused = False
                if packet is not None:
                    if fifo_fast:
                        fifo_queue = policy._pending
                        if len_(fifo_queue) < max_queue:
                            fifo_queue.append(packet)
                            accepted = True
                        else:
                            accepted = False
                    elif slotted_fast:
                        if slot_pending < max_queue:
                            node_queues[index].append(packet)
                            slot_pending += 1
                            accepted = True
                        else:
                            accepted = False
                    elif pending_count() < max_queue:
                        enqueue(packet)
                        accepted = True
                    else:
                        accepted = False
                    if accepted:
                        if not bus._busy:
                            bus._busy = True
                            if (ring_ok and slot_pending == 1
                                    and win_l[index] is not None):
                                # The bus was idle, so nothing else is
                                # backlogged: the packet just queued is
                                # the only one the slot-ring walk could
                                # grant.  Grant it directly from its own
                                # window (the access arithmetic mirrors
                                # the ring walk's expressions exactly).
                                node_queues[index].popleft()
                                slot_pending = 0
                                offset, width = win_l[index]
                                frame_start = (floor_(t / superframe)
                                               * superframe)
                                start = frame_start + offset
                                if t < start + width:
                                    access = t if t > start else start
                                else:
                                    start = (frame_start + superframe
                                             + offset)
                                    if t < start + width:
                                        access = t if t > start else start
                                    else:
                                        access = (frame_start
                                                  + 2.0 * superframe
                                                  + offset)
                                grant = (packet, access - t)
                            elif fifo_fast and len_(fifo_queue) == 1:
                                # The packet just queued is alone: the FIFO
                                # grant pops it with no access delay.
                                fifo_queue.popleft()
                                grant = (packet, 0.0)
                            elif poll_ok and slot_pending == 1:
                                # Alone on the polling ring: the walk from
                                # the cursor skips every leaf before it.
                                node_queues[index].popleft()
                                slot_pending = 0
                                cursor = policy._cursor
                                skipped = (poll_pos[index] - cursor) \
                                    % poll_size
                                policy._cursor = ((cursor + skipped + 1)
                                                  % poll_size)
                                grant = (packet, (skipped + 1) * poll_cost)
                            else:
                                if slotted_fast:
                                    policy._pending = slot_pending
                                grant = next_grant(t)
                                if slotted_fast:
                                    slot_pending = policy._pending
                                    _rehoist_rings()
                            if grant is None:
                                bus._busy = False
                            else:
                                packet2, access_delay = grant
                                service = packet2._service
                                if service is None:
                                    service = service_cache.get(
                                        (packet2.source, packet2.bits))
                                    if service is None:
                                        service = \
                                            bus.service_time_seconds(packet2)
                                busy_s += service
                                chain_packet = packet2
                                chain_service = service
                                if access_delay == 0.0:
                                    packet2.queued_at = t
                                    chain_key = (t + service, seq)
                                    chain_kind = 1
                                    seq += 1
                                else:
                                    begin_t = t + access_delay
                                    # Begin fusion, with one extra claim
                                    # to account for: this node's own
                                    # reschedule (pushed below) claims
                                    # before the begin would dispatch.
                                    if (begin_t <= end_time
                                            and ctrl_key[0] > begin_t
                                            and (gen_heap[0][0] if gen_heap
                                                 else inf_) > begin_t
                                            and (next_time > begin_t
                                                 or next_time > end_time)):
                                        packet2.queued_at = begin_t
                                        chain_key = (
                                            begin_t + service,
                                            seq + (2 if next_time <= end_time
                                                   else 1))
                                        chain_kind = 1
                                        seq += 1
                                        fused = True
                                    else:
                                        chain_key = (begin_t, seq)
                                        chain_kind = 0
                                        seq += 1
                                barrier = (chain_key
                                           if chain_key < ctrl_key
                                           else ctrl_key)
                        sent_counts[index] += 1
                        bits_l[index] += bits
                    else:
                        stats.dropped_packets += 1
                if next_time <= end_time:
                    heappush_(gen_heap, (next_time, seq, index))
                    seq += 1
                if fused:
                    seq += 1  # the fused completion's claim
            t = barrier[0]
            if t > end_time:
                break
            if barrier is chain_key:
                chain_key = sentinel
                if chain_kind:
                    # Transmission completes.  Every packet on the medium
                    # was built by this kernel, which set its ``_node``.
                    packet = chain_packet
                    idx = packet._node
                    bits = packet.bits
                    if hub_fast:
                        # One bucket serves every hub post at ``t``.
                        q = t / hub_w
                        if q >= hub_limit:
                            hub_bucket = int_(q)
                            if hub_bucket >= hub_last:
                                hub_bucket = hub_last
                                hub_limit = inf_
                            else:
                                hub_limit = hub_bucket + 1.0
                    erased = False
                    if reliability is not None:
                        packet.attempts += 1
                        source_name = packet.source
                        rate = error_rates.get(source_name,
                                               default_error_rate)
                        if rate >= 1.0:
                            erased = True
                        elif rate > 0.0:
                            block = prefetched.get(source_name)
                            if block is not None \
                                    and block[0] < len_(block[1]):
                                position = block[0]
                                block[0] = position + 1
                                erased = block[1][position] < rate
                            else:
                                erased = draw_erasure(source_name)
                        if erased:
                            stats.erased_attempts += 1
                            node_list[idx].erased_attempts += 1
                            if fast_flags[idx]:
                                # Inline failed-attempt accounting
                                # (mirrors ``_account_attempt``): a
                                # batteryless node has no drain/brownout
                                # branch, so the wasted frame is one
                                # accumulated post, like a delivery's.
                                node_list[idx].retx_bits += bits
                                value = bits * tx_e[idx]
                                retx_acc[idx] += value
                                grand_acc[idx] += value
                                retx_posts_l[idx] += 1
                                bucket = int_(t / trace_w_l[idx])
                                last = trace_last_l[idx]
                                trace_l[idx][bucket if bucket < last
                                             else last] += value
                            else:
                                queue._now = t  # the accounting reads it
                                if slotted_fast:  # the drain may purge
                                    policy._pending = slot_pending
                                self._account_attempt(packet, False)
                                if slotted_fast:
                                    slot_pending = policy._pending
                            if (packet.attempts < max_attempts
                                    and source_name not in purged):
                                stats.retransmissions += 1
                                if slotted_fast:
                                    # The source is a known node, so
                                    # ``enqueue`` reduces to an append
                                    # and a pending bump.
                                    node_queues[idx].append(packet)
                                    slot_pending += 1
                                else:
                                    enqueue(packet)
                            else:
                                stats.lost_packets += 1
                                self._account_loss(packet)
                        elif fast_flags[idx]:
                            if ack_posting:
                                # Inline successful-attempt accounting:
                                # the frame energy flows through the
                                # delivery accounting below; only the
                                # ack pair posts here.
                                value = ack_e_l[idx]
                                ack_acc[idx] += value
                                grand_acc[idx] += value
                                ack_posts_l[idx] += 1
                                bucket = int_(t / trace_w_l[idx])
                                last = trace_last_l[idx]
                                trace_l[idx][bucket if bucket < last
                                             else last] += value
                                if hub_fast:
                                    hub_ack_acc += hub_ack_e
                                    hub_grand += hub_ack_e
                                    hub_posts += 1
                                    hub_ack_posts += 1
                                    hub_trace[hub_bucket] += hub_ack_e
                                else:
                                    hub_ledger.post_fast("ack_tx",
                                                         hub_ack_e, t)
                        else:
                            queue._now = t  # the accounting reads it
                            if slotted_fast:  # the ack drain may purge
                                policy._pending = slot_pending
                            self._account_attempt(packet, True)
                            if slotted_fast:
                                slot_pending = policy._pending
                    if not erased:
                        packet.delivered_at = t
                        delivered_cnt += 1
                        delivered_bits_sum += bits
                        cnt += 1
                        value = t - packet.created_at
                        if lat_list is not None:
                            lat_list.append(value)
                            if len_(lat_list) > lat_cap:
                                # The spill drops the window; fold its
                                # extrema (min/max are order-independent)
                                # first.
                                low = min(lat_list)
                                if low < lat_min:
                                    lat_min = low
                                high = max(lat_list)
                                if high > lat_max:
                                    lat_max = high
                                latency._spill()
                                lat_list = None
                        else:
                            lat_pending.append(value)
                            if len_(lat_pending) >= lat_flush:
                                # The flush clears the buffer; fold its
                                # extrema before they are gone.
                                low = min(lat_pending)
                                if low < lat_min:
                                    lat_min = low
                                high = max(lat_pending)
                                if high > lat_max:
                                    lat_max = high
                                latency._flush_pending()
                        tx_energy = bits * tx_e[idx]
                        if fast_flags[idx]:
                            wir_acc[idx] += tx_energy
                            grand_acc[idx] += tx_energy
                            tx_posts_l[idx] += 1
                            bucket = int_(t / trace_w_l[idx])
                            last = trace_last_l[idx]
                            trace_l[idx][bucket if bucket < last else last] \
                                += tx_energy
                            deliv_counts[idx] += 1
                        else:
                            node = node_list[idx]
                            state = node.energy
                            if state is None:
                                node.ledger.post_fast("wir_tx", tx_energy, t)
                                node.packets_delivered += 1
                            elif state.death_seconds is None:
                                node.packets_delivered += 1
                                cell = drain_l[idx]
                                if cell is not None \
                                        and 0.0 <= tx_energy < inf_:
                                    # ``NodeEnergyState.drain`` inline: clip
                                    # at the charge, post what the cell
                                    # delivered, die at the empty threshold.
                                    # Bad energy takes the checked method,
                                    # which raises.
                                    battery = cell[0]
                                    soc = battery.state_of_charge_joules
                                    if tx_energy <= soc:
                                        soc -= tx_energy
                                        delivered = tx_energy
                                    else:
                                        delivered = soc
                                        soc = 0.0
                                    battery.state_of_charge_joules = soc
                                    if delivered > 0.0:
                                        cell[1].post_fast("wir_tx", delivered,
                                                          t)
                                    if soc <= cell[2]:
                                        state.death_seconds = t
                                else:
                                    state.drain("wir_tx", tx_energy, t)
                                if state.death_seconds is not None:
                                    if slotted_fast:  # the death purges
                                        policy._pending = slot_pending
                                    self._record_death(node)
                                    if slotted_fast:
                                        slot_pending = policy._pending
                    # The hub listened to the frame for its full length,
                    # erased or not.
                    value = bits * rx_e[idx]
                    if hub_fast:
                        hub_rx_acc += value
                        hub_grand += value
                        hub_posts += 1
                        hub_trace[hub_bucket] += value
                    else:
                        hub_ledger.post_fast("wir_rx", value, t)
                    # Grant the next transmission.  The stock grants are
                    # replicated inline (same expressions, same association
                    # order as their ``next_grant``); anything else —
                    # including a TDMA whose slot table was invalidated or
                    # failed the disjoint-windows check, and a polling
                    # ring whose poll cost is not yet known — takes the
                    # method call.
                    packet2 = None
                    if ring_ok:
                        if slot_pending == 0:
                            bus._busy = False
                        else:
                            frame_start = floor_(t / superframe) * superframe
                            anchor = bisect_(ring_starts,
                                             t - frame_start) - 1
                            if anchor >= 0:
                                offset, width, nq = ring[anchor]
                                if nq and t < frame_start + offset + width:
                                    slot_pending -= 1
                                    packet2 = nq.popleft()
                                    access_delay = \
                                        max_(t, frame_start + offset) - t
                            if packet2 is None:
                                count = len_(ring)
                                for step in range(1, count + 1):
                                    offset, width, nq = \
                                        ring[(anchor + step) % count]
                                    if nq:
                                        start = frame_start + offset
                                        if t < start + width:
                                            access = t if t > start else start
                                        else:
                                            start = (frame_start + superframe
                                                     + offset)
                                            if t < start + width:
                                                access = (t if t > start
                                                          else start)
                                            else:
                                                access = (frame_start
                                                          + 2.0 * superframe
                                                          + offset)
                                        slot_pending -= 1
                                        packet2 = nq.popleft()
                                        access_delay = access - t
                                        break
                                else:
                                    raise SimulationError(
                                        "pending count out of sync "
                                        "with queues")
                    elif fifo_fast:
                        fifo_queue = policy._pending
                        if fifo_queue:
                            packet2 = fifo_queue.popleft()
                            access_delay = 0.0
                        else:
                            bus._busy = False
                    elif poll_ok:
                        if slot_pending == 0:
                            bus._busy = False
                        else:
                            cursor = policy._cursor
                            for skipped in range(poll_size):
                                nq = poll_queues[(cursor + skipped)
                                                 % poll_size]
                                if nq:
                                    policy._cursor = ((cursor + skipped + 1)
                                                      % poll_size)
                                    slot_pending -= 1
                                    packet2 = nq.popleft()
                                    access_delay = (skipped + 1) * poll_cost
                                    break
                            else:
                                raise SimulationError(
                                    "pending count out of sync with queues")
                    else:
                        if slotted_fast:
                            policy._pending = slot_pending
                        grant = next_grant(t)
                        if slotted_fast:
                            slot_pending = policy._pending
                            _rehoist_rings()
                        if grant is None:
                            bus._busy = False
                        else:
                            packet2, access_delay = grant
                    if packet2 is not None:
                        service = packet2._service
                        if service is None:
                            service = service_cache.get(
                                (packet2.source, packet2.bits))
                            if service is None:
                                service = bus.service_time_seconds(packet2)
                        busy_s += service
                        chain_packet = packet2
                        chain_service = service
                        if access_delay == 0.0:
                            packet2.queued_at = t
                            chain_key = (t + service, seq)
                            chain_kind = 1
                            seq += 1
                        else:
                            begin_t = t + access_delay
                            # Begin fusion: if no generation or control
                            # event can dispatch at or before the begin
                            # instant (and the horizon does not cross
                            # it), nothing can claim a sequence between
                            # the grant and the begin dispatch — the
                            # begin claims now and the completion claims
                            # the very next number, exactly the values
                            # the two-dispatch schedule yields.
                            if (begin_t <= end_time
                                    and ctrl_key[0] > begin_t
                                    and (gen_heap[0][0] if gen_heap
                                         else inf_) > begin_t):
                                packet2.queued_at = begin_t
                                chain_key = (begin_t + service, seq + 1)
                                chain_kind = 1
                                seq += 2
                            else:
                                chain_key = (begin_t, seq)
                                chain_kind = 0
                                seq += 1
                else:
                    # Transmission begins: re-arm as its own completion.
                    chain_packet.queued_at = t
                    chain_key = (t + chain_service, seq)
                    chain_kind = 1
                    seq += 1
            elif ctrl_key is tick_key:
                # Energy tick: settle every energy node at ``t``.  A
                # settle reads only the node's serialised bits and may
                # re-stride or kill the node, so only those sync; a
                # brownout purges the node's backlog from the arbiter.
                queue._now = t  # the clock a queue dispatch would set
                if slotted_fast:
                    policy._pending = slot_pending
                purges = len_(purged)
                for i, nd, record in energy_rows:
                    nd.bits_sent = bits_l[i]
                    settle(nd, t, record)
                    stride_l[i] = nd.tx_stride
                if len_(purged) != purges:
                    if slotted_fast:
                        slot_pending = policy._pending
                    _rehoist_rings()
                t += tick_interval
                if t <= end_time:
                    tick_key = (t, seq)
                    seq += 1
                else:
                    tick_key = sentinel
                ctrl_key = tick_key if tick_key < queue_key else queue_key
                if cad_key < ctrl_key:
                    ctrl_key = cad_key
            elif ctrl_key is cad_key:
                # Cadence tick: one controller evaluates its node at
                # ``t`` and re-arms one cadence later, claiming after the
                # evaluation as a queued callback would.
                runtime = cad_key[2]
                queue._now = t  # the clock a queue dispatch would set
                i = node_slot[runtime.node.name]
                nd = node_list[i]
                nd.bits_sent = bits_l[i]
                if fast_flags[i]:
                    nd.packets_delivered = deliv_counts[i]
                if slotted_fast:
                    policy._pending = slot_pending
                runtime.evaluate_cadence(t)
                stride_l[i] = nd.tx_stride
                heapreplace_(cadence_heap,
                             (t + runtime.cadence_seconds, seq, runtime))
                seq += 1
                cad_key = cadence_heap[0]
                ctrl_key = tick_key if tick_key < queue_key else queue_key
                if cad_key < ctrl_key:
                    ctrl_key = cad_key
            else:
                # Control callbacks (posture events, a controller attached
                # mid-run) see consistent per-node traffic counters and
                # may schedule or claim; sync the counters around the
                # dispatch.
                queue._seq = seq
                if slotted_fast:
                    policy._pending = slot_pending
                _publish_nodes()
                queue.step()
                seq = queue._seq
                if slotted_fast:
                    slot_pending = policy._pending
                _rehoist_rings()
                _reload_nodes()
                queue_key = queue.peek_key() or sentinel
                cad_key = cadence_heap[0] if cadence_heap else sentinel
                ctrl_key = tick_key if tick_key < queue_key else queue_key
                if cad_key < ctrl_key:
                    ctrl_key = cad_key

        stats.delivered_packets = delivered_cnt
        stats.delivered_bits = delivered_bits_sum
        stats.busy_seconds = busy_s
        latency.count = cnt
        if lat_list is not None:
            buffered = lat_list[lat_scan:] if lat_scan else lat_list
        else:
            buffered = lat_pending
        if buffered:
            low = min(buffered)
            if low < lat_min:
                lat_min = low
            high = max(buffered)
            if high > lat_max:
                lat_max = high
        latency._min = lat_min
        latency._max = lat_max
        # Fast-path ledgers were fresh at loop entry, so the write-back
        # totals equal the posts replayed from zero in arrival order —
        # the same floats the per-post path would have produced.
        _publish_nodes()
        for i in range(n_nodes):
            if fast_flags[i]:
                posts = tx_posts_l[i] + retx_posts_l[i] + ack_posts_l[i]
                if posts:
                    ledger = node_list[i].ledger
                    if tx_posts_l[i]:
                        ledger._totals["wir_tx"] = wir_acc[i]
                    if retx_posts_l[i]:
                        ledger._totals["wir_retx"] = retx_acc[i]
                    if ack_posts_l[i]:
                        ledger._totals["arq_ack"] = ack_acc[i]
                    ledger._grand_total = grand_acc[i]
                    ledger._posted_count = posts
        if hub_fast and hub_posts:
            if hub_posts - hub_ack_posts:
                hub_ledger._totals["wir_rx"] = hub_rx_acc
            if hub_ack_posts:
                hub_ledger._totals["ack_tx"] = hub_ack_acc
            hub_ledger._grand_total = hub_grand
            hub_ledger._posted_count = hub_posts
        if slotted_fast:
            policy._pending = slot_pending
        bus._chain = (None if chain_key is sentinel else
                      (chain_key[0], chain_key[1], chain_kind, chain_packet,
                       chain_service))
        queue._seq = seq
        queue._now = end_time

    def _run_hybrid(self, end_time: float) -> None:
        """Alternate exact kernel chunks with closed-form macro-tick leaps.

        Builds a :class:`~repro.netsim.macrotick.MacroTickEngine` and, at
        every point where the bus is quiescent, asks it to leap toward
        the next control event (the earlier of ``EventQueue.peek_time``
        and the next controller cadence tick) or the run end, whichever
        is nearer.  When the engine refuses — transient queue
        state, non-stationary PER, a battery approaching a threshold —
        the exact kernel runs a short settle chunk and the detector tries
        again.  A statically ineligible workload (Poisson sources, a
        custom arbiter, a queue bound below the node count, a controller
        whose cadence is shorter than ``min_leap_seconds``) degenerates
        to a single exact kernel call, which is bit-identical to
        ``fast_path`` off.
        """
        from .macrotick import MacroTickEngine

        engine = MacroTickEngine(self)
        queue = self.queue
        cadence_heap = self._cadence_heap
        if not engine.eligible:
            self._run_kernel(end_time)
            return
        while queue._now < end_time:
            now = queue._now
            if end_time - now < engine.min_leap_seconds:
                # No leap fits in what remains; one exact call to the
                # end (bit-identical to the pure kernel from here on).
                self._run_kernel(end_time)
                break
            ctrl = queue.peek_time()
            if cadence_heap and (ctrl is None or cadence_heap[0][0] < ctrl):
                ctrl = cadence_heap[0][0]
            horizon = end_time if ctrl is None or ctrl > end_time else ctrl
            if horizon - now >= engine.min_leap_seconds:
                leap_end = engine.try_leap(now, horizon)
                if leap_end is not None:
                    # Same direct clock advance the kernel performs at
                    # exit; all per-node state was re-synced in the leap.
                    queue._now = leap_end
                    continue
                if engine.exact_until is not None:
                    # Battery endgame: one exact chunk straight through
                    # the projected threshold crossing, after which the
                    # node is dead (or re-strided) and leaps resume.
                    self._run_kernel(
                        min(end_time, max(engine.exact_until,
                                          now + engine.settle_seconds)))
                    continue
                # A refusal caused only by an in-flight transfer left
                # over from the previous chunk needs just a short
                # flush, not a full settle chunk.
                chunk = (engine.flush_seconds if engine.transient_blocked()
                         else engine.settle_seconds)
                self._run_kernel(min(end_time, now + chunk))
                continue
            # The next control event is too close for a leap: run the
            # exact kernel straight through it and re-evaluate beyond.
            self._run_kernel(
                min(end_time, max(horizon, now + engine.settle_seconds)))

    def run(self, duration_seconds: float,
            fast_path: str | None = None) -> SimulationResult:
        """Run the network for *duration_seconds* of simulated time.

        Parameters
        ----------
        duration_seconds:
            Simulated time to cover.
        fast_path:
            ``None`` or ``"exact"`` replay every event through the
            batched kernel (bit-identical, the default).  ``"hybrid"``
            lets the macro-tick engine leap over steady-state segments
            in closed form — results then agree with the exact kernel
            only within the analytic envelope (see
            :mod:`repro.netsim.macrotick`), not bit-for-bit.
        """
        if self._has_run:
            raise SimulationError(
                "simulator has already run; build a new one to run again")
        if duration_seconds <= 0 or not np.isfinite(duration_seconds):
            raise SimulationError("duration must be positive and finite")
        if not self.nodes:
            raise SimulationError("no nodes attached to the simulator")
        if fast_path not in (None, "exact", "hybrid"):
            raise SimulationError(
                f"unknown fast_path {fast_path!r}; "
                "expected None, 'exact' or 'hybrid'")

        if fast_path == "hybrid":
            self._run_hybrid(duration_seconds)
        else:
            self._run_kernel(duration_seconds)

        # Post-kernel, pre-accounting: controller premiums and other
        # deferred ledger posts land here, after the kernel's fast-path
        # write-back and before the averages read the totals.
        for hook in self._pre_account_hooks:
            hook(duration_seconds)

        per_node_power: dict[str, float] = {}
        per_node_goodput: dict[str, float] = {}
        state_of_charge: dict[str, float] = {}
        harvested = 0.0
        for name, node in self.nodes.items():
            if node.energy is None:
                # Static sensing / ISA power accrues for the whole run.
                node.ledger.post_power("sensing", node.sensing_power_watts,
                                       duration_seconds)
                node.ledger.post_power("isa", node.isa_power_watts,
                                       duration_seconds)
                if node.coding_power_watts > 0.0:
                    # Source-coder draw; gated so uncoded nodes post the
                    # exact same ledger sequence as before coding existed.
                    node.ledger.post_power("coding",
                                           node.coding_power_watts,
                                           duration_seconds)
                # Sleep power of the transceiver when not transmitting.
                tx_time = (node.bits_sent + node.retx_bits) \
                    / node.technology.data_rate_bps()
                sleep_time = max(duration_seconds - tx_time, 0.0)
                node.ledger.post_power("wir_sleep",
                                       node.technology.sleep_power(),
                                       sleep_time)
            else:
                # Settle the residual interval since the last energy tick.
                self._settle_energy(node, duration_seconds)
                harvested += node.energy.harvested_joules
                if node.energy.battery is not None:
                    state_of_charge[name] = \
                        node.energy.state_of_charge_fraction
            per_node_power[name] = node.ledger.average_power(duration_seconds)
            # Accepted minus lost: bits the link actually carried to the
            # hub (plus at most the final in-flight frame, as before).
            per_node_goodput[name] = \
                (node.bits_sent - node.lost_bits) / duration_seconds

        stats = self.bus.stats
        # The hub receiver is awake while the medium carries traffic and
        # sleeps otherwise; without this the hub ledger undercounts every
        # idle second of a duty-cycled day.
        rx_busy = min(stats.busy_seconds, duration_seconds)
        self.hub_ledger.post_power("wir_sleep", self.technology.sleep_power(),
                                   max(duration_seconds - rx_busy, 0.0),
                                   timestamp_seconds=duration_seconds)
        if stats.latency.count:
            mean_latency, p99_latency = \
                stats.latency.mean_and_percentile(99.0)
        else:
            mean_latency = 0.0
            p99_latency = 0.0
        coding_enabled = any(
            node.coding_power_watts > 0.0 or node.coding_rate != 1.0
            for node in self.nodes.values())
        self._has_run = True
        return SimulationResult(
            duration_seconds=duration_seconds,
            delivered_packets=stats.delivered_packets,
            dropped_packets=stats.dropped_packets,
            delivered_bits=stats.delivered_bits,
            mean_latency_seconds=mean_latency,
            p99_latency_seconds=p99_latency,
            bus_utilization=stats.utilization(duration_seconds),
            per_node_average_power_watts=per_node_power,
            per_node_goodput_bps=per_node_goodput,
            hub_rx_energy_joules=self.hub_ledger.total_energy("wir_rx"),
            arbitration=self.bus.policy.name,
            hub_energy_joules=self.hub_ledger.total_energy(),
            hub_average_power_watts=self.hub_ledger.average_power(
                duration_seconds),
            offered_packets=(sum(node.packets_sent
                                 for node in self.nodes.values())
                             + stats.dropped_packets),
            per_node_state_of_charge=state_of_charge,
            per_node_first_death_seconds={
                name: death for name, (death, _)
                in self._death_records.items()},
            per_node_delivered_before_death={
                name: delivered for name, (_, delivered)
                in self._death_records.items()},
            # Detection order can lag an interpolated brownout time by up
            # to one tick; sort (stably) so the tuple is chronological as
            # documented.
            energy_events=tuple(sorted(
                self.energy_events, key=lambda event: event.time_seconds)),
            harvested_joules=harvested,
            reliability_enabled=self.reliability is not None,
            erased_attempts=stats.erased_attempts,
            retransmissions=stats.retransmissions,
            lost_packets=stats.lost_packets,
            retransmission_energy_joules=sum(
                node.ledger.total_energy("wir_retx")
                for node in self.nodes.values()),
            ack_energy_joules=sum(
                node.ledger.total_energy("arq_ack")
                for node in self.nodes.values()),
            coding_enabled=coding_enabled,
            coding_energy_joules=(sum(
                node.ledger.total_energy("coding")
                for node in self.nodes.values())
                if coding_enabled else 0.0),
            source_bits_delivered=(sum(
                (node.bits_sent - node.lost_bits) / node.coding_rate
                for node in self.nodes.values())
                if coding_enabled else 0.0),
        )

    def describe(self) -> dict[str, object]:
        """Summary of the configured network (for reports)."""
        technologies = sorted({node.technology.name
                               for node in self.nodes.values()})
        return {
            "technology": self.technology.name,
            "link_rate_mbps": units.to_megabit_per_second(self.technology.data_rate_bps()),
            "node_count": len(self.nodes),
            "offered_rate_bps": sum(
                node.source.average_rate_bps() for node in self.nodes.values()
            ),
            "arbitration": self.bus.policy.name,
            "node_technologies": technologies,
            "battery_nodes": sum(
                1 for node in self.nodes.values()
                if node.energy is not None
                and node.energy.battery is not None),
        }
