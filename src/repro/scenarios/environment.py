"""Multi-body environments: N scenario bodies sharing one room.

An :class:`EnvironmentSpec` composes N registered scenarios (or inline
:class:`~repro.scenarios.spec.ScenarioSpec` instances) into one shared
RF environment: each body is placed on a floor grid, given an occupancy
window (arrival/departure), optionally handed a per-node controller,
and compiled into a :class:`~repro.netsim.environment.RFEnvironment`
whose interference schedule couples the bodies through their link
budgets (see :mod:`repro.netsim.environment` for the determinism
contract).

What a body *emits* is derived from its spec, not configured by hand:

* its interferer duty factor is the aggregate on-air airtime of its
  leaves (offered air rate over each link's serialisation rate — ARQ
  retries are deliberately not folded in, a documented approximation);
* its RF co-channel level is the loudest RF transmit power on the
  body, discounted by :attr:`EnvironmentSpec.rf_co_channel_fraction`
  (channel hopping means only a fraction of its airtime lands in a
  victim's channel);
* its EQS leakage is the loudest electrode swing times
  :attr:`EnvironmentSpec.eqs_leakage_fraction` — the capacitive body
  channel confines almost everything to the wearer, and only that tiny
  fraction couples outward at the reference metre.

What a body *feels* goes through
:meth:`~repro.scenarios.spec.ReliabilitySpec.node_error_rate_adjusted`:
at every environment epoch (and after every posture event of a
multi-body run) each lossy node's erasure probability is re-derived
from its interference-adjusted link budget, honouring the posture
active at that moment and any transmit-power offset its controller has
actuated.  A one-body environment derives nothing and schedules
nothing — it is bit-identical to running the scenario standalone.

A registry mirroring :mod:`repro.scenarios.registry` names the built-in
environments (``gym_floor``, ``ward_shift``, ``commuter_train``) so the
CLI can list and run them next to the single-body gallery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..comm.eqs_hbc import EQSHBCTransceiver
from ..control import ControllerSpec
from ..errors import ScenarioError
from ..netsim.environment import (
    EnvironmentBody,
    EnvironmentResult,
    InterferenceState,
    RFEnvironment,
)
from ..netsim.simulator import BodyNetworkSimulator
from .registry import get_scenario
from .spec import (ReliabilitySpec, ScenarioNodeSpec, ScenarioResult,
                   ScenarioSpec, technology_for)


def _posture_at(timeline: list[tuple[float, float, str]],
                fraction: float) -> str:
    """The posture active at *fraction* of the run (segments replayed)."""
    for start, end, posture in timeline:
        if start <= fraction < end:
            return posture
    return timeline[-1][2]


#: A lossy node's posture timeline and its memoised PER re-derivation
#: ``(posture, rf_dbm, eqs_volts, offset_db) -> erasure probability``.
_NodeLink = tuple[list[tuple[float, float, str]],
                  Callable[[str, float, float, float], float]]


def _memoised_rate(reliability: ReliabilitySpec, node: ScenarioNodeSpec
                   ) -> Callable[[str, float, float, float], float]:
    """:meth:`~ReliabilitySpec.node_error_rate_adjusted` behind a memo.

    The re-derivation is a pure function of the posture, the room's
    interference and the controller's transmit offset, and a run only
    ever asks for postures x interference states x offset steps
    distinct ones, so the memo needs no bound.  Every controller cadence tick re-asserts its
    offset, which makes almost every call a hit.
    """
    memo: dict[tuple[str, float, float, float], float] = {}

    def rate(posture: str, rf_dbm: float, eqs_volts: float,
             offset_db: float) -> float:
        key = (posture, rf_dbm, eqs_volts, offset_db)
        per = memo.get(key)
        if per is None:
            per = memo[key] = reliability.node_error_rate_adjusted(
                node,
                posture=posture,
                rf_interference_dbm=rf_dbm,
                eqs_interference_volts=eqs_volts,
                tx_power_offset_db=offset_db)
        return per
    return rate


def _node_links(spec: ScenarioSpec) -> dict[str, _NodeLink] | None:
    """Every concrete node's link table entry (``None`` when lossless).

    Built once per placement: the timelines and the memo depend only on
    the spec, so every replica body of the placement shares them.
    """
    reliability = spec.reliability
    if reliability is None:
        return None
    return {concrete: (spec.node_posture_timeline(concrete, node),
                       _memoised_rate(reliability, node))
            for node in spec.nodes for concrete in node.expanded_names()}


@dataclass(frozen=True)
class BodyPlacement:
    """One body (or a replicated group of bodies) in an environment.

    ``scenario`` names a registered scenario or carries an inline spec;
    ``count > 1`` replicates it (``name0..nameN-1``), each replica
    getting its own grid position and derived seed.  The occupancy
    window ``[arrival_fraction, departure_fraction)`` says when the
    body is in the room: outside it the body's nodes sleep and the body
    neither interferes nor is interfered with.  ``controller`` attaches
    a per-node closed-loop controller (one fresh instance per node) to
    every leaf of the body.  ``position_metres`` pins a single body
    explicitly; replicated groups always take grid positions.
    """

    scenario: str | ScenarioSpec
    count: int = 1
    position_metres: tuple[float, float] | None = None
    arrival_fraction: float = 0.0
    departure_fraction: float = 1.0
    controller: ControllerSpec | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ScenarioError("placement count must be >= 1")
        if self.position_metres is not None and self.count != 1:
            raise ScenarioError(
                "explicit positions are for single bodies; replicated "
                "groups lay out on the environment grid")
        if not (0.0 <= self.arrival_fraction
                <= self.departure_fraction <= 1.0):
            raise ScenarioError(
                "occupancy window must satisfy 0 <= arrival <= departure "
                "<= 1")

    def spec(self) -> ScenarioSpec:
        """Resolve the placed scenario (registry name or inline spec)."""
        if isinstance(self.scenario, ScenarioSpec):
            return self.scenario
        return get_scenario(self.scenario)

    def base_name(self) -> str:
        return self.name if self.name is not None else self.spec().name

    def body_names(self) -> list[str]:
        base = self.base_name()
        if self.count == 1:
            return [base]
        return [f"{base}{index}" for index in range(self.count)]


@dataclass(frozen=True)
class EnvironmentRunResult:
    """Outcome of one environment run: per-body scenario results."""

    environment: str
    duration_seconds: float
    bodies: tuple[ScenarioResult, ...]
    simulated: EnvironmentResult

    def rows(self) -> list[dict[str, object]]:
        """One report row per body (the body name labels the row)."""
        return [body.row() for body in self.bodies]

    @property
    def mean_delivered_fraction(self) -> float:
        return self.simulated.mean_delivered_fraction


@dataclass(frozen=True)
class EnvironmentSpec:
    """N placed scenario bodies sharing one interference budget.

    Bodies lay out on a fixed-width floor grid (``bodies_per_row``
    columns at ``spacing_metres`` pitch) in placement order — the grid
    never re-flows when bodies are added, so every existing body keeps
    its position and its interference can only grow as the room fills
    (the monotonicity contract).  ``duration_seconds`` overrides every
    body's duration; without it all placed scenarios must already agree
    (the environment runs one shared clock).
    """

    name: str
    description: str
    bodies: tuple[BodyPlacement, ...]
    duration_seconds: float | None = None
    spacing_metres: float = 1.5
    bodies_per_row: int = 4
    rf_reference_loss_db: float = 55.0
    rf_path_loss_exponent: float = 3.0
    #: Fraction of an interferer's airtime landing in a victim's
    #: channel (frequency hopping / channelisation discount).
    rf_co_channel_fraction: float = 0.05
    #: Fraction of an EQS electrode swing that escapes the wearer and
    #: couples outward at the reference metre.  Calibrated so a packed
    #: room of Wi-R bodies (gym mats, train seats) raises a victim's
    #: receiver-referred noise by a measurable but survivable margin.
    eqs_leakage_fraction: float = 4e-4
    eqs_coupling_exponent: float = 3.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("environment name must be non-empty")
        if not self.bodies:
            raise ScenarioError(
                f"environment {self.name!r} places no bodies")
        if self.spacing_metres <= 0:
            raise ScenarioError("body spacing must be positive")
        if self.bodies_per_row < 1:
            raise ScenarioError("bodies per row must be >= 1")
        if not 0.0 < self.rf_co_channel_fraction <= 1.0:
            raise ScenarioError("co-channel fraction must be in (0, 1]")
        if not 0.0 <= self.eqs_leakage_fraction <= 1.0:
            raise ScenarioError("EQS leakage fraction must be in [0, 1]")
        seen: set[str] = set()
        for placement in self.bodies:
            for body_name in placement.body_names():
                if body_name in seen:
                    raise ScenarioError(
                        f"environment {self.name!r}: duplicate body "
                        f"{body_name!r}")
                seen.add(body_name)
        self.resolved_duration()  # raises on disagreeing durations

    # -- derived views -----------------------------------------------------

    @property
    def body_count(self) -> int:
        return sum(placement.count for placement in self.bodies)

    def resolved_duration(self) -> float:
        """The shared run duration (override or the bodies' agreement)."""
        if self.duration_seconds is not None:
            if self.duration_seconds <= 0:
                raise ScenarioError("environment duration must be positive")
            return self.duration_seconds
        durations = {placement.spec().duration_seconds
                     for placement in self.bodies}
        if len(durations) != 1:
            raise ScenarioError(
                f"environment {self.name!r}: bodies disagree on duration "
                f"({sorted(durations)}); set duration_seconds to override")
        return next(iter(durations))

    def grid_position(self, index: int) -> tuple[float, float]:
        """Floor position of the *index*-th body (fixed-width grid)."""
        column = index % self.bodies_per_row
        row = index // self.bodies_per_row
        return (column * self.spacing_metres, row * self.spacing_metres)

    def capabilities(self) -> tuple[str, ...]:
        """Capability tags: ``multi-body`` plus the bodies' union."""
        tags = {"multi-body"} if self.body_count > 1 else set()
        for placement in self.bodies:
            tags.update(placement.spec().capabilities())
        return tuple(sorted(tags))

    def describe(self) -> dict[str, object]:
        """Summary row for ``repro scenarios list`` (scenario-shaped)."""
        specs = [placement.spec() for placement in self.bodies]
        boundaries = {placement.arrival_fraction for placement in self.bodies
                      if 0.0 < placement.arrival_fraction < 1.0}
        boundaries |= {placement.departure_fraction
                       for placement in self.bodies
                       if 0.0 < placement.departure_fraction < 1.0}
        return {
            "scenario": self.name,
            "nodes": sum(placement.count * spec.leaf_count
                         for placement, spec in zip(self.bodies, specs)),
            "mac": ",".join(sorted({spec.arbitration for spec in specs})),
            "technologies": ",".join(sorted(
                {key for spec in specs for key in spec.technologies()})),
            "offered_kbps": sum(placement.count * spec.offered_rate_bps()
                                for placement, spec
                                in zip(self.bodies, specs)) / 1e3,
            "sim_seconds": self.resolved_duration(),
            "events": len(boundaries),
            "description": self.description,
            "capabilities": ",".join(self.capabilities()) or "-",
        }

    # -- emission model ----------------------------------------------------

    def body_emissions(self, spec: ScenarioSpec
                       ) -> tuple[float, float, float]:
        """``(airtime, rf_level_dbm, eqs_level_volts)`` one body emits.

        Airtime is the aggregate serialisation duty of the body's
        leaves (first-attempt traffic only); the RF level is the
        loudest RF transmitter discounted by the co-channel fraction;
        the EQS level is the loudest electrode swing scaled by the
        leakage fraction.
        """
        airtime = 0.0
        rf_level = -math.inf
        eqs_swing = 0.0
        for node in spec.nodes:
            technology = technology_for(node.technology)
            airtime += (node.count * node.air_rate_bps()
                        / technology.data_rate_bps())
            if isinstance(technology, EQSHBCTransceiver):
                eqs_swing = max(eqs_swing, technology.tx_swing_volts)
            elif hasattr(technology, "tx_power_dbm"):
                rf_level = max(rf_level, technology.tx_power_dbm)
        if rf_level != -math.inf:
            rf_level += 10.0 * math.log10(self.rf_co_channel_fraction)
        return (min(airtime, 1.0), rf_level,
                eqs_swing * self.eqs_leakage_fraction)

    # -- compilation -------------------------------------------------------

    def _make_apply(self, simulator: BodyNetworkSimulator,
                    duration: float, links: dict[str, _NodeLink]
                    ) -> Callable[[InterferenceState], None]:
        """Closure re-deriving one body's erasure rates for a state.

        Evaluated at environment epochs (and after posture events of a
        multi-body run): every lossy node gets the PER of its link
        budget under the given interference, the posture active *now*,
        and whatever transmit offset its controller holds.
        """
        def apply(state: InterferenceState) -> None:
            fraction = min(simulator.queue.now / duration, 1.0)
            for concrete, (timeline, rate) in links.items():
                runtime = simulator.controllers.get(concrete)
                offset = runtime.offset_db if runtime is not None else 0.0
                simulator.set_node_error_rate(
                    concrete,
                    rate(_posture_at(timeline, fraction), state.rf_dbm,
                         state.eqs_volts, offset))
        return apply

    def _make_error_fn(self, simulator: BodyNetworkSimulator,
                       body: EnvironmentBody, link: _NodeLink,
                       duration: float) -> Callable[[float], float]:
        """Per-node rate function a controller runtime actuates through.

        Composes the controller's transmit offset with the room's
        current interference and the posture active at evaluation time,
        so a boost re-derivation never forgets the environment.
        """
        timeline, rate = link

        def error_rate(offset_db: float) -> float:
            fraction = min(simulator.queue.now / duration, 1.0)
            state = body.current_interference
            return rate(_posture_at(timeline, fraction), state.rf_dbm,
                        state.eqs_volts, offset_db)
        return error_rate

    def build(self, seed: int = 0,
              duration_seconds: float | None = None) -> RFEnvironment:
        """Compile every placed body and couple them in an environment.

        Body *i* builds with seed ``seed + i`` (body 0 gets the plain
        seed, so a one-body environment reproduces the standalone run
        exactly).  Posture events of a multi-body (or controller-
        carrying) lossy body get correction events scheduled *after*
        the spec's own swap at the same timestamp, re-applying the
        interference-adjusted rates the plain swap does not know about.
        """
        duration = (duration_seconds if duration_seconds is not None
                    else self.resolved_duration())
        if duration <= 0:
            raise ScenarioError("environment duration must be positive")
        multi = self.body_count > 1
        env_bodies: list[EnvironmentBody] = []
        index = 0
        for placement in self.bodies:
            spec = placement.spec()
            links = _node_links(spec)
            for body_name in placement.body_names():
                simulator = spec.build(seed=seed + index,
                                       duration_seconds=duration)
                airtime, rf_level, eqs_level = self.body_emissions(spec)
                position = (placement.position_metres
                            if placement.position_metres is not None
                            else self.grid_position(index))
                body = EnvironmentBody(
                    name=body_name,
                    simulator=simulator,
                    duration_seconds=duration,
                    airtime_fraction=airtime,
                    rf_level_dbm=rf_level,
                    eqs_level_volts=eqs_level,
                    position_metres=position,
                    arrival_fraction=placement.arrival_fraction,
                    departure_fraction=placement.departure_fraction,
                )
                if links is not None:
                    body.apply_interference = self._make_apply(
                        simulator, duration, links)
                if placement.controller is not None:
                    for node in spec.nodes:
                        for concrete in node.expanded_names():
                            error_fn = (
                                self._make_error_fn(
                                    simulator, body, links[concrete],
                                    duration)
                                if links is not None else None)
                            simulator.attach_controller(
                                concrete, placement.controller,
                                error_rate_fn=error_fn)
                if links is not None and (multi or simulator.controllers):
                    # Same timestamp, later sequence: these run *after*
                    # the spec's own posture swaps and overwrite the
                    # interference-blind rates they install.
                    for event in spec.events:
                        if event.action != "posture":
                            continue
                        simulator.queue.schedule_at(
                            event.at_fraction * duration,
                            lambda body=body: body.apply_interference(
                                body.current_interference))
                env_bodies.append(body)
                index += 1
        return RFEnvironment(
            env_bodies,
            rf_reference_loss_db=self.rf_reference_loss_db,
            rf_path_loss_exponent=self.rf_path_loss_exponent,
            eqs_coupling_exponent=self.eqs_coupling_exponent,
        )

    def run(self, seed: int = 0,
            duration_seconds: float | None = None,
            fast_path: str | None = None) -> EnvironmentRunResult:
        """Compile and execute; returns per-body scenario results."""
        duration = (duration_seconds if duration_seconds is not None
                    else self.resolved_duration())
        environment = self.build(seed=seed, duration_seconds=duration)
        simulated = environment.run(fast_path=fast_path)
        bodies: list[ScenarioResult] = []
        specs = [placement.spec() for placement in self.bodies
                 for _ in range(placement.count)]
        for spec, (body_name, result) in zip(specs, simulated):
            bodies.append(ScenarioResult(
                scenario=body_name,
                duration_seconds=duration,
                arbitration=spec.arbitration,
                node_count=spec.leaf_count,
                technologies=spec.technologies(),
                simulated=result,
            ))
        return EnvironmentRunResult(
            environment=self.name,
            duration_seconds=duration,
            bodies=tuple(bodies),
            simulated=simulated,
        )


# -- registry ---------------------------------------------------------------

EnvironmentFactory = Callable[[], EnvironmentSpec]

_ENVIRONMENT_SPECS: dict[str, EnvironmentFactory] = {}


def register_environment(factory: EnvironmentFactory) -> EnvironmentFactory:
    """Register an environment factory under its spec's name.

    Mirrors :func:`repro.scenarios.registry.register_scenario`; the
    factory runs once at registration to validate the spec and learn
    its name.  Environment names share the CLI namespace with scenario
    names, so collisions are rejected here.
    """
    from .registry import scenario_names

    spec = factory()
    if not isinstance(spec, EnvironmentSpec):
        raise ScenarioError(
            f"environment factory {factory!r} did not return an "
            "EnvironmentSpec")
    if spec.name in scenario_names():
        raise ScenarioError(
            f"environment {spec.name!r} collides with a scenario name")
    existing = _ENVIRONMENT_SPECS.get(spec.name)
    if existing is not None and existing is not factory:
        raise ScenarioError(f"environment {spec.name!r} registered twice")
    _ENVIRONMENT_SPECS[spec.name] = factory
    return factory


def environment_names() -> list[str]:
    """Sorted names of all registered environments."""
    return sorted(_ENVIRONMENT_SPECS)


def get_environment(name: str) -> EnvironmentSpec:
    """Build the environment spec registered under *name*."""
    try:
        factory = _ENVIRONMENT_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(_ENVIRONMENT_SPECS))
        raise ScenarioError(
            f"unknown environment {name!r} (known: {known})") from None
    return factory()


def all_environments() -> list[EnvironmentSpec]:
    """Every registered environment spec, sorted by name."""
    return [get_environment(name) for name in environment_names()]


# -- built-in environments --------------------------------------------------

@register_environment
def gym_floor() -> EnvironmentSpec:
    """Eight yoga bodies on one studio floor: EQS leakage coupling.

    Every body runs ``barefoot_yoga`` — a lossy EQS scenario whose
    barefoot phase already sits at the worst-case posture — packed on a
    1.5 m mat grid.  The aggregate electrode leakage of seven
    neighbours raises each body's receiver noise enough to measurably
    deepen the barefoot erasure dip.
    """
    return EnvironmentSpec(
        name="gym_floor",
        description="8 yoga bodies on a mat grid, EQS leakage coupling",
        bodies=(BodyPlacement(scenario="barefoot_yoga", count=8),),
        spacing_metres=1.5,
        bodies_per_row=4,
    )


@register_environment
def ward_shift() -> EnvironmentSpec:
    """A six-bed ward across a shift change: staggered occupancy.

    Every bed runs ``noisy_ward`` (Wi-R vitals plus a BLE island on a
    raised noise floor).  Two beds are occupied all along, two patients
    leave at 60 % of the run and two arrive at 40 % — so the room's
    co-channel pressure steps through three epochs and each BLE
    island's erasure rate steps with it.
    """
    return EnvironmentSpec(
        name="ward_shift",
        description="6 noisy-ward beds, staggered arrivals and departures",
        bodies=(
            BodyPlacement(scenario="noisy_ward", count=2, name="bed"),
            BodyPlacement(scenario="noisy_ward", count=2, name="bed_out",
                          departure_fraction=0.6),
            BodyPlacement(scenario="noisy_ward", count=2, name="bed_in",
                          arrival_fraction=0.4),
        ),
        spacing_metres=2.5,
        bodies_per_row=3,
    )


@register_environment
def commuter_train() -> EnvironmentSpec:
    """Twelve commuters packed in one train car, closed loop engaged.

    Every body runs ``commute_walk`` — the posture-cycling EQS
    commute — at seat pitch (0.8 m, two per row), which compounds the
    sitting posture's already-weak channel with eleven neighbours'
    leakage: uncontrolled, the car loses roughly half its packets.
    Each node therefore carries a :class:`~repro.control.
    PERBackoffController` that watches its windowed PER and steps its
    transmit swing up (and back down when the channel heals across the
    walk/platform transitions) — the gallery's standing demonstration
    of the per-node closed loop recovering a crowded room.
    """
    return EnvironmentSpec(
        name="commuter_train",
        description="12 commute bodies at seat pitch, PER-backoff control",
        bodies=(BodyPlacement(scenario="commute_walk", count=12,
                              name="commuter",
                              controller=ControllerSpec(
                                  kind="per_backoff",
                                  cadence_seconds=5.0)),),
        spacing_metres=0.8,
        bodies_per_row=2,
        eqs_leakage_fraction=2e-4,
    )
