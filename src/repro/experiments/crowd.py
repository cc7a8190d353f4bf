"""E18 — crowded rooms: delivered fraction and lifetime vs occupancy.

Every experiment before this one runs a single body in an empty room.
E18 is the multi-body counterpart: N identical wearers share one room
through the :class:`~repro.netsim.environment.RFEnvironment` coupling
— each body's aggregate airtime raises every other body's co-channel
noise floor and coupled EQS voltage, so erasure probabilities climb
with occupancy, ARQ retries burn battery margin, and delivered
fraction and projected lifetime both degrade as the room fills.

The sweep crosses three axes: bodies-per-room (the primary curve), the
MAC arbitration policy, and the per-node controller
(:mod:`repro.control`).  Each body carries lossy Wi-R IMU nodes on a
scaled coin cell plus a BLE pulse-oximeter island, so both
interference paths (EQS leakage and RF co-channel) and the lifetime
projection are exercised at once:

* ``static`` — the neutral controller: no backoff, no low-battery
  throttle; the uncontrolled baseline, and the configuration the
  closed form models exactly;
* ``per_backoff`` — windowed-PER hysteresis on a tx-power boost:
  recovers delivered fraction at high occupancy at a measured energy
  premium;
* ``soc_throttle`` — the duty-cycle throttle on the low-battery
  crossing: trades offered packets for projected lifetime.

Every ``static`` operating point also runs through the cohort closed
form (:func:`~repro.cohort.evaluate_members` with the per-body
interference correction) and must agree with the DES inside the
:data:`~repro.netsim.fidelity.ANALYTIC` tolerances — the multi-body
extension of the standing DES-vs-analytic cross-validation.
Controller-bearing points report the analytic value as an uncontrolled
reference only: closed-loop adaptation is deliberately outside the
steady-state model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cohort import evaluate_members
from ..control import ControllerSpec
from ..errors import ConfigurationError
from ..netsim import fidelity
from ..netsim.environment import RFEnvironment
from ..runner.registry import ExperimentSpec, register
from ..scenarios.environment import BodyPlacement, EnvironmentSpec
from ..scenarios.spec import ReliabilitySpec, ScenarioNodeSpec, ScenarioSpec
from ..sensors.catalog import SensorModality

#: Occupancy sweep: bodies sharing the room.
DEFAULT_BODIES = (1, 2, 4, 8)

DEFAULT_DURATION_SECONDS = 120.0

#: Grid pitch between neighbouring bodies — a packed studio class.
DEFAULT_SPACING_METRES = 1.2

_MAC_POLICIES = ("fifo", "tdma", "polling")
_CONTROLLERS = ("static", "per_backoff", "soc_throttle")


def _body_spec(mac_policy: str, duration_seconds: float) -> ScenarioSpec:
    """One crowd member: lossy Wi-R IMUs on a coin cell + a BLE island.

    The IMU pair rides the EQS body channel with a noise margin thin
    enough that room-level leakage moves its erasure rate; the
    pulse-oximeter is a legacy BLE device whose 2.4 GHz floor sits on
    the graded part of the erfc waterfall, so co-channel interference
    from neighbouring bodies walks its erasure rate up with occupancy.
    The oximeter's scaled coin cell starts just above the low-battery
    threshold: with a ~27 nJ/bit radio, ARQ retries (and any
    controller boost premium) dominate its drain, so the projected
    lifetime degrades with the room and the ``soc_throttle`` crossing
    fires mid-run.
    """
    return ScenarioSpec(
        name="e18_member",
        description="E18 crowd member: Wi-R IMU pair + BLE pulse oximeter",
        duration_seconds=duration_seconds,
        arbitration=mac_policy,
        reliability=ReliabilitySpec(
            posture="standing_shoes",
            eqs_noise_rms_volts=4.5e-5,
            rf_noise_floor_dbm=-92.5,
            arq_retry_limit=3,
        ),
        nodes=(
            ScenarioNodeSpec(name="imu", modality=SensorModality.IMU,
                             count=2, bits_per_packet=4096.0,
                             sensing_power_watts=15e-6),
            ScenarioNodeSpec(name="spo2", modality=SensorModality.PPG,
                             technology="ble", bits_per_packet=2048.0,
                             sensing_power_watts=80e-6,
                             battery="cr2032", battery_scale=1e-4,
                             initial_charge_fraction=0.34,
                             low_battery_fraction=0.30),
        ),
    )


@dataclass(frozen=True)
class CrowdPoint:
    """One (bodies-per-room, MAC, controller) operating point."""

    bodies: int
    mac_policy: str
    controller: str
    #: Mean delivered fraction across the room's bodies (DES).
    delivered_fraction: float
    #: Closed-form delivered fraction under the same interference.
    analytic_delivered_fraction: float
    attempts_per_delivered: float
    #: Room-total ARQ retransmission energy (joules).
    retransmission_energy_joules: float
    mean_leaf_power_watts: float
    #: Projected battery lifetime (hours): per body, the weakest
    #: battery node's time-to-empty at its observed drain rate,
    #: averaged across bodies.
    projected_lifetime_hours: float
    #: Controller actions applied across the room (0 for ``static``).
    controller_actions: int
    #: Mean final tx-power offset across controlled nodes (dB).
    mean_tx_offset_db: float

    @property
    def gaps(self) -> fidelity.Gaps:
        """Closed form vs DES (meaningful for ``static`` points;
        controllers are unmodelled analytically)."""
        return fidelity.compare(
            fidelity.Readout(
                delivered_fraction=self.analytic_delivered_fraction),
            fidelity.Readout(delivered_fraction=self.delivered_fraction))

    def row(self) -> dict[str, object]:
        return {
            "bodies": self.bodies,
            "mac": self.mac_policy,
            "controller": self.controller,
            "delivered": round(self.delivered_fraction, 4),
            "analytic": round(self.analytic_delivered_fraction, 4),
            "attempts": round(self.attempts_per_delivered, 3),
            "retx_mj": round(self.retransmission_energy_joules * 1e3, 3),
            "leaf_uw": round(self.mean_leaf_power_watts * 1e6, 1),
            "lifetime_h": round(self.projected_lifetime_hours, 2),
            "actions": self.controller_actions,
            "offset_db": round(self.mean_tx_offset_db, 2),
        }


@dataclass(frozen=True)
class CrowdResult:
    """The occupancy sweep for one (MAC, controller) configuration."""

    mac_policy: str
    controller: str
    duration_seconds: float
    points: tuple[CrowdPoint, ...]

    def rows(self) -> list[dict[str, object]]:
        return [point.row() for point in self.points]

    def worst_gaps(self) -> fidelity.Gaps:
        """Worst closed-form-vs-DES gaps across the sweep."""
        return fidelity.worst(point.gaps for point in self.points)

    def within_envelope(self) -> bool:
        """Static sweeps stay inside the analytic tolerances; controller
        sweeps have no closed-form counterpart to hold against."""
        return (self.controller != "static"
                or not self.worst_gaps().beyond(fidelity.ANALYTIC))

    def delivered_degradation(self) -> float:
        """Delivered-fraction drop from the emptiest to fullest room."""
        return (self.points[0].delivered_fraction
                - self.points[-1].delivered_fraction)

    def lifetime_degradation_hours(self) -> float:
        """Projected-lifetime drop from the emptiest to fullest room."""
        return (self.points[0].projected_lifetime_hours
                - self.points[-1].projected_lifetime_hours)


def _projected_lifetime_hours(spec: ScenarioSpec,
                              duration_seconds: float,
                              state_of_charge: dict[str, float]) -> float:
    """Weakest battery node's time-to-empty at the observed drain."""
    worst = math.inf
    for node in spec.nodes:
        if node.battery is None:
            continue
        for concrete in node.expanded_names():
            end = state_of_charge.get(concrete)
            if end is None:
                continue
            drain = node.initial_charge_fraction - end
            if drain <= 0.0:
                continue
            seconds = duration_seconds * node.initial_charge_fraction / drain
            worst = min(worst, seconds / 3600.0)
    return worst


def _evaluate_point(environment: RFEnvironment, spec: ScenarioSpec,
                    bodies: int, mac_policy: str, controller: str,
                    duration_seconds: float) -> CrowdPoint:
    """Run one placed room through the DES and the closed form."""
    # The epoch schedule is cached, so inspecting it here does not
    # disturb the run's own replay onto the per-body queues.  E18 rooms
    # have full-run occupancy, so the single opening epoch *is* the
    # room's interference state.
    states = environment.interference_schedule()[0][1]
    result = environment.run()

    delivered = [body.delivered_fraction for body in result.body_results]
    attempts = [body.attempts_per_delivered for body in result.body_results]
    retx = sum(body.retransmission_energy_joules
               for body in result.body_results)
    leaf_power = [body.total_leaf_power_watts
                  for body in result.body_results]
    lifetimes = [
        _projected_lifetime_hours(spec, duration_seconds,
                                  body.per_node_state_of_charge)
        for body in result.body_results]
    runtimes = [runtime for body in environment.bodies
                for runtime in body.simulator.controllers.values()]
    offsets = [runtime.offset_db for runtime in runtimes]
    # Cadence actions are counted by the runtimes; crossing-triggered
    # throttles go through the kernel's low-battery dispatch and show
    # up as energy events instead.
    actions = sum(runtime.actions_applied for runtime in runtimes)
    actions += sum(
        1 for body in environment.bodies
        for event in body.simulator.energy_events
        if event.kind == "low_battery")

    analytic = evaluate_members(
        [spec] * bodies,
        interference=[None if state.neutral
                      else (state.rf_dbm, state.eqs_volts)
                      for state in states])

    return CrowdPoint(
        bodies=bodies,
        mac_policy=mac_policy,
        controller=controller,
        delivered_fraction=sum(delivered) / bodies,
        analytic_delivered_fraction=sum(
            metrics.delivered_fraction for metrics in analytic) / bodies,
        attempts_per_delivered=sum(attempts) / bodies,
        retransmission_energy_joules=retx,
        mean_leaf_power_watts=sum(leaf_power) / bodies,
        projected_lifetime_hours=sum(lifetimes) / bodies,
        controller_actions=actions,
        mean_tx_offset_db=(sum(offsets) / len(offsets)
                           if offsets else 0.0),
    )


def run(mac_policy: str = "fifo",
        controller: str = "static",
        bodies_per_room: tuple[int, ...] = DEFAULT_BODIES,
        simulated_seconds: float = DEFAULT_DURATION_SECONDS,
        spacing_metres: float = DEFAULT_SPACING_METRES,
        seed: int = 0) -> CrowdResult:
    """Sweep room occupancy for one MAC policy and controller.

    Each occupancy level places ``n`` copies of the crowd-member body
    on the environment grid (fixed-width layout: existing bodies never
    move as the room fills, so interference is monotone in occupancy),
    runs the coupled DES, and evaluates the closed form under the same
    per-body interference.
    """
    if mac_policy not in _MAC_POLICIES:
        raise ConfigurationError(
            f"unknown MAC policy {mac_policy!r} "
            f"(known: {', '.join(_MAC_POLICIES)})")
    if controller not in _CONTROLLERS:
        raise ConfigurationError(
            f"unknown controller {controller!r} "
            f"(known: {', '.join(_CONTROLLERS)})")
    counts = tuple(int(count) for count in bodies_per_room)
    if not counts or any(count < 1 for count in counts):
        raise ConfigurationError("bodies_per_room must be positive counts")
    if simulated_seconds <= 0:
        raise ConfigurationError("simulated_seconds must be positive")
    if spacing_metres <= 0:
        raise ConfigurationError("spacing_metres must be positive")

    spec = _body_spec(mac_policy, simulated_seconds)
    points: list[CrowdPoint] = []
    for count in counts:
        environment_spec = EnvironmentSpec(
            name=f"e18_room_{count}",
            description=f"E18 sweep room with {count} bodies",
            bodies=(BodyPlacement(
                scenario=spec, count=count, name="member",
                controller=ControllerSpec(kind=controller,
                                          cadence_seconds=5.0)),),
            spacing_metres=spacing_metres,
            # An open studio: line-of-sight 2.4 GHz between bodies
            # (square-law distance falloff, higher reference loss) and
            # mat-to-mat EQS coupling a notch above the gallery default
            # — calibrated so the occupancy sweep walks the BLE
            # waterfall's graded region instead of jumping it.
            rf_reference_loss_db=67.0,
            rf_path_loss_exponent=2.0,
            eqs_leakage_fraction=6e-4,
        )
        points.append(_evaluate_point(
            environment_spec.build(seed=seed), spec, count,
            mac_policy, controller, simulated_seconds))
    return CrowdResult(
        mac_policy=mac_policy,
        controller=controller,
        duration_seconds=simulated_seconds,
        points=tuple(points),
    )


def _summary(result: CrowdResult) -> list[str]:
    first, last = result.points[0], result.points[-1]
    lines = [
        f"mac={result.mac_policy} controller={result.controller}: "
        f"delivered {first.delivered_fraction:.3f} @ {first.bodies} "
        f"bodies -> {last.delivered_fraction:.3f} @ {last.bodies} bodies",
        f"projected lifetime {first.projected_lifetime_hours:.2f} h -> "
        f"{last.projected_lifetime_hours:.2f} h",
    ]
    if result.controller == "static":
        name = "delivered_fraction_abs_error"
        lines.append(
            f"DES vs closed form within "
            f"{result.worst_gaps()[name]:.4f} absolute "
            f"(envelope {fidelity.ANALYTIC[name]:.2f})")
    else:
        lines.append(
            f"{last.controller_actions} controller actions at "
            f"{last.bodies} bodies, mean offset "
            f"{last.mean_tx_offset_db:.2f} dB")
    return lines


register(ExperimentSpec(
    id="crowd",
    eid="E18",
    title="Crowded-room occupancy sweep with per-node control",
    module="crowd",
    run=run,
    rows=lambda result: result.rows(),
    summarize=_summary,
    sweep_defaults={
        "mac_policy": ("fifo", "tdma", "polling"),
        "controller": ("static", "per_backoff", "soc_throttle"),
    },
))
