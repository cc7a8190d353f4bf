"""Shared RF environment: N bodies, one room, one interference budget.

A :class:`RFEnvironment` breaks the simulator's one-body assumption: it
co-schedules N :class:`~repro.netsim.simulator.BodyNetworkSimulator`
bodies against one timeline of *environment epochs* — the
occupancy boundaries (arrivals, departures) at which the room's
interference geometry changes — and couples the bodies through a
shared noise budget: each body's aggregate airtime radiates a
co-channel level that, distance-attenuated, raises every other body's
effective noise floor and therefore its per-packet erasure probability
through the existing :class:`~repro.comm.budget.LinkBudget` path.

The coupling is deliberately *epoch-quasi-static*, not per-packet: PER
is re-derived only when the environment changes (a body arrives or
leaves), exactly as posture events already re-derive it mid-run.  That
keeps the determinism contract intact:

* Within an epoch every body runs the unmodified batched kernel — the
  environment pre-schedules its interference swaps as ordinary control
  events on each body's own queue before the body runs, so the event
  stream, sequence numbering and RNG draw order are exactly those of a
  standalone run with the same control events.
* A **one-body environment schedules nothing**: with no co-located
  bodies every interference state is neutral, no swap or occupancy
  event is created, and the run is bit-identical to
  ``simulator.run(duration)`` (pinned golden-hex).
* Interference contributions add in power (:func:`~repro.comm.budget.
  power_sum_db`), so the adjusted noise floor — and through the
  monotone BER/PER waterfall, the erasure probability — is monotone
  non-decreasing in the number of bodies in the room (a Hypothesis
  property test).

The environment stays agnostic of scenario specs: each body carries an
``apply_interference`` closure (built by the scenario layer) that knows
how to re-derive and install its own nodes' erasure rates for a given
:class:`InterferenceState`.  See ``docs/multi-body-control.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from ..comm.budget import power_sum_db
from ..errors import SimulationError
from .simulator import BodyNetworkSimulator, SimulationResult

#: Reference distance (metres) at which a body's radiated/coupled
#: interference levels are quoted.
REFERENCE_DISTANCE_METRES = 1.0

#: Default inter-body RF path loss at the reference distance.  Body
#: shadowing makes on-body transmitters poor interferers: most of the
#: frame's energy creeps along the wearer, and what escapes is absorbed
#: by both torsos, so the loss at one metre is far above free space.
DEFAULT_RF_REFERENCE_LOSS_DB = 40.0

#: Default inter-body path-loss exponent (indoor, body-obstructed).
DEFAULT_RF_PATH_LOSS_EXPONENT = 3.0

#: Default inter-body EQS coupling decay exponent: quasi-static fields
#: fall off like a near-field dipole, ~1/d^3.
DEFAULT_EQS_COUPLING_EXPONENT = 3.0

#: Bodies cannot overlap; distances are clamped to this floor.
MINIMUM_BODY_DISTANCE_METRES = 0.25


@dataclass(frozen=True)
class InterferenceState:
    """Aggregate interference arriving at one body during one epoch.

    ``rf_dbm`` is the co-channel power other bodies put into this
    body's RF receivers (``-inf`` = an empty room); ``eqs_volts`` the
    receiver-referred voltage their EQS activity couples onto this
    body's skin (0.0 = none).  :data:`NO_INTERFERENCE` is the neutral
    state a standalone body sees.
    """

    rf_dbm: float = -math.inf
    eqs_volts: float = 0.0

    @property
    def neutral(self) -> bool:
        """Whether this state leaves every link budget untouched."""
        return self.rf_dbm == -math.inf and self.eqs_volts == 0.0


#: The empty-room state (shared instance; the class is frozen).
NO_INTERFERENCE = InterferenceState()


@dataclass
class EnvironmentBody:
    """One body placed in a shared environment.

    ``airtime_fraction`` is the share of wall-clock the body's network
    keeps its medium busy (its duty factor as an interferer);
    ``rf_level_dbm`` / ``eqs_level_volts`` are the co-channel level and
    coupled swing the body presents at
    :data:`REFERENCE_DISTANCE_METRES` *while transmitting*.  The
    occupancy window ``[arrival_fraction, departure_fraction)`` gates
    both directions: an absent body neither interferes nor generates
    (its nodes sleep outside the window).

    ``apply_interference`` re-derives and installs this body's per-node
    erasure rates for a given :class:`InterferenceState`; ``None``
    (e.g. a lossless body) means interference cannot touch it.
    """

    name: str
    simulator: BodyNetworkSimulator
    duration_seconds: float
    airtime_fraction: float = 0.0
    rf_level_dbm: float = -math.inf
    eqs_level_volts: float = 0.0
    position_metres: tuple[float, float] = (0.0, 0.0)
    arrival_fraction: float = 0.0
    departure_fraction: float = 1.0
    apply_interference: Callable[[InterferenceState], None] | None = None
    #: Interference currently applied to this body — shared mutable
    #: state a controller's ``error_rate_fn`` reads at evaluation time
    #: (so a tx-power re-derivation composes with the room).
    current_interference: InterferenceState = \
        field(default_factory=InterferenceState)

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise SimulationError("body duration must be positive")
        if not 0.0 <= self.airtime_fraction:
            raise SimulationError("airtime fraction must be non-negative")
        if not (0.0 <= self.arrival_fraction
                <= self.departure_fraction <= 1.0):
            raise SimulationError(
                "occupancy window must satisfy 0 <= arrival <= departure "
                "<= 1")

    def present(self, fraction: float) -> bool:
        """Whether the body is in the room at *fraction* of the run."""
        return self.arrival_fraction <= fraction < self.departure_fraction \
            or (self.departure_fraction == 1.0 and fraction >= 1.0)

    @property
    def duty_fraction(self) -> float:
        """Transmit duty factor as an interferer (airtime, clamped)."""
        return min(self.airtime_fraction, 1.0)


@dataclass
class EnvironmentResult:
    """Outcome of one multi-body environment run."""

    duration_seconds: float
    body_names: tuple[str, ...]
    body_results: tuple[SimulationResult, ...]
    #: ``(time_seconds, per-body InterferenceState)`` per epoch, in
    #: chronological order — the interference schedule the run applied.
    epochs: tuple[tuple[float, tuple[InterferenceState, ...]], ...]

    def result_for(self, name: str) -> SimulationResult:
        """The per-body result by body name."""
        try:
            return self.body_results[self.body_names.index(name)]
        except ValueError:
            raise SimulationError(f"unknown body {name!r}") from None

    def __iter__(self) -> Iterator[tuple[str, SimulationResult]]:
        return iter(zip(self.body_names, self.body_results))

    @property
    def delivered_packets(self) -> int:
        return sum(result.delivered_packets for result in self.body_results)

    @property
    def mean_delivered_fraction(self) -> float:
        """Unweighted mean of per-body delivered fractions."""
        if not self.body_results:
            return 0.0
        return sum(result.delivered_fraction
                   for result in self.body_results) / len(self.body_results)

    @property
    def mean_leaf_power_watts(self) -> float:
        """Mean per-node leaf power across every body."""
        total = 0.0
        count = 0
        for result in self.body_results:
            total += sum(result.per_node_average_power_watts.values())
            count += len(result.per_node_average_power_watts)
        return total / count if count else 0.0


class RFEnvironment:
    """N bodies co-scheduled against one shared interference budget.

    Parameters
    ----------
    bodies:
        The placed bodies.  All must share one duration (the
        environment's epoch timeline is a single clock).
    rf_reference_loss_db, rf_path_loss_exponent:
        Inter-body RF propagation: loss at the reference metre and the
        log-distance exponent beyond it.
    eqs_coupling_exponent:
        Near-field decay exponent of inter-body EQS coupling.
    """

    def __init__(self, bodies: Sequence[EnvironmentBody],
                 rf_reference_loss_db: float = DEFAULT_RF_REFERENCE_LOSS_DB,
                 rf_path_loss_exponent: float =
                 DEFAULT_RF_PATH_LOSS_EXPONENT,
                 eqs_coupling_exponent: float =
                 DEFAULT_EQS_COUPLING_EXPONENT) -> None:
        if not bodies:
            raise SimulationError("an environment needs at least one body")
        names = [body.name for body in bodies]
        if len(set(names)) != len(names):
            raise SimulationError("body names must be unique")
        durations = {body.duration_seconds for body in bodies}
        if len(durations) != 1:
            raise SimulationError(
                "all bodies must share one duration; got "
                f"{sorted(durations)}")
        if rf_path_loss_exponent <= 0 or eqs_coupling_exponent <= 0:
            raise SimulationError("decay exponents must be positive")
        self.bodies = list(bodies)
        self.duration_seconds = next(iter(durations))
        self.rf_reference_loss_db = rf_reference_loss_db
        self.rf_path_loss_exponent = rf_path_loss_exponent
        self.eqs_coupling_exponent = eqs_coupling_exponent
        self._schedule: list[tuple[float,
                                   tuple[InterferenceState, ...]]] | None = \
            None

    # -- geometry ----------------------------------------------------------

    def distance_metres(self, first: EnvironmentBody,
                        second: EnvironmentBody) -> float:
        """Inter-body distance, clamped away from zero."""
        dx = first.position_metres[0] - second.position_metres[0]
        dy = first.position_metres[1] - second.position_metres[1]
        return max(math.hypot(dx, dy), MINIMUM_BODY_DISTANCE_METRES)

    def _rf_contribution_dbm(self, victim: EnvironmentBody,
                             interferer: EnvironmentBody) -> float:
        """Co-channel power *interferer* lands on *victim*, duty-weighted."""
        duty = interferer.duty_fraction
        if interferer.rf_level_dbm == -math.inf or duty <= 0.0:
            return -math.inf
        distance = self.distance_metres(victim, interferer)
        path_loss = (self.rf_reference_loss_db
                     + 10.0 * self.rf_path_loss_exponent
                     * math.log10(distance / REFERENCE_DISTANCE_METRES))
        return (interferer.rf_level_dbm + 10.0 * math.log10(duty)
                - path_loss)

    def _eqs_contribution_volts(self, victim: EnvironmentBody,
                                interferer: EnvironmentBody) -> float:
        """RMS voltage *interferer* couples onto *victim*'s receivers."""
        duty = interferer.duty_fraction
        if interferer.eqs_level_volts <= 0.0 or duty <= 0.0:
            return 0.0
        distance = self.distance_metres(victim, interferer)
        decay = (REFERENCE_DISTANCE_METRES
                 / distance) ** self.eqs_coupling_exponent
        # RMS of a duty-cycled waveform scales with sqrt(duty).
        return interferer.eqs_level_volts * decay * math.sqrt(duty)

    def interference_at(self, index: int,
                        present: Sequence[bool]) -> InterferenceState:
        """Aggregate interference at body *index* for one occupancy map."""
        victim = self.bodies[index]
        if not present[index]:
            return NO_INTERFERENCE
        rf_levels: list[float] = []
        eqs_square_sum = 0.0
        for other_index, interferer in enumerate(self.bodies):
            if other_index == index or not present[other_index]:
                continue
            rf = self._rf_contribution_dbm(victim, interferer)
            if rf != -math.inf:
                rf_levels.append(rf)
            eqs = self._eqs_contribution_volts(victim, interferer)
            if eqs > 0.0:
                eqs_square_sum += eqs * eqs
        if not rf_levels and eqs_square_sum == 0.0:
            return NO_INTERFERENCE
        return InterferenceState(
            rf_dbm=power_sum_db(rf_levels),
            eqs_volts=math.sqrt(eqs_square_sum))

    # -- epoch timeline ----------------------------------------------------

    def epoch_fractions(self) -> list[float]:
        """Occupancy-change boundaries, as sorted run fractions."""
        boundaries = {0.0}
        for body in self.bodies:
            if 0.0 < body.arrival_fraction < 1.0:
                boundaries.add(body.arrival_fraction)
            if 0.0 < body.departure_fraction < 1.0:
                boundaries.add(body.departure_fraction)
        return sorted(boundaries)

    def interference_schedule(self
                              ) -> list[tuple[float,
                                              tuple[InterferenceState, ...]]]:
        """The full interference schedule, one entry per epoch.

        Walks the occupancy boundaries in time order; the resulting list
        gives, for each epoch start time, every body's aggregate
        interference.  The schedule is computed once and cached, because
        callers (experiments, the closed-form comparison, benchmarks)
        read it before :meth:`run` replays it onto the per-body queues,
        and each pass costs O(epochs × bodies²).
        """
        if self._schedule is not None:
            return self._schedule
        schedule: list[tuple[float, tuple[InterferenceState, ...]]] = []
        duration = self.duration_seconds
        for fraction in self.epoch_fractions():
            now = fraction * duration
            # Presence is read at ``now / duration`` (not ``fraction``)
            # so the boundary rounding matches the epoch start time.
            present = [body.present(now / duration) for body in self.bodies]
            schedule.append((now, tuple(
                self.interference_at(index, present)
                for index in range(len(self.bodies)))))
        self._schedule = schedule
        return schedule

    # -- execution ---------------------------------------------------------

    def _schedule_body(self, index: int,
                       schedule: Sequence[tuple[float,
                                                tuple[InterferenceState,
                                                      ...]]]) -> None:
        """Pre-schedule one body's swaps and occupancy on its own queue.

        Only *changes* become events: a body whose interference stays
        neutral for the whole run (every one-body environment) gets no
        event at all, which is the bit-identity contract.
        """
        body = self.bodies[index]
        simulator = body.simulator
        duration = body.duration_seconds

        def install(state: InterferenceState) -> None:
            body.current_interference = state
            if body.apply_interference is not None:
                body.apply_interference(state)

        applied = body.current_interference
        for time_seconds, states in schedule:
            state = states[index]
            if state == applied:
                continue
            applied = state
            if time_seconds == 0.0:
                install(state)  # initial condition, not an event
            else:
                simulator.queue.schedule_at(
                    time_seconds,
                    lambda state=state: install(state))
        if body.arrival_fraction > 0.0:
            for name in simulator.nodes:
                simulator.set_node_active(name, False)
            simulator.queue.schedule_at(
                body.arrival_fraction * duration,
                lambda names=tuple(simulator.nodes): [
                    simulator.set_node_active(name, True)
                    for name in names])
        if body.departure_fraction < 1.0:
            simulator.queue.schedule_at(
                body.departure_fraction * duration,
                lambda names=tuple(simulator.nodes): [
                    simulator.set_node_active(name, False)
                    for name in names])

    def run(self, fast_path: str | None = None) -> EnvironmentResult:
        """Execute every body under the shared interference schedule.

        Bodies run in placement order, each through one uninterrupted
        kernel invocation with its swaps pre-scheduled — re-entering
        the kernel mid-run would re-anchor interarrival draws and
        energy ticks, breaking bit-identity; pre-scheduling keeps each
        body's event stream exactly what a standalone run with the same
        control events would see.
        """
        schedule = self.interference_schedule()
        for index in range(len(self.bodies)):
            self._schedule_body(index, schedule)
        results = tuple(
            body.simulator.run(body.duration_seconds, fast_path=fast_path)
            for body in self.bodies)
        return EnvironmentResult(
            duration_seconds=self.duration_seconds,
            body_names=tuple(body.name for body in self.bodies),
            body_results=results,
            epochs=tuple(schedule),
        )

    def describe(self) -> Mapping[str, object]:
        """Summary of the placed environment (for reports)."""
        return {
            "bodies": len(self.bodies),
            "duration_seconds": self.duration_seconds,
            "epochs": len(self.epoch_fractions()),
            "rf_path_loss_exponent": self.rf_path_loss_exponent,
            "eqs_coupling_exponent": self.eqs_coupling_exponent,
        }
