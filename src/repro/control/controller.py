"""The per-node control-loop protocol: observe, decide, actuate.

A :class:`Controller` closes the loop around one leaf node: the
simulator presents an :class:`Observation` (windowed link quality,
state of charge, queue depth), the controller answers with an
:class:`Action` (or ``None`` for "hold"), and the runtime applies the
action through the simulator's mid-run actuation surface.  The shape
follows the FSM-actor pattern of SCADA supervisors: controllers are
small, synchronous state machines whose only side channel is the
returned action — they never touch the simulator directly, which is
what keeps their evaluation cadence deterministic on the kernel's
cadence stream.

Two observation sources exist:

* a **cadence** observation, emitted every
  ``Controller.cadence_seconds`` on the cadence stream (windowed
  erasure/delivery deltas since the previous evaluation);
* a **low_battery** observation, emitted exactly at the simulator's
  state-of-charge threshold crossing (the energy tick that first sees
  ``is_low_battery()``).

A controller with ``cadence_seconds = None`` schedules *nothing*: it
can only react to threshold crossings, and attaching it to a
node perturbs no event ordering — the property the default
:class:`~repro.control.controllers.StaticController` relies on for
exact neutrality.

Actuation limits are part of the contract, not an implementation
accident: the batched kernel hoists per-bit energies and service times
once per run, so ``tx_power_offset_db`` changes the *link budget*
(re-derived erasure probability) immediately but its energy premium is
settled in arrears (from the cell at each energy settlement, or into a
batteryless node's ledger at run end).  See
``docs/multi-body-control.md`` for the accepted approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..errors import SimulationError


@dataclass(frozen=True)
class Observation:
    """What one node's controller sees at an evaluation instant.

    ``erased_attempts`` and ``delivered_packets`` are deltas over the
    window since the previous evaluation (zero-length window for a
    threshold crossing).  ``queue_depth`` is the MAC policy's total
    pending backlog — the shared-medium congestion signal, not a
    per-node queue.  ``state_of_charge`` is 1.0 for unconstrained
    (mains/hub-powered) nodes.
    """

    kind: str  # "cadence" or "low_battery"
    time_seconds: float
    window_seconds: float = 0.0
    erased_attempts: int = 0
    delivered_packets: int = 0
    queue_depth: int = 0
    state_of_charge: float = 1.0
    low_battery: bool = False
    tx_stride: int = 1
    low_battery_stride: int = 1
    tx_power_offset_db: float = 0.0

    @property
    def packet_error_rate(self) -> float:
        """Windowed erasure fraction (0.0 when the window saw no traffic)."""
        attempts = self.erased_attempts + self.delivered_packets
        if attempts <= 0:
            return 0.0
        return self.erased_attempts / attempts


@dataclass(frozen=True)
class Action:
    """What a controller asks the runtime to change.

    Every field is optional; ``None`` means "leave it alone".  Setting
    ``tx_power_offset_db`` equal to the currently applied offset is the
    idiom for *re-asserting* it (a posture event may have re-derived the
    node's erasure rate at zero offset; the runtime re-applies the
    boost).
    """

    tx_power_offset_db: float | None = None
    tx_stride: int | None = None

    def __post_init__(self) -> None:
        if self.tx_stride is not None and self.tx_stride < 1:
            raise SimulationError("tx stride must be >= 1")


@runtime_checkable
class Controller(Protocol):
    """One node's closed-loop policy.

    ``cadence_seconds`` is the deterministic evaluation period on the
    cadence stream: ``None`` (no periodic evaluation; the controller
    only sees threshold crossings) or positive and finite.
    ``evaluate`` must be pure apart from the controller's own state:
    all effects flow through the returned :class:`Action`.
    """

    cadence_seconds: float | None

    def evaluate(self, observation: Observation) -> Action | None:
        """Decide on one observation; ``None`` holds every actuator."""
        ...


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative, hashable description of a controller.

    Scenario and environment specs carry this record (they must stay
    hashable for the compile cache), and :meth:`build` instantiates the
    stateful controller at simulator-build time.  ``kind`` selects the
    policy:

    * ``"static"`` — :class:`~repro.control.controllers.StaticController`
      (never acts, schedules nothing; the exactly-neutral default);
    * ``"per_backoff"`` —
      :class:`~repro.control.controllers.PERBackoffController`
      (windowed-PER hysteresis on a tx-power offset);
    * ``"soc_throttle"`` —
      :class:`~repro.control.controllers.SoCThrottleController`
      (the low-battery duty-cycle throttle).
    """

    kind: str = "static"
    cadence_seconds: float = 10.0
    per_threshold: float = 0.2
    per_recover_threshold: float = 0.05
    step_db: float = 2.0
    max_offset_db: float = 6.0
    throttle_stride: int | None = None

    def __post_init__(self) -> None:
        from .controllers import CONTROLLER_KINDS
        if self.kind not in CONTROLLER_KINDS:
            known = ", ".join(sorted(CONTROLLER_KINDS))
            raise SimulationError(
                f"unknown controller kind {self.kind!r} (known: {known})")
        # NaN-safe range checks: a NaN compares false both ways.
        if not 0.0 < self.cadence_seconds < math.inf:
            raise SimulationError(
                "controller cadence must be positive and finite")
        if not 0.0 <= self.per_recover_threshold <= self.per_threshold <= 1.0:
            raise SimulationError(
                "PER thresholds must satisfy 0 <= recover <= trigger <= 1")
        if not 0.0 < self.step_db < math.inf:
            raise SimulationError(
                "tx offset step must be positive and finite")
        if not 0.0 <= self.max_offset_db < math.inf:
            raise SimulationError(
                "tx offset cap must be non-negative and finite")
        if self.throttle_stride is not None and self.throttle_stride < 1:
            raise SimulationError("throttle stride must be >= 1")

    def build(self) -> Controller:
        """Instantiate the stateful controller this spec describes."""
        from .controllers import CONTROLLER_KINDS
        return CONTROLLER_KINDS[self.kind](self)
