"""Controller runtime: cadence scheduling, observation, actuation.

One :class:`ControllerRuntime` binds one controller instance to one
simulated node.  It owns everything the controller protocol deliberately
excludes: arming the evaluation ticks on the simulator's *cadence
stream* (a heap the batched kernel merges by ``(time, sequence)`` with
its other streams, so evaluations interleave deterministically with
energy ticks and scenario events), assembling windowed observations
from the node's monotone counters, and applying the returned actions
through the simulator's mid-run actuation surface.

Energy accounting of the tx-power actuator follows the kernel's
settlement discipline: the batched kernel hoists per-bit transmit
energy once per run, so a mid-run boost cannot re-price frames as they
serialise.  Instead the runtime meters the bits serialised under each
offset and settles the premium — ``(10^(offset/10) - 1)`` of the
nominal frame energy — in arrears.  A battery or harvester node pays
it from its cell at every energy settlement (so a boost can brown the
node out); a node without one gets the whole premium posted to its
ledger at run end, through the simulator's pre-account hooks (after
the kernel's ledger write-back, before the power accounting reads the
totals).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable

from .controller import Action, Controller, Observation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..netsim.simulator import BodyNetworkSimulator, SimulatedNode

#: Ledger component the tx-power premium is posted under.
TX_BOOST_COMPONENT = "tx_boost"


class ControllerRuntime:
    """Glue between one controller and one node of a live simulator.

    Parameters
    ----------
    simulator, node:
        The bound simulator and node.
    controller:
        The policy to evaluate.
    error_rate_fn:
        Optional ``offset_db -> per-packet erasure probability`` closure
        for this node (typically a re-derivation of its link budget with
        the boosted transmit level).  Without it — or without a
        reliability model on the simulator — tx-power actions still
        settle their energy premium but cannot move the erasure rate.
    """

    def __init__(self, simulator: "BodyNetworkSimulator",
                 node: "SimulatedNode", controller: Controller,
                 error_rate_fn: Callable[[float], float] | None = None
                 ) -> None:
        self.simulator = simulator
        self.node = node
        self.controller = controller
        self.error_rate_fn = error_rate_fn
        self.offset_db = 0.0
        self.evaluations = 0
        self.actions_applied = 0
        self._last_erased = node.erased_attempts
        self._last_delivered = node.packets_delivered
        self._last_time = simulator.queue.now
        self._premium_joules = 0.0
        #: Premium settled but not yet drained from the node's cell.
        self._premium_owed = 0.0
        #: Evaluation period, fixed when :meth:`schedule` arms the ticks.
        self.cadence_seconds: float | None = None
        self._premium_bits_mark = node.bits_sent + node.retx_bits

    # -- scheduling --------------------------------------------------------

    def schedule(self) -> None:
        """Arm the periodic evaluation on the simulator's cadence stream.

        A ``cadence_seconds = None`` controller (static, SoC throttle)
        schedules nothing — the neutrality contract.  Otherwise the
        first ``(time, sequence, runtime)`` entry goes on the
        simulator's cadence heap one period from now, its sequence
        number claimed from the event queue's counter; the kernel
        evaluates each entry and re-arms it one period later,
        unconditionally — occurrences beyond the run horizon are simply
        never dispatched.
        """
        cadence = self.controller.cadence_seconds
        if cadence is None:
            return
        self.cadence_seconds = cadence
        simulator = self.simulator
        queue = simulator.queue
        heappush(simulator._cadence_heap,
                 (queue.now + cadence, queue.claim_sequence(), self))

    # -- observation -------------------------------------------------------

    def evaluate_cadence(self, now: float) -> None:
        """One periodic evaluation: windowed observation → action."""
        node = self.node
        simulator = self.simulator
        erased = node.erased_attempts
        delivered = node.packets_delivered
        energy = node.energy
        observation = Observation(
            kind="cadence",
            time_seconds=now,
            window_seconds=now - self._last_time,
            erased_attempts=erased - self._last_erased,
            delivered_packets=delivered - self._last_delivered,
            queue_depth=simulator.bus.policy.pending_count(),
            state_of_charge=(energy.state_of_charge_fraction
                            if energy is not None else 1.0),
            low_battery=(energy is not None and energy.is_low_battery()),
            tx_stride=node.tx_stride,
            low_battery_stride=node.low_battery_stride,
            tx_power_offset_db=self.offset_db,
        )
        self._last_erased = erased
        self._last_delivered = delivered
        self._last_time = now
        self.evaluations += 1
        action = self.controller.evaluate(observation)
        if action is not None:
            self.apply(action, now)

    # -- actuation ---------------------------------------------------------

    def apply(self, action: Action, now: float) -> None:
        """Apply one action through the simulator's mid-run surface."""
        node = self.node
        simulator = self.simulator
        self.actions_applied += 1
        if action.tx_stride is not None:
            node.tx_stride = action.tx_stride
        offset = action.tx_power_offset_db
        if offset is None:
            return
        if offset < 0.0:
            offset = 0.0
        if offset != self.offset_db:
            # Settle the premium of the bits serialised at the old
            # offset before the new one starts metering.
            self._settle_premium()
            self.offset_db = offset
        if self.error_rate_fn is not None \
                and simulator.reliability is not None:
            simulator.reliability.set_error_rate(
                node.name, self.error_rate_fn(offset))

    def _settle_premium(self) -> None:
        node = self.node
        serialised = node.bits_sent + node.retx_bits
        delta_bits = serialised - self._premium_bits_mark
        self._premium_bits_mark = serialised
        if delta_bits <= 0.0 or self.offset_db == 0.0:
            return
        factor = 10.0 ** (self.offset_db / 10.0) - 1.0
        premium = factor * delta_bits * node.technology.tx_energy_per_bit()
        self._premium_joules += premium
        self._premium_owed += premium

    def drain_premium(self, now: float) -> None:
        """Drain the premium accrued since the last drain from the cell.

        Called for battery and harvester nodes at every energy
        settlement; the caller records a brownout if this empties the
        cell.
        """
        self._settle_premium()
        owed = self._premium_owed
        if owed > 0.0:
            self._premium_owed = 0.0
            self.node.energy.drain(TX_BOOST_COMPONENT, owed, now)

    def finalize(self, duration_seconds: float) -> None:
        """Run-end settlement (registered as a simulator pre-account hook).

        Settles the premium of the bits serialised since the last
        energy settlement: a battery or harvester node pays it from its
        cell (possibly browning out at the horizon); any other node gets
        the whole run's premium posted to its ledger.
        """
        node = self.node
        energy = node.energy
        if energy is not None:
            self.drain_premium(duration_seconds)
            if energy.death_seconds is not None:
                self.simulator._record_death(node)
            return
        self._settle_premium()
        if self._premium_joules > 0.0:
            node.ledger.post(TX_BOOST_COMPONENT, self._premium_joules,
                             timestamp_seconds=duration_seconds)

    @property
    def tx_boost_energy_joules(self) -> float:
        """Premium settled so far (complete only after :meth:`finalize`)."""
        return self._premium_joules
