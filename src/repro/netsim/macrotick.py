"""Closed-form macro-tick engine for steady-state DES segments.

The batched kernel in :mod:`repro.netsim.simulator` replays millions of
identical periodic generation -> grant -> completion cycles during the
long stationary stretches of multi-hour runs.  This module leaps over
such a stretch in one vectorized step instead: per-node delivered /
erased / retransmitted packet counts come from the truncated-geometric
ARQ process, latencies from the closed forms the cohort analytic path
shares (:mod:`repro.netsim.steady`) through the weighted batch-add API
on :class:`~repro.netsim.stats.LatencyAccumulator`, and energy lands in
each :class:`~repro.energy.ledger.EnergyLedger` as one post per
component per leap.

The engine is a *fast path*, not a new model: the hybrid driver in
``BodyNetworkSimulator._run_hybrid`` alternates exact kernel chunks with
leaps, and the leap refuses whenever the closed forms would not be
trustworthy.  A leap is only attempted when

* every node's traffic source is strictly periodic (no Poisson sources),
* no attached controller evaluates more often than
  ``min_leap_seconds`` (its cadence tick re-arms unconditionally, so
  the next control event is never far enough away for a leap to fit),
* the bus is idle (no in-flight transfer chain, no queued packets),
* all per-node erasure rates yield a finite expected attempt count,
* the offered utilization (including TDMA guard and polling overhead)
  stays below :data:`~repro.netsim.fidelity.VALIDITY_UTILIZATION`, the
  validity region of both fast paths, and
* no battery is projected (with margin :data:`BATTERY_MARGIN`) to die
  or cross its low-battery threshold before the leap ends.

Re-sync contract at the leap boundary: generation counters, per-node
byte/packet counters, bus statistics, ledgers and battery charge are all
advanced to their closed-form values; erasure RNG streams are advanced
by exactly the number of geometric draws the leap consumed (the 256-draw
prefetch buffers are discarded, so the post-leap stream diverges from
the exact kernel's — outcomes stay distributionally identical and are
validated by the fidelity contract); generation phase restarts at the
boundary, and packets that would still be in flight at the boundary are
counted as delivered.  These approximations are why the hybrid path is
held to the :data:`~repro.netsim.fidelity.HYBRID` tolerances rather
than being bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .arbitration import (FIFOArbitration, HubPollingArbitration,
                          TDMAArbitration)
from . import steady
from .fidelity import HYBRID, VALIDITY_UTILIZATION
from .packet import Packet
from .traffic import PeriodicSource

#: Hybrid tolerances under the names perfbench reads.
POWER_REL_TOL = HYBRID["leaf_power_rel_error"]
DELIVERED_ABS_TOL = HYBRID["delivered_fraction_abs_error"]
MEAN_LATENCY_FACTOR = HYBRID["mean_latency_factor"]

#: A leap may cover at most this fraction of a battery's projected time
#: to death / to its low-battery threshold, so threshold crossings are
#: always handled by the exact kernel.
BATTERY_MARGIN = 0.9

#: Lower bound on the exact-settle chunk length (seconds).
MIN_LEAP_FLOOR_SECONDS = 0.25


@dataclass
class _Row:
    """Compiled per-node constants for the leap closed forms."""

    node: object
    name: str
    period: float
    bits: float
    service: float
    tx_epb: float
    rx_epb: float


class MacroTickEngine:
    """Steady-state segment detector + closed-form leap executor.

    Parameters
    ----------
    simulator:
        The :class:`~repro.netsim.simulator.BodyNetworkSimulator` to
        accelerate.  The engine compiles static eligibility once at
        construction (arbiter and source types, service times) and
        re-checks the dynamic conditions (bus idle, PER table, battery
        slope) on every :meth:`try_leap` call.
    """

    def __init__(self, simulator) -> None:
        self.sim = simulator
        self.bus = simulator.bus
        self.policy = simulator.bus.policy
        self.reliability = simulator.reliability
        self.arq = getattr(simulator.reliability, "arq", None)
        policy = self.policy
        self.tdma = type(policy) is TDMAArbitration
        self.polling = type(policy) is HubPollingArbitration
        self.eligible = (type(policy) is FIFOArbitration or self.tdma
                         or self.polling)

        self.rows: list[_Row] = []
        for node in simulator.nodes.values():
            source = node.source
            if type(source) is not PeriodicSource:
                self.eligible = False
                break
            probe = Packet(source=node.name, bits=source.bits_per_packet,
                           created_at=0.0)
            service = self.bus.service_time_seconds(probe)
            self.rows.append(_Row(
                node, node.name, source.period_seconds,
                float(source.bits_per_packet), service,
                node.technology.tx_energy_per_bit(),
                node.technology.rx_energy_per_bit()))
        periods = [row.period for row in self.rows]
        max_period = max(periods, default=0.0)
        min_period = min(periods, default=math.inf)
        max_service = max((row.service for row in self.rows), default=0.0)
        if len(simulator.nodes) >= self.bus.max_queue_packets:
            # The exact kernel would be dropping packets on queue
            # pressure; the closed forms assume no drops.
            self.eligible = False

        arq = self.arq
        self.ack_bits = float(arq.ack_bits) if arq is not None else 0.0
        self.ack_posting = (self.reliability is not None
                            and self.ack_bits != 0.0)
        self.hub_tx_epb = simulator.technology.tx_energy_per_bit()
        if self.tdma:
            self.superframe = policy.superframe_seconds
            self.guard = policy.guard_seconds
        else:
            self.superframe = 0.0
            self.guard = 0.0
        self._poll_cost: float | None = None

        # Exact-settle chunk: long enough that queue transients from the
        # phase reset at a leap boundary wash out before the next leap.
        self.settle_seconds = max(2.0 * max_period, MIN_LEAP_FLOOR_SECONDS)
        self.min_leap_seconds = max(4.0 * max_period, 2.0 * self.settle_seconds)
        for runtime in simulator.controllers.values():
            cadence = runtime.controller.cadence_seconds
            if cadence is not None and cadence < self.min_leap_seconds:
                # Every horizon ends at the next cadence tick, so no
                # leap could ever fit; chunking would only re-draw the
                # generation phase at each chunk boundary.
                self.eligible = False
        # Flush chunk: when a settle chunk happens to end with a packet
        # in flight (its boundary coinciding with a generation instant),
        # this short kernel run lets the transfer complete without
        # burning a full settle chunk.  Shorter than any period, so no
        # new generation lands inside it; long enough for the in-flight
        # packet (and any ARQ retries) to drain.
        self.flush_seconds = (self.settle_seconds if min_period is math.inf
                              else max(min_period / 2.0, 8.0 * max_service))
        # Set by a battery-endgame refusal in ``try_leap``: the driver
        # should run the exact kernel through this instant in one chunk.
        self.exact_until: float | None = None
        # Doubled on every consecutive endgame refusal, reset by a
        # successful leap: each exact chunk's generation-phase reset
        # drains slightly less than the continuous rate, which pushes
        # the projected crossing past the chunk end — without backoff
        # the driver would crawl to the threshold in O(life / settle)
        # chunks instead of O(log) ones.
        self._endgame_backoff = 1.0

    def transient_blocked(self) -> bool:
        """Whether only in-flight bus state is holding up a leap."""
        return (self.bus._chain is not None or self.bus._busy
                or self.policy.pending_count() != 0)

    # -- segment detection -------------------------------------------------

    def try_leap(self, start: float, horizon: float) -> float | None:
        """Attempt one closed-form leap from *start* toward *horizon*.

        Returns the leap end time when a leap was executed (all state
        already re-synced to that instant), or ``None`` when the engine
        refuses — the caller then runs an exact kernel chunk instead.
        """
        self.exact_until = None
        if not self.eligible or self.transient_blocked():
            return None

        reliability = self.reliability
        arq = self.arq
        if self.polling and self._poll_cost is None:
            self._poll_cost = self.policy.poll_cost_seconds()
        poll_cost = self._poll_cost or 0.0
        windows: dict[str, tuple[float, float]] | None = None
        if self.tdma:
            try:
                windows = self.policy._slot_table()
            except SimulationError:
                return None

        active: list[tuple[_Row, float, float, float, float]] = []
        for row in self.rows:
            if not row.node.active:
                continue
            per = reliability.error_rate(row.name) if reliability else 0.0
            mean_att = arq.expected_attempts(per) if arq is not None else 1.0
            if not math.isfinite(mean_att):
                return None
            max_att = arq.max_attempts if arq is not None else 1.0
            if windows is not None and row.name not in windows:
                return None
            active.append((row, per, mean_att, max_att, 1.0 / row.period))
        rate = np.array([entry[4] for entry in active])
        attempts = np.array([entry[2] for entry in active])
        service = attempts * np.array([entry[0].service for entry in active])
        member_of = np.zeros(len(active), dtype=np.int64)
        rho, load = steady.utilization(
            member_of, 1, rate, service, attempts,
            nodes=np.array([float(len(active))]),
            tdma=np.array([self.tdma]), polling=np.array([self.polling]),
            guard=self.guard,
            superframe=self.superframe, poll_cost=np.array([poll_cost]))
        if rho[0] >= VALIDITY_UTILIZATION:
            return None

        leap_end = self._clamp_batteries(start, horizon, active)
        if leap_end - start < self.min_leap_seconds:
            if leap_end < horizon:
                # A battery endgame, not a crowded horizon: some cell is
                # within ``min_leap_seconds`` of a threshold.  Repeated
                # settle chunks would crawl to the crossing while each
                # chunk's generation-phase reset under-drains the cell
                # and pushes the projection further out (a Zeno loop).
                # Instead, tell the driver to run ONE exact chunk
                # through the projected crossing; past it the node is
                # dead (or re-strided) and leaping resumes.
                span = ((leap_end - start) / BATTERY_MARGIN
                        + self.settle_seconds)
                self.exact_until = start + span * self._endgame_backoff
                self._endgame_backoff *= 2.0
            return None
        self._endgame_backoff = 1.0

        # Latency before the attempts: the queueing wait, the access
        # delay and, since equal-period peers generate simultaneously
        # and drain in node order, the drain of the peers ranked before
        # the node.
        wait = steady.md1_wait(
            rho, steady.rate_mean(load, steady.per_member(member_of, rate, 1)))
        slot_span, access = 0.0, 0.0
        if windows is not None:
            offset, width = np.array(
                [windows[entry[0].name] for entry in active]).reshape(-1, 2).T
            slot_span = steady.per_member(member_of, width, 1)[0]
            period = np.array([entry[0].period for entry in active])
            access = steady.tdma_access(
                steady.phase_locked(period, self.superframe), offset,
                self.superframe)
        elif self.polling:
            access = steady.polling_access(poll_cost, len(active))
        drain = steady.drain_spacing(
            service, tdma=self.tdma, polling=self.polling,
            poll_cost=poll_cost, superframe=self.superframe,
            slot_span=slot_span)
        cursor: dict[float, float] = {}
        queued = []
        for (row, *_rest), spacing in zip(active, drain.tolist()):
            queued.append(cursor.get(row.period, 0.0))
            cursor[row.period] = queued[-1] + spacing
        self._leap(start, leap_end, active,
                   (wait + access + np.array(queued)).tolist())
        return leap_end

    def _clamp_batteries(self, start: float, horizon: float,
                         active: list) -> float:
        """Shrink the leap so no battery crosses a threshold inside it.

        Inactive nodes still drain static power and can brown out while
        sleeping, so every alive battery is projected — but only active
        nodes carry traffic load.
        """
        traffic: dict[str, float] = {}
        for row, per, mean_att, _max_att, rate in active:
            load = rate * mean_att * row.bits * row.tx_epb
            if self.ack_posting:
                load += (rate * self.arq.delivery_probability(per)
                         * self.ack_bits * row.rx_epb)
            traffic[row.name] = load
        leap_end = horizon
        for row in self.rows:
            node = row.node
            state = node.energy
            if state is None or not state.alive or state.battery is None:
                continue
            load = (node.sensing_power_watts + node.isa_power_watts
                    + node.coding_power_watts + node.technology.sleep_power())
            load += traffic.get(row.name, 0.0)
            leap_end = min(leap_end, start + BATTERY_MARGIN
                           * state.projected_life_seconds(load))
            low = state.low_battery_fraction
            if (low is not None and node.tx_stride == 1
                    and not state.is_low_battery()):
                charge = state.battery.state_of_charge_joules
                floor = low * state.battery.spec.usable_energy_joules
                to_low = steady.battery_life(
                    charge - floor, load, state.leakage_power_watts,
                    state.harvest_power_watts)
                leap_end = min(leap_end,
                               start + BATTERY_MARGIN * max(to_low, 0.0))
        return leap_end

    # -- leap execution ----------------------------------------------------

    def _leap(self, start: float, end: float, active: list,
              lead_latency: list[float]) -> None:
        span = end - start
        sim = self.sim
        stats = self.bus.stats
        reliability = self.reliability
        arq = self.arq
        lat_values: list[float] = []
        lat_counts: list[int] = []
        hub_rx_energy = 0.0
        hub_ack_energy = 0.0

        for (row, per, _mean_att, max_att, _rate), lead in zip(
                active, lead_latency):
            node = row.node
            cycles = int(math.floor(span / row.period * (1.0 + 1e-12)))
            base = node.generated_count
            node.generated_count = base + cycles
            if cycles <= 0:
                continue
            stride = node.tx_stride
            offered = ((base + cycles - 1) // stride) - ((base - 1) // stride)
            if offered <= 0:
                continue
            # A generation landing exactly on the leap end is submitted
            # (counted sent, like the exact kernel does) but cannot be
            # served before the boundary: it contends for nothing and
            # delivers nothing within this segment.
            boundary = (abs(span - cycles * row.period)
                        <= 1e-9 * max(span, 1.0))
            undeliverable = (1 if boundary
                             and (base + cycles - 1) % stride == 0 else 0)
            deliverable = offered - undeliverable

            delivered = total_attempts = 0
            attempt_hist: tuple[tuple[int, int], ...] = ()
            if deliverable <= 0:
                pass
            elif reliability is None or per <= 0.0:
                delivered = total_attempts = deliverable
                attempt_hist = ((1, deliverable),)
            elif per >= 1.0:
                total_attempts = deliverable * int(max_att)
            else:
                draws = reliability.rng_for(row.name).geometric(
                    1.0 - per, size=deliverable)
                reliability._draws.pop(row.name, None)
                if arq is None:
                    delivered = int(np.count_nonzero(draws == 1))
                    total_attempts = deliverable
                    attempt_hist = ((1, delivered),) if delivered else ()
                else:
                    attempts = np.minimum(draws, max_att)
                    total_attempts = int(attempts.sum())
                    mask = draws <= max_att
                    delivered = int(np.count_nonzero(mask))
                    counts = np.bincount(attempts[mask].astype(np.int64))
                    attempt_hist = tuple(
                        (a, int(c)) for a, c in enumerate(counts) if c)

            erased = total_attempts - delivered
            lost = deliverable - delivered

            node.packets_sent += offered
            node.bits_sent += offered * row.bits
            node.packets_delivered += delivered
            node.retx_bits += (erased - lost) * row.bits
            node.lost_bits += lost * row.bits
            stats.delivered_packets += delivered
            stats.delivered_bits += delivered * row.bits
            stats.busy_seconds += total_attempts * row.service
            stats.erased_attempts += erased
            stats.retransmissions += erased - lost
            stats.lost_packets += lost

            tx_energy = delivered * row.bits * row.tx_epb
            retx_energy = erased * row.bits * row.tx_epb
            ack_energy = (delivered * self.ack_bits * row.rx_epb
                          if self.ack_posting else 0.0)
            posts = [(component, energy) for component, energy in (
                ("wir_tx", tx_energy), ("wir_retx", retx_energy),
                ("arq_ack", ack_energy)) if energy]
            state = node.energy
            if state is None:
                for component, energy in posts:
                    node.ledger.post(component, energy)
            else:
                was_alive = state.alive
                for component, energy in posts:
                    state.drain(component, energy, end)
                if was_alive and not state.alive:
                    sim._record_death(node)

            hub_rx_energy += (delivered + erased) * row.bits * row.rx_epb
            hub_ack_energy += delivered * self.ack_bits * self.hub_tx_epb

            for attempt_count, n in attempt_hist:
                lat_values.append(lead + attempt_count * row.service)
                lat_counts.append(n)

        if lat_values:
            stats.latency.add_batch(lat_values, lat_counts)
        hub_ledger = sim.hub_ledger
        if hub_rx_energy:
            hub_ledger.post("wir_rx", hub_rx_energy)
        if hub_ack_energy:
            hub_ledger.post("ack_tx", hub_ack_energy)

        # Settle static/sleep/harvest energy and threshold checks for
        # every battery node (the leap's stand-in for the per-minute
        # energy ticks it skipped).  Counters were updated first so the
        # sleep/tx time split comes out right.
        for row in self.rows:
            state = row.node.energy
            if state is not None and state.alive:
                sim._settle_energy(row.node, end)
