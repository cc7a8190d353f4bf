"""Closed-form macro-tick engine for steady-state DES segments.

The batched kernel in :mod:`repro.netsim.simulator` replays millions of
identical periodic generation -> grant -> completion cycles during the
long stationary stretches of multi-hour runs.  This module leaps over
such a stretch in one vectorized step instead: per-node delivered /
erased / retransmitted packet counts come from the truncated-geometric
ARQ process (the same math the cohort analytic path uses), energy lands
in the streaming :class:`~repro.energy.ledger.EnergyLedger` as one
interval post per component, and latency is ingested through the
weighted batch-add API on :class:`~repro.netsim.stats.LatencyAccumulator`.

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
        self.queue = simulator.queue
        self.reliability = simulator.reliability
        self.arq = getattr(simulator.reliability, "arq", None)
        policy = self.policy
        self.fifo = type(policy) is FIFOArbitration
        self.tdma = type(policy) is TDMAArbitration
        self.polling = type(policy) is HubPollingArbitration
        self.eligible = self.fifo or self.tdma or self.polling

        self.rows: list[_Row] = []
        max_period = 0.0
        min_period = math.inf
        max_service = 0.0
        for node in simulator.nodes.values():
            source = node.source
            if type(source) is not PeriodicSource:
                self.eligible = False
                break
            probe = Packet(source=node.name, bits=source.bits_per_packet,
                           created_at=0.0)
            service = self.bus.service_time_seconds(probe)
            self.rows.append(_Row(
                node=node,
                name=node.name,
                period=source.period_seconds,
                bits=float(source.bits_per_packet),
                service=service,
                tx_epb=node.technology.tx_energy_per_bit(),
                rx_epb=node.technology.rx_energy_per_bit(),
            ))
            max_period = max(max_period, source.period_seconds)
            min_period = min(min_period, source.period_seconds)
            max_service = max(max_service, service)
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
        if min_period is math.inf:
            self.flush_seconds = self.settle_seconds
        else:
            self.flush_seconds = max(min_period / 2.0, 8.0 * max_service)
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
        poll_cost = 0.0
        if self.polling:
            if self._poll_cost is None:
                self._poll_cost = self.policy.poll_cost_seconds()
            poll_cost = self._poll_cost
        windows: dict[str, tuple[float, float]] | None = None
        if self.tdma:
            try:
                windows = self.policy._slot_table()
            except SimulationError:
                return None

        active: list[tuple[_Row, float, float, float, float]] = []
        rho = 0.0
        total_rate = 0.0
        for row in self.rows:
            if not row.node.active:
                continue
            per = reliability.error_rate(row.name) if reliability else 0.0
            if arq is not None:
                mean_att = arq.expected_attempts(per)
                if not math.isfinite(mean_att):
                    return None
                max_att = arq.max_attempts
            else:
                mean_att = 1.0
                max_att = 1.0
            if windows is not None and row.name not in windows:
                return None
            rate = 1.0 / row.period
            rho += rate * row.service * mean_att
            if self.polling:
                rho += rate * mean_att * poll_cost
            total_rate += rate
            active.append((row, per, mean_att, max_att, rate))
        if self.tdma and active:
            rho += len(active) * self.guard / self.superframe
        if rho >= VALIDITY_UTILIZATION:
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
        self._leap(start, leap_end, active, rho, total_rate,
                   poll_cost, windows)
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
                    + node.coding_power_watts
                    + node.technology.sleep_power())
            load += traffic.get(row.name, 0.0)
            life = state.projected_life_seconds(load)
            if math.isfinite(life):
                leap_end = min(leap_end, start + BATTERY_MARGIN * life)
            low = state.low_battery_fraction
            if (low is not None and node.tx_stride == 1
                    and not state.is_low_battery()):
                net = (load + state.leakage_power_watts
                       - state.harvest_power_watts)
                if net > 0.0:
                    charge = state.battery.state_of_charge_joules
                    floor = low * state.battery.spec.usable_energy_joules
                    to_low = (charge - floor) / net
                    leap_end = min(leap_end,
                                   start + BATTERY_MARGIN * max(to_low, 0.0))
        return leap_end

    # -- leap execution ----------------------------------------------------

    def _leap(self, start: float, end: float, active: list, rho: float,
              total_rate: float, poll_cost: float,
              windows: dict[str, tuple[float, float]] | None) -> None:
        span = end - start
        sim = self.sim
        stats = self.bus.stats
        reliability = self.reliability
        arq = self.arq

        if total_rate > 0.0:
            mean_service = sum(rate * row.service * mean_att
                               for row, _per, mean_att, _ma, rate in active)
            mean_service /= total_rate
        else:
            mean_service = 0.0
        wait = rho / (2.0 * max(1.0 - rho, 1e-12)) * mean_service

        slot_span = 0.0
        if windows is not None:
            slot_span = sum(windows[row.name][1]
                            for row, *_rest in active)

        # Equal-period peers generate simultaneously and drain in node
        # order, so each node waits behind the cumulative drain of the
        # peers ranked before it.
        batch_wait: dict[str, float] = {}
        drain_cursor: dict[float, float] = {}
        for row, per, mean_att, _max_att, _rate in active:
            eff_service = row.service * mean_att
            drain = eff_service
            if self.polling:
                drain += poll_cost
            elif self.tdma and eff_service > 0.0:
                drain = max(eff_service,
                            self.superframe / max(1.0, slot_span / eff_service))
            batch_wait[row.name] = drain_cursor.get(row.period, 0.0)
            drain_cursor[row.period] = (drain_cursor.get(row.period, 0.0)
                                        + drain)

        lat_values: list[float] = []
        lat_counts: list[int] = []
        hub_rx_energy = 0.0
        hub_ack_energy = 0.0

        for row, per, mean_att, max_att, _rate in active:
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

            if deliverable <= 0:
                delivered = 0
                total_attempts = 0
                attempt_hist: tuple[tuple[int, int], ...] = ()
            elif reliability is None or per <= 0.0:
                delivered = deliverable
                total_attempts = deliverable
                attempt_hist = ((1, deliverable),)
            elif per >= 1.0:
                delivered = 0
                total_attempts = (deliverable * int(max_att)
                                  if arq is not None else deliverable)
                attempt_hist = ()
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
                    if delivered:
                        counts = np.bincount(
                            attempts[mask].astype(np.int64))
                        attempt_hist = tuple(
                            (a, int(c)) for a, c in enumerate(counts) if c)
                    else:
                        attempt_hist = ()

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
            state = node.energy
            if state is None:
                ledger = node.ledger
                if tx_energy:
                    ledger.post_interval("wir_tx", tx_energy, start, end)
                if retx_energy:
                    ledger.post_interval("wir_retx", retx_energy, start, end)
                if ack_energy:
                    ledger.post_interval("arq_ack", ack_energy, start, end)
            else:
                was_alive = state.alive
                if tx_energy:
                    state.drain("wir_tx", tx_energy, end)
                if retx_energy:
                    state.drain("wir_retx", retx_energy, end)
                if ack_energy:
                    state.drain("arq_ack", ack_energy, end)
                if was_alive and not state.alive:
                    sim._record_death(node)

            hub_rx_energy += (delivered + erased) * row.bits * row.rx_epb
            hub_ack_energy += delivered * self.ack_bits * self.hub_tx_epb

            if windows is not None:
                offset = windows[row.name][0]
                cyc = row.period / self.superframe
                if abs(cyc - round(cyc)) < 1e-9:
                    access = offset
                else:
                    access = self.superframe / 2.0
            elif self.polling:
                access = poll_cost * (len(active) / 2.0 + 1.0)
            else:
                access = 0.0
            base_latency = wait + access + batch_wait[row.name]
            for attempt_count, n in attempt_hist:
                lat_values.append(base_latency + attempt_count * row.service)
                lat_counts.append(n)

        if lat_values:
            stats.latency.add_batch(lat_values, lat_counts)
        if not self.ack_posting:
            hub_ack_energy = 0.0
        hub_ledger = sim.hub_ledger
        if hub_rx_energy:
            hub_ledger.post_interval("wir_rx", hub_rx_energy, start, end)
        if hub_ack_energy:
            hub_ledger.post_interval("ack_tx", hub_ack_energy, start, end)

        # Settle static/sleep/harvest energy and threshold checks for
        # every battery node (the leap's stand-in for the per-minute
        # energy ticks it skipped).  Counters were updated first so the
        # sleep/tx time split comes out right.
        for row in self.rows:
            state = row.node.energy
            if state is not None and state.alive:
                sim._settle_energy(row.node, end)
