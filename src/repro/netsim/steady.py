"""Steady-state closed forms shared by the two fast paths.

The analytic cohort (:func:`repro.cohort.analytic.evaluate_rows`) and
the macro-tick leap (:class:`repro.netsim.macrotick.MacroTickEngine`)
evaluate one model of a body bus in steady state.  The functions take
leaf rows (a row's *service* is its medium time per offered packet,
ARQ attempts included), grouped into members by ``member_of``.  Every
member total is an ``np.bincount``, which adds rows in order, as
neither ``np.sum`` (pairwise) nor the builtin ``sum`` (compensated from
Python 3.12) does.
"""

from __future__ import annotations

import math

import numpy as np


def per_member(member_of, weights, count: int) -> np.ndarray:
    """Row *weights* summed per member, in row order (floats even for
    no rows, where ``np.bincount`` returns integers)."""
    return np.bincount(member_of, weights=weights,
                       minlength=count).astype(float, copy=False)


def utilization(member_of, count: int, rate, service, attempts, *, nodes,
                tdma, polling, guard: float, superframe: float, poll_cost):
    """Per member, ``(ρ, Σ rate·service)``.  A TDMA member's ρ adds a
    guard slot per node and superframe, a polling member's one poll per
    transmission attempt.  *nodes*, *tdma*, *polling* and *poll_cost*
    are per member."""
    load = per_member(member_of, rate * service, count)
    rho = load.copy()
    rho[tdma] += nodes[tdma] * guard / superframe
    rho[polling] += (per_member(member_of, rate * attempts, count)[polling]
                     * poll_cost[polling])
    return rho, load


def rate_mean(total, total_rate):
    """Per member, the rate-weighted mean ``Σ rate·x / Σ rate`` of a
    *total* ``Σ rate·x``, 0 without traffic (of the service load, the
    mean service S̄)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total_rate > 0.0, total / total_rate, 0.0)


def md1_wait(rho, mean_service):
    """Pollaczek–Khinchine M/D/1 mean wait ``ρ / (2·(1 − ρ)) · S̄``,
    with ``1 − ρ`` floored at 1e-12."""
    return rho / (2.0 * np.maximum(1.0 - rho, 1e-12)) * mean_service


def drain_spacing(service, *, tdma, polling, poll_cost, superframe,
                  slot_span):
    """Per row, the spacing at which a simultaneous burst serialises:
    back to back under FIFO, plus a poll under polling, and under TDMA
    one superframe per ``slot_span / service`` transmissions, where
    *slot_span* sums the slot widths of the row's member."""
    drain = np.where(polling, service + poll_cost, service)
    with np.errstate(divide="ignore", invalid="ignore"):
        frame = superframe / np.maximum(1.0, slot_span / service)
    return np.where(tdma, np.maximum(service, frame), drain)


def phase_locked(period, superframe):
    """Whether a period is a whole number of superframes (within 1e-9),
    so a periodic source always arrives at one slot phase."""
    cycles = period / superframe
    return np.abs(cycles - np.rint(cycles)) < 1e-9


def tdma_access(locked, slot_offset, superframe):
    """Mean TDMA access delay: a phase-locked row waits until its slot,
    a drifting one samples the frame uniformly."""
    return np.where(locked, slot_offset, superframe / 2.0)


def polling_access(poll_cost, nodes):
    """Mean polling access delay: half the ring plus the row's poll."""
    return poll_cost * (nodes / 2.0 + 1.0)


def battery_life(energy, load, leak, harvest):
    """Seconds *energy* lasts under ``(load + leak) − harvest``; ``inf``
    when harvest covers the drain.  Floats in, a float out."""
    net = load + leak - harvest
    if np.ndim(net) == 0:
        return energy / net if net > 0.0 else math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(net > 0.0, energy / net, np.inf)
