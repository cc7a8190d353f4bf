"""Medium-access arbitration policies for the shared body medium.

The discrete-event :class:`~repro.netsim.bus.Medium` owns serialisation
and statistics; *who may transmit next, and after what access delay* is
delegated to an :class:`ArbitrationPolicy`.  Three policies are provided:

* :class:`FIFOArbitration` — a single first-come-first-served queue, the
  default (existing seed configurations reproduce bit-identically).
* :class:`TDMAArbitration` — a fixed superframe with per-node slots sized
  by :class:`repro.comm.mac.TDMASchedule` from each node's offered rate; a
  packet may start only inside its node's slot window.
* :class:`HubPollingArbitration` — the hub polls leaves round-robin with
  :class:`repro.comm.mac.PollingMAC` per-poll overhead; polls of idle
  leaves between the cursor and the next backlogged leaf are charged as
  access delay.

Policies are deterministic (no randomness) and non-preemptive: a grant is
committed when the medium asks for it, even if a better-placed packet
arrives before the granted transmission starts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import Protocol, runtime_checkable

from ..comm.mac import PollingMAC, TDMASchedule
from ..errors import SchedulingError, SimulationError
from .packet import Packet

#: A transmission grant: the packet to serialise next and the access
#: delay (seconds from "medium idle" until its transmission may start).
Grant = tuple[Packet, float]

#: Default MAC timing parameters.  The analytic cohort fast path
#: (:mod:`repro.cohort.analytic`) mirrors the DES policies with these
#: same constants — change them here, never in two places.
DEFAULT_TDMA_SUPERFRAME_SECONDS = 0.010
DEFAULT_TDMA_GUARD_SECONDS = 50e-6
DEFAULT_POLL_OVERHEAD_BITS = 64.0
DEFAULT_POLL_TURNAROUND_SECONDS = 100e-6


@runtime_checkable
class ArbitrationPolicy(Protocol):
    """Decides which pending packet transmits next on a shared medium."""

    name: str

    def register_node(self, node_name: str, offered_rate_bps: float) -> None:
        """Announce a node and its long-run offered rate (slot sizing)."""

    def enqueue(self, packet: Packet) -> None:
        """Accept a packet into the policy's pending state."""

    def next_grant(self, now: float) -> Grant | None:
        """Next transmission grant, or None when nothing is pending."""

    def pending_count(self) -> int:
        """Number of packets waiting for a grant."""

    def purge_node(self, node_name: str) -> int:
        """Drop every pending packet of one node (brownout); returns the
        number of packets discarded."""


class FIFOArbitration:
    """First-come-first-served single queue (the legacy bus behaviour)."""

    name = "fifo"

    def __init__(self) -> None:
        self._pending: deque[Packet] = deque()

    def register_node(self, node_name: str, offered_rate_bps: float) -> None:
        pass  # FIFO needs no per-node state

    def enqueue(self, packet: Packet) -> None:
        self._pending.append(packet)

    def next_grant(self, now: float) -> Grant | None:
        if not self._pending:
            return None
        return self._pending.popleft(), 0.0

    def pending_count(self) -> int:
        return len(self._pending)

    def purge_node(self, node_name: str) -> int:
        kept = deque(packet for packet in self._pending
                     if packet.source != node_name)
        removed = len(self._pending) - len(kept)
        self._pending = kept
        return removed


class TDMAArbitration:
    """Slotted access: each node owns a window of a fixed superframe.

    Slot widths come from :class:`repro.comm.mac.TDMASchedule` (payload
    time proportional to offered rate, plus a guard per slot).  When the
    registered demand exceeds the superframe the slots degrade gracefully
    to rate-proportional shares so a saturated bus still simulates instead
    of raising.  A node with pending traffic is granted the medium at the
    earliest instant inside one of its windows; ties go to the earlier
    window.
    """

    name = "tdma"

    def __init__(self, link_rate_bps: float | None = None,
                 superframe_seconds: float = DEFAULT_TDMA_SUPERFRAME_SECONDS,
                 guard_seconds: float = DEFAULT_TDMA_GUARD_SECONDS) -> None:
        if superframe_seconds <= 0:
            raise SimulationError("superframe must be positive")
        if guard_seconds < 0:
            raise SimulationError("guard time must be non-negative")
        self.link_rate_bps = link_rate_bps
        self.superframe_seconds = superframe_seconds
        self.guard_seconds = guard_seconds
        self._demands: dict[str, float] = {}
        self._queues: dict[str, deque[Packet]] = {}
        self._windows: dict[str, tuple[float, float]] | None = None
        self._pending = 0
        #: Slot ring for the fast grant path: per-window ``(offset,
        #: width, queue)`` sorted by offset, plus the parallel offset
        #: list ``bisect`` searches.  Only valid (``_ring_fast``) when
        #: the windows are disjoint and fit one superframe; degenerate
        #: tables (oversubscription bumping ``minimum_width`` into the
        #: next slot) fall back to the exhaustive scan.
        self._ring: list[tuple[float, float, deque[Packet]]] = []
        self._ring_starts: list[float] = []
        self._ring_fast = False

    def register_node(self, node_name: str, offered_rate_bps: float) -> None:
        if offered_rate_bps < 0:
            raise SimulationError("offered rate must be non-negative")
        self._demands[node_name] = offered_rate_bps
        self._queues.setdefault(node_name, deque())
        self._windows = None  # re-derive the slot table lazily

    def enqueue(self, packet: Packet) -> None:
        if packet.source not in self._queues:
            # Unregistered sources get a zero-rate (guard-only) slot.
            self.register_node(packet.source, 0.0)
        self._queues[packet.source].append(packet)
        self._pending += 1

    def pending_count(self) -> int:
        return self._pending

    def purge_node(self, node_name: str) -> int:
        queue = self._queues.get(node_name)
        if queue is None:
            return 0
        removed = len(queue)
        queue.clear()
        self._pending -= removed
        return removed

    def _slot_table(self) -> dict[str, tuple[float, float]]:
        """Per-node ``(offset, width)`` transmit windows in the superframe."""
        if self._windows is not None:
            return self._windows
        if self.link_rate_bps is None:
            raise SimulationError(
                "TDMA arbitration needs a link rate; attach it to a Medium "
                "or pass link_rate_bps explicitly"
            )
        schedule = TDMASchedule(link_rate_bps=self.link_rate_bps,
                                superframe_seconds=self.superframe_seconds,
                                guard_seconds=self.guard_seconds)
        for name, rate in self._demands.items():
            schedule.add_node(name, rate)
        windows: dict[str, tuple[float, float]] = {}
        minimum_width = self.superframe_seconds / 1000.0
        try:
            assignments = schedule.build()
            offset = 0.0
            for assignment in assignments:
                width = max(assignment.slot_seconds - self.guard_seconds,
                            minimum_width)
                windows[assignment.node_name] = (offset, width)
                offset += assignment.slot_seconds
        except SchedulingError:
            # Oversubscribed: fall back to rate-proportional shares so the
            # saturated regime is still simulable (queues grow, drops
            # happen at the medium's buffer bound — the behaviour the
            # scaling ablation wants to observe).
            total = sum(self._demands.values())
            offset = 0.0
            for name, rate in self._demands.items():
                share = rate / total if total > 0 else 1.0 / len(self._demands)
                width = max(share * self.superframe_seconds, minimum_width)
                windows[name] = (offset, width)
                offset += width
        self._windows = windows
        self._build_ring(windows)
        return windows

    def _build_ring(self, windows: dict[str, tuple[float, float]]) -> None:
        """Derive the sorted slot ring driving the O(log n) grant path."""
        ring = sorted(
            (offset, width, self._queues[name])
            for name, (offset, width) in windows.items()
            if name in self._queues)
        fast = len(ring) == len(self._queues)
        for index, (offset, width, _) in enumerate(ring):
            end = (ring[index + 1][0] if index + 1 < len(ring)
                   else self.superframe_seconds)
            if offset + width > end:
                fast = False  # overlapping or frame-spilling windows
                break
        self._ring = ring
        self._ring_starts = [offset for offset, _, _ in ring]
        self._ring_fast = fast

    def _next_access(self, offset: float, width: float, now: float) -> float:
        """Earliest time >= *now* inside the node's window."""
        superframe = self.superframe_seconds
        frame_start = math.floor(now / superframe) * superframe
        for start in (frame_start + offset,
                      frame_start + superframe + offset):
            if now < start + width:
                return max(now, start)
        return frame_start + 2.0 * superframe + offset

    def next_grant(self, now: float) -> Grant | None:
        if self._pending == 0:
            return None
        windows = self._windows
        if windows is None:
            windows = self._slot_table()
        if self._ring_fast:
            # Slot-ring grant: O(log n) window lookup instead of scanning
            # every backlogged node.  With disjoint windows, walking the
            # ring circularly from the window containing ``now`` visits
            # nodes in non-decreasing next-access order, so the first
            # backlogged node visited is the exhaustive scan's minimum.
            # The access arithmetic mirrors :meth:`_next_access` exactly
            # (inlined: this runs once per granted packet).
            superframe = self.superframe_seconds
            frame_start = math.floor(now / superframe) * superframe
            ring = self._ring
            count = len(ring)
            anchor = bisect_right(self._ring_starts, now - frame_start) - 1
            if anchor >= 0:
                offset, width, queue = ring[anchor]
                if queue and now < frame_start + offset + width:
                    # Inside (or still ahead of the end of) the anchor's
                    # window: it transmits immediately.
                    self._pending -= 1
                    return (queue.popleft(),
                            max(now, frame_start + offset) - now)
            for step in range(1, count + 1):
                offset, width, queue = ring[(anchor + step) % count]
                if queue:
                    start = frame_start + offset
                    if now < start + width:
                        access = now if now > start else start
                    else:
                        start = frame_start + superframe + offset
                        if now < start + width:
                            access = now if now > start else start
                        else:
                            access = frame_start + 2.0 * superframe + offset
                    self._pending -= 1
                    return queue.popleft(), access - now
            raise SimulationError("pending count out of sync with queues")
        best: tuple[float, str] | None = None
        for name, queue in self._queues.items():
            if not queue:
                continue
            offset, width = windows.get(name, (0.0, self.superframe_seconds))
            access = self._next_access(offset, width, now)
            if best is None or access < best[0]:
                best = (access, name)
        assert best is not None
        access, name = best
        self._pending -= 1
        return self._queues[name].popleft(), access - now


class HubPollingArbitration:
    """Hub-driven round-robin polling with per-poll overhead.

    The hub walks the leaf ring; each poll costs
    ``poll_overhead_bits / link_rate + turnaround`` (the
    :class:`repro.comm.mac.PollingMAC` cycle-time math).  Idle leaves
    between the cursor and the next backlogged leaf are still polled, and
    those empty polls are charged as access delay on the granted packet —
    the hallmark cost of polling very bursty populations.
    """

    name = "polling"

    def __init__(self, link_rate_bps: float | None = None,
                 poll_overhead_bits: float = DEFAULT_POLL_OVERHEAD_BITS,
                 turnaround_seconds: float = DEFAULT_POLL_TURNAROUND_SECONDS
                 ) -> None:
        if poll_overhead_bits < 0:
            raise SimulationError("poll overhead must be non-negative")
        if turnaround_seconds < 0:
            raise SimulationError("turnaround must be non-negative")
        self.link_rate_bps = link_rate_bps
        self.poll_overhead_bits = poll_overhead_bits
        self.turnaround_seconds = turnaround_seconds
        self._ring: list[str] = []
        self._queues: dict[str, deque[Packet]] = {}
        self._cursor = 0
        self._pending = 0
        self._poll_cost: float | None = None

    def register_node(self, node_name: str, offered_rate_bps: float) -> None:
        if node_name not in self._queues:
            self._ring.append(node_name)
            self._queues[node_name] = deque()

    def enqueue(self, packet: Packet) -> None:
        if packet.source not in self._queues:
            self.register_node(packet.source, 0.0)
        self._queues[packet.source].append(packet)
        self._pending += 1

    def pending_count(self) -> int:
        return self._pending

    def purge_node(self, node_name: str) -> int:
        queue = self._queues.get(node_name)
        if queue is None:
            return 0
        removed = len(queue)
        queue.clear()
        self._pending -= removed
        return removed

    def poll_cost_seconds(self) -> float:
        """Cost of one poll (downlink overhead + turnaround)."""
        if self.link_rate_bps is None:
            raise SimulationError(
                "polling arbitration needs a link rate; attach it to a "
                "Medium or pass link_rate_bps explicitly"
            )
        # One-node PollingMAC cycle minus the payload burst: the pure
        # per-poll overhead, kept in one place with the closed-form model.
        mac = PollingMAC(link_rate_bps=self.link_rate_bps,
                         poll_overhead_bits=self.poll_overhead_bits,
                         turnaround_seconds=self.turnaround_seconds)
        return mac.cycle_time_seconds(1, 0.0)

    def next_grant(self, now: float) -> Grant | None:
        if self._pending == 0:
            return None
        if self._poll_cost is None:
            # Poll parameters are fixed for the lifetime of a run; compute
            # the per-poll cost once, after the Medium attached its rate.
            self._poll_cost = self.poll_cost_seconds()
        poll_cost = self._poll_cost
        ring_size = len(self._ring)
        for skipped in range(ring_size):
            name = self._ring[(self._cursor + skipped) % ring_size]
            if self._queues[name]:
                self._cursor = (self._cursor + skipped + 1) % ring_size
                self._pending -= 1
                delay = (skipped + 1) * poll_cost
                return self._queues[name].popleft(), delay
        raise SimulationError("pending count out of sync with queues")


#: Registry of policy constructors for string-based selection (CLI,
#: experiment grids, scenario specs).
POLICY_FACTORIES = {
    "fifo": FIFOArbitration,
    "tdma": TDMAArbitration,
    "polling": HubPollingArbitration,
}


def make_policy(name: str, **kwargs: object) -> ArbitrationPolicy:
    """Build an arbitration policy from its short name."""
    try:
        factory = POLICY_FACTORIES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(POLICY_FACTORIES))
        raise SimulationError(
            f"unknown arbitration policy {name!r} (known: {known})"
        ) from None
    return factory(**kwargs)  # type: ignore[arg-type]
