"""The slotted arbiters' grants and backlog masks against reference walks.

:class:`HubPollingArbitration` finds the next backlogged ring slot as the
lowest set bit of its ``_backlog`` mask.  :meth:`TDMAArbitration.next_grant`
is the exhaustive earliest-access scan; the simulator kernel's inline
TDMA grant instead reads the mask over the sorted slot ring, so here the
scan is held to a slot-by-slot ring walk, the order the kernel's grant
follows (``tests/netsim/test_inline_paths.py`` checks the kernel itself
against the scan).  Random register / enqueue / purge / grant sequences
drive each arbiter next to a model that keeps its own per-node FIFOs.
Every grant must be the same packet with the same access delay, and
after every operation bit k of ``_backlog`` must equal ``bool(queue k)``
for ring position k: the TDMA mask is kept for the kernel.  Up to 80
nodes make the mask wider than 64 bits; a late ``register`` on TDMA
invalidates the slot table, so the next grant rebuilds the ring.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.arbitration import HubPollingArbitration, TDMAArbitration
from repro.netsim.packet import Packet

LINK_RATE_BPS = 1e6

#: Mostly a few low slots, so enqueues, purges and grants meet on the
#: same queues, and sometimes any of 80, past bit 64.
NAMES = st.one_of(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=79)).map(
                      lambda k: f"n{k}")
#: ``(kind, node, value)``: the value is the grant time, or for a
#: register the offered rate in units of 2 Mb/s (up to 200 kb/s).
OPERATIONS = st.lists(st.tuples(
    st.sampled_from(("enqueue",) * 3 + ("grant",) * 3
                    + ("purge", "register")),
    NAMES,
    st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
), min_size=20, max_size=40)
INITIAL_RATES = st.lists(st.floats(min_value=0.0, max_value=2e4,
                                   allow_nan=False), max_size=75)


def tdma_reference(policy: TDMAArbitration, queues: dict[str, deque],
                   now: float) -> tuple[str, float]:
    """The slot-by-slot ring walk over the policy's windows, or the
    exhaustive earliest-access scan when the windows are not disjoint."""
    windows = policy._windows
    superframe = policy.superframe_seconds
    frame_start = math.floor(now / superframe) * superframe

    def access(offset: float, width: float) -> float:
        for start in (frame_start + offset,
                      frame_start + superframe + offset):
            if now < start + width:
                return max(now, start)
        return frame_start + 2.0 * superframe + offset

    order = sorted(windows, key=windows.__getitem__)
    ends = [windows[name][0] for name in order[1:]] + [superframe]
    if all(windows[name][0] + windows[name][1] <= end
           for name, end in zip(order, ends)):
        anchor = bisect_right([windows[name][0] for name in order],
                              now - frame_start) - 1
        if anchor >= 0:
            offset, width = windows[order[anchor]]
            if queues[order[anchor]] and \
                    now < frame_start + offset + width:
                return order[anchor], max(now, frame_start + offset) - now
        for step in range(1, len(order) + 1):
            name = order[(anchor + step) % len(order)]
            if queues[name]:
                return name, access(*windows[name]) - now
        raise AssertionError("no backlogged slot")
    best = None
    for name, queue in queues.items():
        if queue:
            candidate = access(*windows[name])
            if best is None or candidate < best[0]:
                best = (candidate, name)
    return best[1], best[0] - now


def ring_queues(policy) -> list[deque]:
    if isinstance(policy, TDMAArbitration):
        return [queue for _, _, queue in policy._ring]
    return [policy._queues[name] for name in policy._ring]


def assert_mask_matches(policy) -> None:
    queues = ring_queues(policy)
    for k, queue in enumerate(queues):
        assert (policy._backlog >> k) & 1 == bool(queue)
    assert policy._backlog >> len(queues) == 0


def drive(policy, initial_rates: list[float], operations) -> None:
    """Run *operations* on *policy* and on the reference side by side."""
    queues: dict[str, deque] = {}
    cursor = 0
    ring: list[str] = []

    def register(name: str, rate: float) -> None:
        policy.register_node(name, rate)
        if name not in queues:
            queues[name] = deque()
            ring.append(name)

    for k, rate in enumerate(initial_rates):
        register(f"n{k}", rate)
    assert_mask_matches(policy)
    for kind, name, value in operations:
        if kind == "register":
            register(name, value * 2e6)
        elif kind == "enqueue":
            packet = Packet(name, 1024.0, value)
            if name not in queues:
                queues[name] = deque()
                ring.append(name)
            queues[name].append(packet)
            policy.enqueue(packet)
        elif kind == "purge":
            removed = len(queues[name]) if name in queues else 0
            if name in queues:
                queues[name].clear()
            assert policy.purge_node(name) == removed
        else:
            grant = policy.next_grant(value)
            if not any(queues.values()):
                assert grant is None
            else:
                if isinstance(policy, TDMAArbitration):
                    source, delay = tdma_reference(policy, queues, value)
                else:
                    for skipped in range(len(ring)):
                        source = ring[(cursor + skipped) % len(ring)]
                        if queues[source]:
                            break
                    cursor = (cursor + skipped + 1) % len(ring)
                    delay = (skipped + 1) * policy.poll_cost_seconds()
                assert grant[0] is queues[source].popleft()
                assert grant[1] == delay
        assert policy.pending_count() == sum(map(len, queues.values()))
        assert_mask_matches(policy)


@settings(max_examples=40, deadline=None)
@given(initial_rates=INITIAL_RATES, operations=OPERATIONS)
def test_tdma_grants_match_ring_walk(initial_rates, operations):
    """The exhaustive scan grants what the ring walk grants."""
    drive(TDMAArbitration(link_rate_bps=LINK_RATE_BPS), initial_rates,
          operations)


@settings(max_examples=40, deadline=None)
@given(initial_rates=INITIAL_RATES, operations=OPERATIONS)
def test_polling_grants_match_ring_walk(initial_rates, operations):
    drive(HubPollingArbitration(link_rate_bps=LINK_RATE_BPS), initial_rates,
          operations)


def test_wide_tdma_mask_grants_past_bit_64():
    """70 slots, two backlogged: the scan grants the window that comes
    next, at ring bits above 64 and across the frame wrap, and clears
    both mask bits."""
    policy = TDMAArbitration(link_rate_bps=LINK_RATE_BPS)
    names = [f"n{k}" for k in range(70)]
    for name in names:
        policy.register_node(name, 1e4)
    policy.enqueue(Packet(names[3], 1024.0, 0.0))
    policy.enqueue(Packet(names[68], 1024.0, 0.0))
    policy._slot_table()
    assert policy._ring_fast
    last_start = policy._ring_starts[-1]
    packet, _ = policy.next_grant(policy._ring_starts[66])
    assert packet.source == names[68]
    packet, delay = policy.next_grant(last_start)
    assert packet.source == names[3]
    assert delay > 0.0
    assert policy._backlog == 0
