"""Heap traffic of the exact kernel's generation stream.

Three or more plain periodic nodes that share a period float share
one generation-heap entry: at each instant the group's members
dispatch in node order without a heap operation, and the group goes
back on the heap only at its next instant or where another stream's
claim falls between two members' claims.  ``dense_50_leaf`` is one such group of 50
leaves, so its heap pops once per instant, plus once more where the
grant the instant's first packet triggers puts the rest of the group
back on the heap.  One entry per node would pop 50 times an instant.
"""

from __future__ import annotations

import hashlib

import repro.netsim.simulator as simulator_module
from repro.comm.eqs_hbc import wir_commercial
from repro.netsim import BodyNetworkSimulator, PeriodicSource
from repro.netsim.config import NodeConfig
from repro.runner.artifacts import canonical_json
from repro.scenarios import get_scenario

DENSE_SECONDS = 60.0


def test_dense_group_pops_once_per_instant_and_split(monkeypatch):
    simulator = get_scenario("dense_50_leaf").build(
        seed=1, duration_seconds=DENSE_SECONDS)
    (period,) = {node.source.period_seconds
                 for node in simulator.nodes.values()}
    instants = 0
    t = 0.0 + period
    while t <= DENSE_SECONDS:
        instants += 1
        t += period
    assert instants == 58

    pops = 0
    heappop = simulator_module.heappop

    def counted(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    # The kernel binds ``heappop`` from the module when it is entered.
    monkeypatch.setattr(simulator_module, "heappop", counted)
    result = simulator.run(DENSE_SECONDS, fast_path="exact")
    assert result.delivered_packets > 0
    # Each instant is popped once, and split at most once: by the grant
    # its first member's packet triggers on the idle bus.
    assert instants <= pops <= 2 * instants


#: ``result.to_dict()`` plus the counter and the in-flight chain after
#: each of ten kernel entries, on the interleave body below.
INTERLEAVE_GROUP_SHA256 = (
    "dbe6bc8d41cf9e0cf80afca07b9afd15d98a1848e0858f414d9de0a848e70a14")
INTERLEAVE_PERIODS = (1.0, 1.0 + 2.0 ** -44)
INTERLEAVE_SECONDS = 4000.0
#: ``a1`` sleeps between these off-instant times.
INTERLEAVE_NAPS = ((550.5, 1250.5), (3450.5, 3750.5))


def test_group_yields_to_an_interleaved_claim():
    """Node order ``a1``, ``b``, ``a2``, ``a3``: the three ``a`` nodes
    form a group, and ``b``'s period differs by one unit in the last
    place of the clock.  Entered at 800 s or 3600 s, ``b``'s instants
    equal the group's and its setup claim falls between ``a1``'s and
    ``a2``'s, so after ``a1`` the group goes back on the heap (the
    heap-top guard) and ``b`` dispatches before ``a2``, as it would
    with one heap entry per node."""
    simulator = BodyNetworkSimulator(wir_commercial(), rng=1)
    for name, period, bits in (("a1", INTERLEAVE_PERIODS[0], 1024.0),
                               ("b", INTERLEAVE_PERIODS[1], 2048.0),
                               ("a2", INTERLEAVE_PERIODS[0], 4096.0),
                               ("a3", INTERLEAVE_PERIODS[0], 512.0)):
        simulator.attach(NodeConfig(name, PeriodicSource(
            period_seconds=period, bits_per_packet=bits)))

    def toggle(active: bool):
        return lambda: simulator.set_node_active("a1", active)

    for sleep, wake in INTERLEAVE_NAPS:
        simulator.queue.schedule_at(sleep, toggle(False))
        simulator.queue.schedule_at(wake, toggle(True))
    entries = []
    for k in range(1, 11):
        if k < 10:
            simulator._run_kernel(INTERLEAVE_SECONDS * k / 10)
        else:
            result = simulator.run(INTERLEAVE_SECONDS)
        chain = simulator.bus._chain
        if chain is not None:
            time, sequence, kind, packet, _ = chain
            chain = [time, sequence, kind, packet.source, packet.created_at]
        entries.append([simulator.queue._seq, chain])
    observed = {"result": result.to_dict(), "claims": entries}
    blob = canonical_json(observed).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == INTERLEAVE_GROUP_SHA256
