"""The exact kernel against textbook queueing results it was never fitted to.

* **Periodic nodes on FIFO: the Lindley recursion.**  A lossless,
  batteryless FIFO body is a single-server queue: the ``n``-th packet
  departs at ``d_n = max(a_n, d_{n-1}) + s_n``, with ``a_n`` its
  generation instant and ``s_n = bits / rate + overhead`` its service
  time.  The body holds two groups of nodes that share a period and one
  node with a period of its own, so packets of one group arrive
  together (in node order) and queue behind each other, while the
  groups' instants never meet.  The recursion runs in numpy over
  arrival times built by the same repeated addition the kernel uses,
  and every latency in the exact window must equal ``d_n - a_n``.
"""

from __future__ import annotations

import numpy as np

from repro.comm.eqs_hbc import wir_commercial
from repro.netsim import BodyNetworkSimulator, PeriodicSource
from repro.netsim.config import NodeConfig

#: ``(name, period in seconds, bits per packet)`` in node order: two
#: sets of equal-period nodes (``a``, three that share one heap entry;
#: ``b``, a pair that does not) and one lone node (``c``).
LINDLEY_NODES = (
    ("a1", 0.0137, 2048.0),
    ("b1", 0.0211, 8192.0),
    ("a2", 0.0137, 4096.0),
    ("c", 0.0307, 4096.0),
    ("a3", 0.0137, 1024.0),
    ("b2", 0.0211, 2048.0),
)
LINDLEY_SECONDS = 20.0


def instants(period: float, horizon: float) -> np.ndarray:
    """A node's generation instants up to *horizon*: ``0 + period``, then
    one addition of *period* at a time (``np.cumsum`` adds in sequence)."""
    count = int(horizon / period) + 2
    times = np.cumsum(np.full(count, period))
    return times[times <= horizon]


def test_periodic_fifo_latencies_follow_lindley():
    simulator = BodyNetworkSimulator(wir_commercial(), rng=0,
                                     arbitration="fifo")
    for name, period, bits in LINDLEY_NODES:
        simulator.attach(NodeConfig(name, PeriodicSource(
            period_seconds=period, bits_per_packet=bits)))
    result = simulator.run(LINDLEY_SECONDS, fast_path="exact")
    assert result.dropped_packets == 0

    group_times = {period: instants(period, LINDLEY_SECONDS)
                   for _, period, _ in LINDLEY_NODES}
    periods = sorted(group_times)
    for i, first in enumerate(periods):
        for second in periods[i + 1:]:
            assert np.intersect1d(group_times[first],
                                  group_times[second]).size == 0

    rate = simulator.bus.link_rate_bps
    overhead = simulator.bus.per_packet_overhead_seconds
    arrivals, orders, services = [], [], []
    for order, (_, period, bits) in enumerate(LINDLEY_NODES):
        times = group_times[period]
        arrivals.append(times)
        orders.append(np.full(times.size, order))
        services.append(np.full(times.size, bits / rate + overhead))
    arrivals = np.concatenate(arrivals)
    orders = np.concatenate(orders)
    services = np.concatenate(services)
    # FIFO serves in arrival order; a shared instant in node order.
    ranked = np.lexsort((orders, arrivals))
    a = arrivals[ranked]
    s = services[ranked]
    departures = np.empty_like(a)
    last = -np.inf
    for n in range(a.size):
        last = max(a[n], last) + s[n]
        departures[n] = last

    window = simulator.bus.stats.latency
    assert window.is_exact
    observed = np.asarray(window._samples)
    delivered = int(np.count_nonzero(departures <= LINDLEY_SECONDS))
    assert observed.size == delivered == result.delivered_packets
    # Packets of one group queue behind each other, so the recursion's
    # max() takes the previous departure for a good share of them.
    assert np.count_nonzero(departures[:delivered][1:] - s[:delivered][1:]
                            > a[:delivered][1:]) > delivered // 4
    np.testing.assert_allclose(observed, (departures - a)[:delivered],
                               rtol=1e-12, atol=0.0)
