"""Discrete-event simulator for the on-body network.

The closed-form budgets in :mod:`repro.core` answer "what is the average
power"; the simulator answers the dynamic questions: what latency does a
leaf node see when many leaves share the body medium, how bursty traffic
interacts with TDMA slots or hub polling, and how the per-node energy
ledger evolves over a simulated day.  The kernel is layered:

* :mod:`repro.netsim.events` — the event queue (a binary heap keyed
  by ``(time, sequence)``).
* :mod:`repro.netsim.stats` — bounded/streaming latency statistics.
* :mod:`repro.netsim.bus` — the :class:`Medium` serialisation resource
  (per-node link rates, bounded buffer, statistics).
* :mod:`repro.netsim.arbitration` — pluggable MAC arbitration policies
  (FIFO, TDMA slots, hub polling) reusing :mod:`repro.comm.mac` math.
* :mod:`repro.netsim.simulator` — nodes, traffic, energy accounting.

It is intentionally small, but it is a real simulator: packets are
individually generated, queued, granted, serialised and delivered.
"""

from .events import Event, EventQueue
from .packet import Packet
from .traffic import PeriodicSource, PoissonSource, TrafficSource
from .stats import LatencyAccumulator
from .reliability import ARQPolicy, LinkReliability
from .arbitration import (
    ArbitrationPolicy,
    FIFOArbitration,
    HubPollingArbitration,
    TDMAArbitration,
    make_policy,
)
from .bus import Medium, BusStats
from .config import NodeConfig
from .simulator import (
    RESULT_SCHEMA_VERSION,
    BodyNetworkSimulator,
    SimulationResult,
    SimulatedNode,
)

__all__ = [
    "NodeConfig",
    "RESULT_SCHEMA_VERSION",
    "Event",
    "EventQueue",
    "Packet",
    "TrafficSource",
    "PeriodicSource",
    "PoissonSource",
    "LatencyAccumulator",
    "ARQPolicy",
    "LinkReliability",
    "ArbitrationPolicy",
    "FIFOArbitration",
    "TDMAArbitration",
    "HubPollingArbitration",
    "make_policy",
    "Medium",
    "BusStats",
    "BodyNetworkSimulator",
    "SimulationResult",
    "SimulatedNode",
]
