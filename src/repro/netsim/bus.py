"""The shared body medium: serialising packets from many leaves to the hub.

In the EQS regime the whole body is effectively one electrical node, so
all leaves share one broadcast medium coordinated by the hub.  The model
is split in two layers:

* :class:`Medium` — the physical serialisation resource: one transmission
  at a time, per-node serialisation rates (mixed link technologies on one
  body), a bounded pending buffer and streaming statistics.
* an :class:`~repro.netsim.arbitration.ArbitrationPolicy` — decides *who*
  transmits next and after what access delay (FIFO, TDMA slots, hub
  polling).

The medium holds state only; the simulator's batched kernel
(:meth:`~repro.netsim.simulator.BodyNetworkSimulator._run_kernel`) drives
it, and the macro-tick engine reads it at leap boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

from ..errors import SimulationError
from .arbitration import ArbitrationPolicy, FIFOArbitration, make_policy
from .packet import Packet
from .reliability import LinkReliability
from .stats import LatencyAccumulator


@dataclass
class BusStats:
    """Aggregate statistics collected by the medium.

    Latencies are held in a :class:`LatencyAccumulator`: exact (and
    bit-identical to the historical list-based implementation) up to its
    capacity, streaming with bounded memory beyond it.
    """

    delivered_packets: int = 0
    delivered_bits: float = 0.0
    dropped_packets: int = 0
    busy_seconds: float = 0.0
    #: Transmission attempts corrupted by the lossy link (0 on a
    #: lossless medium).
    erased_attempts: int = 0
    #: Erased attempts the ARQ policy retransmitted.
    retransmissions: int = 0
    #: Packets abandoned after exhausting their retries (or erased with
    #: no ARQ attached).
    lost_packets: int = 0
    latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)

    def utilization(self, horizon_seconds: float) -> float:
        """Fraction of time the medium was busy."""
        if horizon_seconds <= 0:
            raise SimulationError("horizon must be positive")
        return min(self.busy_seconds / horizon_seconds, 1.0)


class Medium:
    """Single shared serialisation resource with pluggable arbitration.

    Parameters
    ----------
    link_rate_bps:
        Default serialisation rate of the medium (used for nodes without
        a per-node rate, and by slot/poll overhead math).
    per_packet_overhead_seconds:
        Guard/turnaround charged per packet (MAC overhead).
    max_queue_packets:
        Packets beyond this bound (summed over all nodes) are dropped
        (models a bounded leaf buffer).
    policy:
        Arbitration policy instance or short name (``"fifo"``, ``"tdma"``,
        ``"polling"``).  Defaults to FIFO.
    latency_exact_capacity:
        Exact-sample capacity of the latency accumulator; beyond it the
        statistics stream with bounded memory.
    reliability:
        Optional :class:`~repro.netsim.reliability.LinkReliability`: each
        completed transmission attempt draws an erasure from the source
        node's seeded generator, and the attached ARQ policy (if any)
        retransmits corrupted attempts and charges an ack per attempt.
        ``None`` keeps the exact historical lossless code path.
    """

    def __init__(self, link_rate_bps: float,
                 per_packet_overhead_seconds: float = 100e-6,
                 max_queue_packets: int = 10_000,
                 policy: ArbitrationPolicy | str | None = None,
                 latency_exact_capacity: int | None = None,
                 reliability: LinkReliability | None = None) -> None:
        if not 0.0 < link_rate_bps < math.inf:
            raise SimulationError("link rate must be positive and finite")
        if not 0.0 <= per_packet_overhead_seconds < math.inf:
            raise SimulationError(
                "per-packet overhead must be non-negative and finite")
        if max_queue_packets <= 0:
            raise SimulationError("queue bound must be positive")
        self.link_rate_bps = link_rate_bps
        self.per_packet_overhead_seconds = per_packet_overhead_seconds
        self.max_queue_packets = max_queue_packets
        if policy is None:
            policy = FIFOArbitration()
        elif isinstance(policy, str):
            policy = make_policy(policy)
        self.policy: ArbitrationPolicy = policy
        # Slot sizing and poll overheads need the medium rate; attach it
        # when the policy exposes the knob and the caller left it unset.
        if getattr(policy, "link_rate_bps", False) is None:
            policy.link_rate_bps = link_rate_bps  # type: ignore[attr-defined]
        if latency_exact_capacity is None:
            self.stats = BusStats()
        else:
            self.stats = BusStats(
                latency=LatencyAccumulator(exact_capacity=latency_exact_capacity))
        self.reliability = reliability
        self._node_rates: dict[str, float] = {}
        self._busy = False
        self._purged_nodes: set[str] = set()
        #: The in-flight medium event a kernel run handed over across its
        #: horizon, as a ``(time, sequence, kind, packet, service)``
        #: tuple: ``kind`` is 0 for a transmission begin, 1 for a
        #: completion.  At most one exists — the medium serialises.
        self._chain: tuple[float, int, int, Packet, float] | None = None

    # -- configuration -----------------------------------------------------

    def register_node(self, name: str, offered_rate_bps: float,
                      link_rate_bps: float | None = None) -> None:
        """Announce a node: offered rate for the policy, optional own rate."""
        if link_rate_bps is not None and not 0.0 < link_rate_bps < math.inf:
            raise SimulationError(
                "per-node link rate must be positive and finite")
        self.policy.register_node(name, offered_rate_bps)
        if link_rate_bps is not None:
            self._node_rates[name] = link_rate_bps

    def purge_node(self, name: str) -> int:
        """Drop one node's queued packets (brownout).  Returns how many
        were discarded.  A transmission already granted or in flight is
        not recalled — it is already on the medium — but a purged node's
        in-flight packet is never retransmitted."""
        self._purged_nodes.add(name)
        return self.policy.purge_node(name)

    # -- service times -----------------------------------------------------

    def service_time_seconds(self, packet: Packet) -> float:
        """Time to serialise one packet including MAC overhead.

        Serialisation runs at the transmitting node's own link rate when
        one was registered (mixed technologies on one body), else at the
        medium's default rate.  When an ARQ policy is attached, every
        attempt additionally occupies the medium for the hub's ack frame
        (serialised at the medium rate) plus the turnaround.
        """
        rate = self._node_rates.get(packet.source, self.link_rate_bps)
        service = packet.bits / rate + self.per_packet_overhead_seconds
        arq = self.reliability.arq if self.reliability is not None else None
        if arq is not None:
            service += (arq.ack_bits / self.link_rate_bps
                        + arq.ack_turnaround_seconds)
        return service
