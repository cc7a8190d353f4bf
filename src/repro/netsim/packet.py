"""Packets exchanged on the body network."""

from __future__ import annotations

from ..errors import SimulationError


class Packet:
    """One data unit travelling from a leaf node to the hub.

    A plain ``__slots__`` class rather than a dataclass: the simulator
    kernel creates one per generated packet, and on the dense hot path
    the dataclass machinery measurably dominated creation cost.  It
    holds only what the kernel reads: the source, the size, the creation
    time (a delivery's latency is the completion time minus it) and the
    attempt count.
    """

    __slots__ = ("source", "bits", "created_at", "attempts", "_service",
                 "_node")

    def __init__(self, source: str, bits: float, created_at: float) -> None:
        if bits < 0:
            raise SimulationError("packet size must be non-negative")
        if created_at < 0:
            raise SimulationError("creation time must be non-negative")
        self.source = source
        self.bits = bits
        self.created_at = created_at
        #: Completed transmission attempts.  Only counted on a medium with
        #: a reliability model attached; the lossless path never touches
        #: it, so there it stays 0.
        self.attempts = 0
        #: Serialisation time pre-resolved by the simulator kernel for
        #: fixed-size sources; ``None`` means the medium computes it.
        self._service: float | None = None
        #: Source node's index in the kernel's per-node tables, set by the
        #: kernel on every packet it generates; ``None`` on a probe.
        self._node: int | None = None

    def __repr__(self) -> str:
        return (f"Packet(source={self.source!r}, bits={self.bits!r}, "
                f"created_at={self.created_at!r})")
