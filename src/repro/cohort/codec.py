"""Versioned binary columnar codec for cohort shard frames.

Shard workers used to ship pickled ``CohortAccumulator`` objects between
processes and the CLI keyed everything as verbose JSON — fine at 10^4
members, dominant at 10^6.  This module defines the *shard frame*: a
self-delimiting, ``SHARD_CODEC_VERSION``-stamped binary envelope that
carries one shard's entire outcome through a tight channel, the same
discipline the paper's DAC line of work applies to short correlated
blocks.

Frame layout (all integers little-endian)::

    offset 0   magic  b"RSHD"
           4   u8     codec version (SHARD_CODEC_VERSION)
           5   u8     compression (0 none, 1 zlib, 2 zstd)
           6   u16    reserved (zero)
           8   u64    frame length in bytes, header included
          16   u64    footer offset from frame start
          24   u32    CRC-32 of everything after the header
          28   sections …        (each independently compressed)
          footer offset: footer  (compressed like the sections)

The **footer** is the shard's summary: member range, integer counters,
policy/source mixes, per-metric ``count/min/max/sum``, and the section
table (name → offset/stored/raw bytes).  ``read_summary`` parses header
plus footer only — *index-free skipping* — so ``repro cohort summarize``
answers overview queries without ever touching member columns.

Sections:

``aggregates``
    The faithful state of every member metric plus the packet-latency
    distribution: while an accumulator is still exact, its window of raw
    doubles as one float column (written from and read into an
    ``array("d")``, no Python float per sample); quantile-sketch levels
    after the spill.  Decoding and
    merging these is bit-identical to merging the in-memory
    accumulators.
``validations``
    Columnar analytic-vs-DES validation records (delta+zigzag varint
    index column, dictionary-coded strings, raw ``float64`` columns).
``members`` (present only when the accumulator kept members)
    Columnar raw :class:`MemberMetrics` rows: delta+zigzag varint
    integer columns, dictionary-coded string columns, raw ``float64``
    metric columns.

Integer columns use unsigned LEB128 varints with zigzag delta coding;
float columns are a varint count and one run of little-endian IEEE-754
binary64 (byteswapped on a big-endian host), so every value — zeros,
denormals, infinities, NaN payloads — round-trips bit-exactly.  zlib (stdlib) is the
default outer compression; zstd needs the optional ``zstandard``
package (``pip install zstandard``) and degrades to a clear error when
it is absent.
"""

from __future__ import annotations

import io
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..errors import CodecError, SimulationError
from ..netsim.stats import LatencyAccumulator
from .aggregate import (
    MEMBER_METRIC_FIELDS,
    CohortAccumulator,
    MemberMetrics,
    ValidationRecord,
)

#: Bump when the frame layout changes incompatibly.  Version 1 frames
#: carried fixed ``backend``/``bins`` accumulator fields and sketch levels
#: of the per-value compaction schedule; they are refused.
SHARD_CODEC_VERSION = 2

#: Frame magic: *R*epro *SH*ar*D*.
MAGIC = b"RSHD"

_HEADER = struct.Struct("<4sBBHQQI")
HEADER_BYTES = _HEADER.size

#: Wire ids of the supported outer compressions.
_COMPRESSION_IDS = {"none": 0, "zlib": 1, "zstd": 2}
_COMPRESSION_NAMES = {value: key for key, value in _COMPRESSION_IDS.items()}

DEFAULT_COMPRESSION = "zlib"

#: ``MemberMetrics`` float columns, in wire order.
_MEMBER_FLOAT_FIELDS = (
    "duration_seconds",
    "delivered_fraction",
    "mean_latency_seconds",
    "p99_latency_seconds",
    "bus_utilization",
    "leaf_power_watts",
    "hub_power_watts",
    "leaf_energy_joules",
    "hub_energy_joules",
    "alive_fraction",
    "first_death_seconds",
)

#: ``ValidationRecord`` float columns, in wire order.
_VALIDATION_FLOAT_FIELDS = (
    "analytic_leaf_power_watts",
    "des_leaf_power_watts",
    "analytic_delivered_fraction",
    "des_delivered_fraction",
    "analytic_mean_latency_seconds",
    "des_mean_latency_seconds",
    "analytic_alive_fraction",
    "des_alive_fraction",
)

#: Accumulator mode ids.  Id 1 carried the retired log-spaced histogram
#: and is refused on read; it stays unassigned.
_ACCUMULATOR_MODES = {"exact": 0, "sketch": 2}
_ACCUMULATOR_MODE_NAMES = {value: key
                           for key, value in _ACCUMULATOR_MODES.items()}

#: Whether this host's doubles need a byteswap to or from the wire.
_BIG_ENDIAN_HOST = sys.byteorder == "big"


def _zstd_module():
    try:
        import zstandard
    except ImportError:
        raise CodecError(
            "zstd compression requires the optional 'zstandard' package "
            "(pip install zstandard); use compression='zlib' otherwise"
        ) from None
    return zstandard


def _compress(payload: bytes, compression: str) -> bytes:
    if compression == "none":
        return payload
    if compression == "zlib":
        return zlib.compress(payload, 6)
    if compression == "zstd":
        return _zstd_module().ZstdCompressor().compress(payload)
    raise CodecError(
        f"unknown compression {compression!r} "
        f"(known: {', '.join(_COMPRESSION_IDS)})")


def _decompress(stored: bytes, compression: str, raw_length: int) -> bytes:
    if compression == "none":
        payload = bytes(stored)
    elif compression == "zlib":
        try:
            payload = zlib.decompress(stored)
        except zlib.error as error:
            raise CodecError(f"corrupt zlib section: {error}") from error
    elif compression == "zstd":
        payload = _zstd_module().ZstdDecompressor().decompress(
            bytes(stored), max_output_size=max(raw_length, 1))
    else:  # pragma: no cover — ids are validated at parse time
        raise CodecError(f"unknown compression {compression!r}")
    if len(payload) != raw_length:
        raise CodecError(
            f"section decompressed to {len(payload)} bytes, "
            f"expected {raw_length}")
    return payload


# -- primitive writers/readers ---------------------------------------------


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


class _Writer:
    """Append-only binary writer for one section payload."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = io.BytesIO()

    def varint(self, value: int) -> None:
        if value < 0:
            raise CodecError(f"varint value must be non-negative: {value}")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            out.append(byte | (0x80 if value else 0))
            if not value:
                break
        self._buffer.write(bytes(out))

    def signed(self, value: int) -> None:
        self.varint(_zigzag(value))

    def f64(self, value: float) -> None:
        self._buffer.write(struct.pack("<d", value))

    def f64_column(self, values: Sequence[float]) -> None:
        """A varint count, then *values* as one run of little-endian
        doubles (an ``array("d")`` is written from its buffer as is;
        byteswapped on a big-endian host)."""
        self.varint(len(values))
        if _BIG_ENDIAN_HOST or not isinstance(values, array):
            values = array("d", values)
        if _BIG_ENDIAN_HOST:
            values.byteswap()
        self._buffer.write(values)

    def delta_column(self, values: Sequence[int]) -> None:
        """Zigzag-delta varint integer column."""
        self.varint(len(values))
        previous = 0
        for value in values:
            self.signed(value - previous)
            previous = value

    def string(self, value: str) -> None:
        encoded = value.encode("utf-8")
        self.varint(len(encoded))
        self._buffer.write(encoded)

    def string_column(self, values: Sequence[str]) -> None:
        """Dictionary-coded string column."""
        table: dict[str, int] = {}
        for value in values:
            table.setdefault(value, len(table))
        self.varint(len(table))
        for value in table:  # insertion order == id order
            self.string(value)
        self.varint(len(values))
        for value in values:
            self.varint(table[value])

    def string_int_map(self, mapping: Mapping[str, int]) -> None:
        self.varint(len(mapping))
        for key in sorted(mapping):
            self.string(key)
            self.varint(mapping[key])

    def getvalue(self) -> bytes:
        return self._buffer.getvalue()


class _Reader:
    """Sequential binary reader matching :class:`_Writer`."""

    __slots__ = ("_view", "_offset")

    def __init__(self, payload: bytes) -> None:
        self._view = memoryview(payload)
        self._offset = 0

    def _take(self, length: int) -> memoryview:
        end = self._offset + length
        if end > len(self._view):
            raise CodecError("truncated shard frame section")
        chunk = self._view[self._offset:end]
        self._offset = end
        return chunk

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self._take(1)[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise CodecError("varint overflow in shard frame")

    def signed(self) -> int:
        return _unzigzag(self.varint())

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def f64_column(self) -> array:
        """An :meth:`_Writer.f64_column` read as raw doubles in one run."""
        length = self.varint()
        values = array("d")
        values.frombytes(self._take(8 * length))
        if _BIG_ENDIAN_HOST:
            values.byteswap()
        return values

    def delta_column(self) -> list[int]:
        length = self.varint()
        values = []
        previous = 0
        for _ in range(length):
            previous += self.signed()
            values.append(previous)
        return values

    def string(self) -> str:
        length = self.varint()
        return bytes(self._take(length)).decode("utf-8")

    def string_column(self) -> list[str]:
        table = [self.string() for _ in range(self.varint())]
        length = self.varint()
        out = []
        for _ in range(length):
            index = self.varint()
            if index >= len(table):
                raise CodecError("string column index outside dictionary")
            out.append(table[index])
        return out

    def string_int_map(self) -> dict[str, int]:
        return {self.string(): self.varint() for _ in range(self.varint())}


# -- accumulator state <-> bytes -------------------------------------------


def _write_accumulator(writer: _Writer,
                       accumulator: LatencyAccumulator) -> None:
    state = accumulator._raw_state()
    mode = str(state["mode"])
    writer.varint(_ACCUMULATOR_MODES[mode])
    writer.varint(int(state["exact_capacity"]))
    writer.varint(int(state["count"]))
    writer.f64(float(state["min"]))
    writer.f64(float(state["max"]))
    if mode == "exact":
        writer.f64_column(state["samples"])
        return
    writer.f64(float(state["total"]))
    sketch = state["sketch"]
    writer.varint(int(sketch["k"]))
    writer.varint(int(sketch["count"]))
    writer.f64(float(sketch["min"]))
    writer.f64(float(sketch["max"]))
    levels = sketch["levels"]
    flips = sketch["flips"]
    writer.varint(len(levels))
    for level_values, flip in zip(levels, flips):
        writer.varint(1 if flip else 0)
        writer.f64_column(level_values)


def _read_accumulator(reader: _Reader) -> LatencyAccumulator:
    mode_id = reader.varint()
    if mode_id not in _ACCUMULATOR_MODE_NAMES:
        raise CodecError(f"unknown accumulator mode id {mode_id}")
    mode = _ACCUMULATOR_MODE_NAMES[mode_id]
    state: dict[str, object] = {
        "mode": mode,
        "exact_capacity": reader.varint(),
        "count": reader.varint(),
        "min": reader.f64(),
        "max": reader.f64(),
    }
    if mode == "exact":
        state["samples"] = reader.f64_column()
        return _accumulator_from_state(state)
    state["total"] = reader.f64()
    sketch: dict[str, object] = {
        "k": reader.varint(),
        "count": reader.varint(),
        "min": reader.f64(),
        "max": reader.f64(),
    }
    levels: list[array] = []
    flips: list[bool] = []
    for _ in range(reader.varint()):
        flips.append(bool(reader.varint()))
        levels.append(reader.f64_column())
    sketch["levels"] = levels
    sketch["flips"] = flips
    state["sketch"] = sketch
    return _accumulator_from_state(state)


def _accumulator_from_state(state: Mapping[str, object]) -> LatencyAccumulator:
    """:meth:`LatencyAccumulator.from_state`, its refusal of an
    inconsistent state (say, an overfull sketch buffer) as a
    :class:`CodecError`."""
    try:
        return LatencyAccumulator.from_state(state)
    except SimulationError as error:
        raise CodecError(f"invalid accumulator state: {error}") from error


# -- frame containers ------------------------------------------------------


@dataclass(frozen=True)
class ShardFrame:
    """One shard's decoded outcome: aggregates, never raw results."""

    shard_index: int
    start: int
    stop: int
    accumulator: CohortAccumulator
    validations: tuple[ValidationRecord, ...] = ()
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class MetricSummary:
    """Footer digest of one metric accumulator: no columns needed."""

    count: int
    min: float
    max: float
    sum: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass(frozen=True)
class ShardSummary:
    """Everything the footer alone can answer about one frame."""

    shard_index: int
    start: int
    stop: int
    population: int
    node_count: int
    delivered_packets: int
    dead_members: int
    first_death_seconds: float
    by_policy: dict[str, int]
    by_source: dict[str, int]
    elapsed_seconds: float
    compression: str
    has_members: bool
    metrics: dict[str, MetricSummary] = field(default_factory=dict)
    packets: MetricSummary = MetricSummary(0, 0.0, 0.0, 0.0)
    #: Whole-frame size on the wire (header + sections + footer).
    encoded_bytes: int = 0
    #: Sum of the sections' uncompressed payloads.
    raw_bytes: int = 0

    def row(self) -> dict[str, object]:
        """One summarize-table row (computed without decoding columns)."""
        from ..runner.artifacts import sanitize
        return {
            "shard": self.shard_index,
            "members": f"[{self.start}, {self.stop})",
            "population": self.population,
            "delivered": self.delivered_packets,
            "dead": self.dead_members,
            "mean_leaf_power_uw": sanitize(
                self.metrics["leaf_power_watts"].mean * 1e6
                if "leaf_power_watts" in self.metrics else 0.0),
            "encoded_bytes": self.encoded_bytes,
            "raw_bytes": self.raw_bytes,
        }


# -- encoding --------------------------------------------------------------


def _accumulator_sum(accumulator: LatencyAccumulator) -> float:
    """Running sum of an accumulator's samples (exact or streamed)."""
    if accumulator.count == 0:
        return 0.0
    return accumulator.mean * accumulator.count


def _metric_summary(accumulator: LatencyAccumulator) -> MetricSummary:
    if accumulator.count == 0:
        return MetricSummary(0, 0.0, 0.0, 0.0)
    return MetricSummary(accumulator.count, accumulator.min_seconds,
                         accumulator.max_seconds,
                         _accumulator_sum(accumulator))


def _write_summary(writer: _Writer, summary: MetricSummary) -> None:
    writer.varint(summary.count)
    writer.f64(summary.min)
    writer.f64(summary.max)
    writer.f64(summary.sum)


def _read_summary_fields(reader: _Reader) -> MetricSummary:
    return MetricSummary(reader.varint(), reader.f64(), reader.f64(),
                         reader.f64())


def _encode_aggregates(accumulator: CohortAccumulator) -> bytes:
    writer = _Writer()
    writer.varint(len(accumulator.metrics))
    for name, metric in accumulator.metrics.items():
        writer.string(name)
        _write_accumulator(writer, metric)
    _write_accumulator(writer, accumulator.packet_latency)
    return writer.getvalue()


def _encode_validations(
        validations: Sequence[ValidationRecord]) -> bytes:
    writer = _Writer()
    writer.delta_column([record.index for record in validations])
    writer.string_column([record.scenario for record in validations])
    writer.string_column([record.arbitration for record in validations])
    for name in _VALIDATION_FLOAT_FIELDS:
        writer.f64_column([getattr(record, name) for record in validations])
    return writer.getvalue()


def _encode_members(members: Sequence[MemberMetrics]) -> bytes:
    writer = _Writer()
    writer.delta_column([member.index for member in members])
    writer.delta_column([member.node_count for member in members])
    writer.delta_column([member.delivered_packets for member in members])
    writer.string_column([member.scenario for member in members])
    writer.string_column([member.source for member in members])
    writer.string_column([member.arbitration for member in members])
    for name in _MEMBER_FLOAT_FIELDS:
        writer.f64_column([getattr(member, name) for member in members])
    return writer.getvalue()


def encode_shard(frame: ShardFrame, *,
                 compression: str = DEFAULT_COMPRESSION) -> bytes:
    """Encode one shard outcome into a self-delimiting binary frame."""
    if compression not in _COMPRESSION_IDS:
        raise CodecError(
            f"unknown compression {compression!r} "
            f"(known: {', '.join(_COMPRESSION_IDS)})")
    if compression == "zstd":
        _zstd_module()  # fail fast before doing any work
    accumulator = frame.accumulator

    sections: list[tuple[str, bytes]] = [
        ("aggregates", _encode_aggregates(accumulator)),
        ("validations", _encode_validations(frame.validations)),
    ]
    if accumulator.keep_members:
        sections.append(("members", _encode_members(accumulator.members)))

    stored: list[tuple[str, bytes, int]] = [
        (name, _compress(raw, compression), len(raw))
        for name, raw in sections
    ]

    footer = _Writer()
    footer.varint(frame.shard_index)
    footer.varint(frame.start)
    footer.varint(frame.stop)
    footer.f64(frame.elapsed_seconds)
    footer.varint(accumulator.population)
    footer.varint(accumulator.node_count)
    footer.varint(accumulator.delivered_packets)
    footer.varint(accumulator.dead_members)
    footer.f64(accumulator.first_death_seconds)
    footer.string_int_map(accumulator.by_policy)
    footer.string_int_map(accumulator.by_source)
    footer.varint(1 if accumulator.keep_members else 0)
    footer.varint(len(accumulator.metrics))
    for name, metric in accumulator.metrics.items():
        footer.string(name)
        _write_summary(footer, _metric_summary(metric))
    _write_summary(footer, _metric_summary(accumulator.packet_latency))
    footer.varint(len(stored))
    offset = 0
    for name, blob, raw_length in stored:
        footer.string(name)
        footer.varint(offset)
        footer.varint(len(blob))
        footer.varint(raw_length)
        offset += len(blob)
    footer_blob = _compress(footer.getvalue(), compression)

    sections_blob = b"".join(blob for _, blob, _ in stored)
    footer_offset = HEADER_BYTES + len(sections_blob)
    frame_length = footer_offset + len(footer_blob)
    body = sections_blob + footer_blob
    header = _HEADER.pack(MAGIC, SHARD_CODEC_VERSION,
                          _COMPRESSION_IDS[compression], 0, frame_length,
                          footer_offset, zlib.crc32(body))
    return header + body


# -- decoding --------------------------------------------------------------


@dataclass(frozen=True)
class _ParsedFrame:
    compression: str
    frame_length: int
    footer: _Reader
    view: memoryview


def _parse_header(data: bytes | memoryview,
                  *, verify_crc: bool) -> _ParsedFrame:
    view = memoryview(data)
    if len(view) < HEADER_BYTES:
        raise CodecError(
            f"shard frame shorter than its {HEADER_BYTES}-byte header")
    magic, version, compression_id, _, frame_length, footer_offset, crc = \
        _HEADER.unpack(view[:HEADER_BYTES])
    if magic != MAGIC:
        raise CodecError("not a cohort shard frame (bad magic)")
    if version != SHARD_CODEC_VERSION:
        raise CodecError(
            f"shard frame has codec version {version}, "
            f"expected {SHARD_CODEC_VERSION}")
    if compression_id not in _COMPRESSION_NAMES:
        raise CodecError(f"unknown compression id {compression_id}")
    if frame_length > len(view):
        raise CodecError(
            f"truncated shard frame: header declares {frame_length} bytes, "
            f"got {len(view)}")
    if not HEADER_BYTES <= footer_offset <= frame_length:
        raise CodecError("shard frame footer offset outside the frame")
    compression = _COMPRESSION_NAMES[compression_id]
    body = view[HEADER_BYTES:frame_length]
    if verify_crc and zlib.crc32(body) != crc:
        raise CodecError("shard frame CRC mismatch (corrupt frame)")
    footer_payload = _decompress_open(
        view[footer_offset:frame_length], compression)
    return _ParsedFrame(compression=compression, frame_length=frame_length,
                        footer=_Reader(footer_payload), view=view)


def _decompress_open(stored: memoryview, compression: str) -> bytes:
    """Decompress a blob whose raw length is not known in advance."""
    if compression == "none":
        return bytes(stored)
    if compression == "zlib":
        try:
            return zlib.decompress(stored)
        except zlib.error as error:
            raise CodecError(f"corrupt zlib footer: {error}") from error
    return _zstd_module().ZstdDecompressor().decompress(
        bytes(stored), max_output_size=16 * 1024 * 1024)


def _read_footer_fixed(reader: _Reader) -> dict[str, object]:
    fields: dict[str, object] = {
        "shard_index": reader.varint(),
        "start": reader.varint(),
        "stop": reader.varint(),
        "elapsed_seconds": reader.f64(),
        "population": reader.varint(),
        "node_count": reader.varint(),
        "delivered_packets": reader.varint(),
        "dead_members": reader.varint(),
        "first_death_seconds": reader.f64(),
        "by_policy": reader.string_int_map(),
        "by_source": reader.string_int_map(),
        "keep_members": bool(reader.varint()),
    }
    metrics = {}
    for _ in range(reader.varint()):
        name = reader.string()
        metrics[name] = _read_summary_fields(reader)
    fields["metrics"] = metrics
    fields["packets"] = _read_summary_fields(reader)
    sections = {}
    for _ in range(reader.varint()):
        name = reader.string()
        sections[name] = (reader.varint(), reader.varint(), reader.varint())
    fields["sections"] = sections
    return fields


def _section_payload(parsed: _ParsedFrame, footer: Mapping[str, object],
                     name: str) -> bytes:
    sections = footer["sections"]
    if name not in sections:
        raise CodecError(f"shard frame has no {name!r} section")
    offset, stored_length, raw_length = sections[name]
    start = HEADER_BYTES + offset
    stop = start + stored_length
    if stop > parsed.frame_length:
        raise CodecError(f"section {name!r} extends beyond the frame")
    return _decompress(parsed.view[start:stop], parsed.compression,
                       raw_length)


def _decode_validations(payload: bytes) -> tuple[ValidationRecord, ...]:
    reader = _Reader(payload)
    indices = reader.delta_column()
    scenarios = reader.string_column()
    arbitrations = reader.string_column()
    columns = [reader.f64_column() for _ in _VALIDATION_FLOAT_FIELDS]
    lengths = {len(indices), len(scenarios), len(arbitrations),
               *(len(column) for column in columns)}
    if len(lengths) > 1:
        raise CodecError("validation column length mismatch")
    return tuple(
        ValidationRecord(
            index=indices[row],
            scenario=scenarios[row],
            arbitration=arbitrations[row],
            **{name: columns[position][row]
               for position, name in enumerate(_VALIDATION_FLOAT_FIELDS)},
        )
        for row in range(len(indices)))


def _decode_members(payload: bytes) -> list[MemberMetrics]:
    reader = _Reader(payload)
    indices = reader.delta_column()
    node_counts = reader.delta_column()
    delivered = reader.delta_column()
    scenarios = reader.string_column()
    sources = reader.string_column()
    arbitrations = reader.string_column()
    columns = [reader.f64_column() for _ in _MEMBER_FLOAT_FIELDS]
    lengths = {len(indices), len(node_counts), len(delivered),
               len(scenarios), len(sources), len(arbitrations),
               *(len(column) for column in columns)}
    if len(lengths) > 1:
        raise CodecError("member column length mismatch")
    return [
        MemberMetrics(
            index=indices[row],
            scenario=scenarios[row],
            source=sources[row],
            arbitration=arbitrations[row],
            node_count=node_counts[row],
            delivered_packets=delivered[row],
            **{name: columns[position][row]
               for position, name in enumerate(_MEMBER_FLOAT_FIELDS)},
        )
        for row in range(len(indices))]


def decode_shard(data: bytes | memoryview) -> ShardFrame:
    """Decode one frame back into a fully live :class:`ShardFrame`.

    The reconstructed accumulator is bit-identical to the one that was
    encoded: counters come from the footer, metric and packet
    accumulators from their serialised states, members (when kept) from
    the columnar section.
    """
    parsed = _parse_header(data, verify_crc=True)
    footer = _read_footer_fixed(parsed.footer)

    reader = _Reader(_section_payload(parsed, footer, "aggregates"))
    metric_count = reader.varint()
    metrics: dict[str, LatencyAccumulator] = {}
    for _ in range(metric_count):
        name = reader.string()
        metrics[name] = _read_accumulator(reader)
    packet_latency = _read_accumulator(reader)
    if set(metrics) != set(MEMBER_METRIC_FIELDS):
        raise CodecError(
            "shard frame metric set does not match MEMBER_METRIC_FIELDS "
            f"(frame: {sorted(metrics)})")

    accumulator = CohortAccumulator(keep_members=bool(footer["keep_members"]))
    accumulator.population = int(footer["population"])
    accumulator.node_count = int(footer["node_count"])
    accumulator.delivered_packets = int(footer["delivered_packets"])
    accumulator.dead_members = int(footer["dead_members"])
    accumulator.first_death_seconds = float(footer["first_death_seconds"])
    accumulator.by_policy = dict(footer["by_policy"])
    accumulator.by_source = dict(footer["by_source"])
    accumulator.metrics = {name: metrics[name]
                           for name in MEMBER_METRIC_FIELDS}
    accumulator.packet_latency = packet_latency
    if accumulator.keep_members:
        accumulator.members = _decode_members(
            _section_payload(parsed, footer, "members"))

    validations = _decode_validations(
        _section_payload(parsed, footer, "validations"))
    return ShardFrame(
        shard_index=int(footer["shard_index"]),
        start=int(footer["start"]),
        stop=int(footer["stop"]),
        accumulator=accumulator,
        validations=validations,
        elapsed_seconds=float(footer["elapsed_seconds"]),
    )


def read_summary(data: bytes | memoryview) -> ShardSummary:
    """Parse header + footer only — member columns are never touched.

    This is what makes ``repro cohort summarize`` stream a
    million-member artifact in milliseconds: every overview quantity
    (member range, counters, per-metric min/max/sum) lives in the
    footer, so the codec skips the columns without an external index.
    """
    parsed = _parse_header(data, verify_crc=False)
    footer = _read_footer_fixed(parsed.footer)
    sections = footer["sections"]
    return ShardSummary(
        shard_index=int(footer["shard_index"]),
        start=int(footer["start"]),
        stop=int(footer["stop"]),
        population=int(footer["population"]),
        node_count=int(footer["node_count"]),
        delivered_packets=int(footer["delivered_packets"]),
        dead_members=int(footer["dead_members"]),
        first_death_seconds=float(footer["first_death_seconds"]),
        by_policy=dict(footer["by_policy"]),
        by_source=dict(footer["by_source"]),
        elapsed_seconds=float(footer["elapsed_seconds"]),
        compression=parsed.compression,
        has_members="members" in sections,
        metrics=dict(footer["metrics"]),
        packets=footer["packets"],
        encoded_bytes=parsed.frame_length,
        raw_bytes=sum(raw for _, _, raw in sections.values()),
    )


# -- frame streams ---------------------------------------------------------


def frame_length(data: bytes | memoryview) -> int:
    """Declared length of the frame starting at ``data[0]``."""
    view = memoryview(data)
    if len(view) < HEADER_BYTES:
        raise CodecError(
            f"shard frame shorter than its {HEADER_BYTES}-byte header")
    magic, version, _, _, length, _, _ = _HEADER.unpack(view[:HEADER_BYTES])
    if magic != MAGIC:
        raise CodecError("not a cohort shard frame (bad magic)")
    if version != SHARD_CODEC_VERSION:
        raise CodecError(
            f"shard frame has codec version {version}, "
            f"expected {SHARD_CODEC_VERSION}")
    return length


def split_frames(data: bytes | memoryview) -> Iterator[memoryview]:
    """Iterate the frames of a concatenated stream without copying."""
    view = memoryview(data)
    offset = 0
    while offset < len(view):
        length = frame_length(view[offset:])
        if offset + length > len(view):
            raise CodecError("truncated frame at end of stream")
        yield view[offset:offset + length]
        offset += length


def write_frames(path: Path | str, frames: Sequence[bytes]) -> Path:
    """Write a concatenated frame stream atomically (tmp + rename)."""
    import os
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as sink:
            for frame in frames:
                sink.write(frame)
        tmp.replace(path)
    except OSError as error:
        raise CodecError(
            f"cannot write shard frames to {path}: {error}") from error
    return path


def read_frames(path: Path | str) -> list[bytes]:
    """Load a frame stream from disk as one frame per list entry."""
    try:
        blob = Path(path).read_bytes()
    except OSError as error:
        raise CodecError(
            f"cannot read shard frames from {path}: {error}") from error
    return [bytes(frame) for frame in split_frames(blob)]
