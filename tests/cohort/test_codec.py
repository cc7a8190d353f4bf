"""Tests for the binary columnar shard codec.

Three contracts pinned here:

* **Round trip** — for arbitrary member metrics (zeros, denormals, huge
  magnitudes, empty and single-member shards, members kept or dropped),
  ``decode_shard(encode_shard(frame))`` reproduces the accumulator state
  bit-exactly.
* **Golden digest** — at a fixed seed and shard layout, the aggregates
  decoded from ``run_cohort``'s binary frames are bit-identical to an
  in-memory shard merge that never touches the codec, and the
  uncompressed frame bytes themselves hash to a pinned digest (format
  stability: changing the layout without bumping
  ``SHARD_CODEC_VERSION`` fails this test).
* **Index-free skipping** — ``read_summary`` answers overview queries
  from the footer alone, consistent with the decoded accumulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cohort import (
    SHARD_CODEC_VERSION,
    CohortAccumulator,
    CohortSpec,
    MemberMetrics,
    MEMBER_METRIC_FIELDS,
    ShardFrame,
    ValidationRecord,
    decode_shard,
    encode_shard,
    read_frames,
    read_summary,
    run_cohort,
    split_frames,
    write_frames,
)
from repro.cohort import codec
from repro.cohort.aggregate import MemberColumns
from repro.cohort.engine import _run_shard
from repro.cohort.sketch import QuantileSketch, buffer_size
from repro.errors import CodecError

# Exercises zeros, denormals, round numbers and huge magnitudes — every
# one must survive the frame bit-exactly (raw binary64 columns).
finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e300, max_value=1e300)
tricky_floats = st.one_of(
    finite_floats,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.5, 1e300]))
# Fields folded into LatencyAccumulator columns must be non-negative
# (the accumulator enforces it); -0.0 passes and must keep its sign bit.
metric_floats = st.one_of(
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
              allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.5, 1e300]))


@st.composite
def member_metrics(draw, index: int):
    return MemberMetrics(
        index=index,
        scenario=draw(st.sampled_from(["office", "gym", "commute"])),
        source=draw(st.sampled_from(["analytic", "des"])),
        arbitration=draw(st.sampled_from(["fifo", "tdma", "polling"])),
        node_count=draw(st.integers(min_value=0, max_value=64)),
        duration_seconds=draw(tricky_floats),
        delivered_packets=draw(st.integers(min_value=0, max_value=10**9)),
        delivered_fraction=draw(metric_floats),
        mean_latency_seconds=draw(metric_floats),
        p99_latency_seconds=draw(metric_floats),
        bus_utilization=draw(metric_floats),
        leaf_power_watts=draw(metric_floats),
        hub_power_watts=draw(metric_floats),
        leaf_energy_joules=draw(metric_floats),
        hub_energy_joules=draw(tricky_floats),
        alive_fraction=draw(metric_floats),
        first_death_seconds=draw(st.one_of(st.just(math.inf),
                                           tricky_floats)),
    )


@st.composite
def shard_frames(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    keep = draw(st.booleans())
    accumulator = CohortAccumulator(keep_members=keep)
    for index in range(count):
        accumulator.add(draw(member_metrics(index)))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        accumulator.packet_latency.add(draw(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False)))
    validations = tuple(
        ValidationRecord(
            index=i, scenario="office", arbitration="fifo",
            analytic_leaf_power_watts=draw(tricky_floats),
            des_leaf_power_watts=draw(tricky_floats),
            analytic_delivered_fraction=draw(tricky_floats),
            des_delivered_fraction=draw(tricky_floats),
            analytic_mean_latency_seconds=draw(tricky_floats),
            des_mean_latency_seconds=draw(tricky_floats))
        for i in range(draw(st.integers(min_value=0, max_value=3))))
    return ShardFrame(shard_index=draw(st.integers(0, 100)),
                      start=0, stop=count, accumulator=accumulator,
                      validations=validations,
                      elapsed_seconds=draw(
                          st.floats(min_value=0.0, max_value=1e6,
                                    allow_nan=False)))


def bits(value):
    """Bit-pattern view of a state tree: nan == nan, -0.0 != 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def members_bits(members):
    return [bits(dataclasses.asdict(member)) for member in members]


def assert_accumulators_identical(left: CohortAccumulator,
                                  right: CohortAccumulator) -> None:
    assert left.population == right.population
    assert left.node_count == right.node_count
    assert left.delivered_packets == right.delivered_packets
    assert left.dead_members == right.dead_members
    assert left.first_death_seconds == right.first_death_seconds
    assert left.by_policy == right.by_policy
    assert left.by_source == right.by_source
    assert left.keep_members == right.keep_members
    assert members_bits(left.members) == members_bits(right.members)
    for name in MEMBER_METRIC_FIELDS:
        assert bits(left.metrics[name].to_state()) == bits(
            right.metrics[name].to_state()), name
    assert bits(left.packet_latency.to_state()) == bits(
        right.packet_latency.to_state())


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(frame=shard_frames(),
           compression=st.sampled_from(["none", "zlib"]))
    def test_arbitrary_frames_round_trip_bit_exactly(self, frame,
                                                     compression):
        blob = encode_shard(frame, compression=compression)
        decoded = decode_shard(blob)
        assert decoded.shard_index == frame.shard_index
        assert decoded.start == frame.start
        assert decoded.stop == frame.stop
        assert decoded.elapsed_seconds == frame.elapsed_seconds
        assert decoded.validations == frame.validations
        assert_accumulators_identical(decoded.accumulator, frame.accumulator)

    def test_empty_shard_round_trips(self):
        frame = ShardFrame(shard_index=0, start=0, stop=0,
                           accumulator=CohortAccumulator())
        decoded = decode_shard(encode_shard(frame))
        assert decoded.accumulator.population == 0
        summary = read_summary(encode_shard(frame))
        assert summary.population == 0
        assert summary.packets.count == 0

    def test_single_member_shard_round_trips(self):
        accumulator = CohortAccumulator(keep_members=True)
        accumulator.add(MemberMetrics(
            index=7, scenario="office", source="des", arbitration="tdma",
            node_count=3, duration_seconds=5e-324, delivered_packets=0,
            delivered_fraction=0.0, mean_latency_seconds=-0.0,
            p99_latency_seconds=0.0, bus_utilization=1e-310,
            leaf_power_watts=0.0, hub_power_watts=0.0,
            leaf_energy_joules=0.0, hub_energy_joules=0.0,
            alive_fraction=1.0, first_death_seconds=math.inf))
        frame = ShardFrame(shard_index=1, start=7, stop=8,
                           accumulator=accumulator)
        decoded = decode_shard(encode_shard(frame))
        assert decoded.accumulator.members == accumulator.members
        # -0.0 == 0.0 under ==; check the sign bit survived too.
        assert math.copysign(
            1.0, decoded.accumulator.members[0].mean_latency_seconds) == -1.0

    def test_spilled_sketch_accumulator_round_trips(self):
        accumulator = CohortAccumulator(exact_capacity=32)
        for index in range(200):
            accumulator.add(MemberMetrics(
                index=index, scenario="office", source="analytic",
                arbitration="fifo", node_count=1, duration_seconds=1.0,
                delivered_packets=1, delivered_fraction=1.0,
                mean_latency_seconds=index * 1e-4,
                p99_latency_seconds=index * 2e-4, bus_utilization=0.1,
                leaf_power_watts=1e-3, hub_power_watts=1e-3,
                leaf_energy_joules=1e-2, hub_energy_joules=1e-2,
                alive_fraction=1.0, first_death_seconds=math.inf))
        frame = ShardFrame(shard_index=0, start=0, stop=200,
                           accumulator=accumulator)
        decoded = decode_shard(encode_shard(frame))
        assert_accumulators_identical(decoded.accumulator, accumulator)


class TestExactWindowRun:
    """A float column, an exact window included, crosses the frame as
    one run of raw doubles: the bytes ``struct.pack("<...d")`` writes
    for the same floats."""

    WINDOW = (-0.0, 0.0, struct.unpack("<d", b"\x01\0\0\0\0\0\xf8\x7f")[0],
              math.nan, math.inf, 5e-324, 1.5, 2.0 ** 60)

    @staticmethod
    def packed(values) -> bytes:
        return bytes([len(values)]) + struct.pack(f"<{len(values)}d",
                                                  *values)

    @pytest.mark.parametrize("kind", [list, tuple, array])
    def test_column_writes_the_packed_bytes_and_reads_them_back(
            self, kind):
        values = array("d", self.WINDOW) if kind is array \
            else kind(self.WINDOW)
        writer = codec._Writer()
        writer.f64_column(values)
        blob = writer.getvalue()
        assert blob == self.packed(self.WINDOW)
        restored = codec._Reader(blob).f64_column()
        assert isinstance(restored, array)
        assert restored.tobytes() == array("d", self.WINDOW).tobytes()

    @pytest.mark.parametrize("kind", [list, array])
    def test_big_endian_host_byteswaps_to_and_from_the_wire(
            self, monkeypatch, kind):
        # A big-endian host holds each double's bytes reversed; emulate
        # it by reversing them here and flagging the host.
        host = array("d", self.WINDOW)
        host.byteswap()
        before = host.tobytes()
        values = host if kind is array else host.tolist()
        monkeypatch.setattr(codec, "_BIG_ENDIAN_HOST", True)
        writer = codec._Writer()
        writer.f64_column(values)
        blob = writer.getvalue()
        assert blob == self.packed(self.WINDOW)
        assert codec._Reader(blob).f64_column().tobytes() == host.tobytes()
        # Writing swaps a copy, never the caller's window.
        assert host.tobytes() == before

    def test_decoded_window_is_raw_doubles(self):
        accumulator = CohortAccumulator()
        accumulator.packet_latency.add_many(
            [value for value in self.WINDOW if value >= 0.0
             or math.isnan(value)])
        frame = ShardFrame(shard_index=0, start=0, stop=0,
                           accumulator=accumulator)
        decoded = decode_shard(encode_shard(frame)).accumulator
        window = decoded.packet_latency._samples
        assert isinstance(window, array)
        assert window.tobytes() == \
            accumulator.packet_latency._samples.tobytes()


class TestGoldenDigest:
    def test_binary_path_matches_in_memory_merge_bit_for_bit(self):
        spec = CohortSpec(population=60, seed=19,
                          member_duration_seconds=10.0)
        shards = 4
        in_memory = CohortAccumulator()
        for index in range(shards):
            in_memory.merge(_run_shard(spec, index, shards, "analytic",
                                       0).accumulator)
        result = run_cohort(spec, fast_path="analytic", shard_count=shards,
                            validate_stride=0)
        decoded = CohortAccumulator()
        for blob in result.frames:
            decoded.merge_encoded(blob)
        assert_accumulators_identical(decoded, in_memory)
        assert_accumulators_identical(result.accumulator, in_memory)
        assert decoded.summary_rows() == in_memory.summary_rows()
        assert decoded.overview() == in_memory.overview()

    def test_frame_bytes_are_format_stable(self):
        # An uncompressed frame over fixed input must hash identically
        # forever within codec version 2: the layout IS the contract.
        # (Compressed bytes are never pinned — zlib output may legally
        # change between library builds.)
        accumulator = CohortAccumulator(keep_members=True)
        for index in range(8):
            accumulator.add(MemberMetrics(
                index=index, scenario="office",
                source="des" if index % 2 else "analytic",
                arbitration="fifo", node_count=index,
                duration_seconds=10.0, delivered_packets=10 * index,
                delivered_fraction=index / 8.0,
                mean_latency_seconds=index * 0.125,
                p99_latency_seconds=index * 0.25,
                bus_utilization=index * 0.0625,
                leaf_power_watts=index * 1e-3,
                hub_power_watts=index * 2e-3,
                leaf_energy_joules=index * 1e-2,
                hub_energy_joules=index * 2e-2,
                alive_fraction=1.0,
                first_death_seconds=math.inf if index % 2 else float(index)))
        accumulator.packet_latency.add(0.5)
        frame = ShardFrame(shard_index=3, start=24, stop=32,
                           accumulator=accumulator,
                           elapsed_seconds=1.5)
        blob = encode_shard(frame, compression="none")
        digest = hashlib.sha256(blob).hexdigest()
        assert digest == ("3c1cf2ca7d5bf46ad85ed70c67b565ad"
                          "b33e010d9d1b3457f7b10f8949adaffb")

    def test_codec_version_is_stamped(self):
        frame = ShardFrame(shard_index=0, start=0, stop=0,
                           accumulator=CohortAccumulator())
        blob = encode_shard(frame)
        assert blob[:4] == b"RSHD"
        assert blob[4] == SHARD_CODEC_VERSION


class TestSummaryFooter:
    def test_summary_matches_decoded_aggregates(self):
        spec = CohortSpec(population=40, seed=3,
                          member_duration_seconds=10.0)
        result = run_cohort(spec, fast_path="analytic", shard_count=3,
                            validate_stride=0)
        for blob in result.frames:
            summary = read_summary(blob)
            decoded = decode_shard(blob)
            accumulator = decoded.accumulator
            assert summary.population == accumulator.population
            assert summary.delivered_packets == accumulator.delivered_packets
            assert summary.by_policy == accumulator.by_policy
            assert summary.stop - summary.start == summary.population
            for name in MEMBER_METRIC_FIELDS:
                metric = accumulator.metrics[name]
                assert summary.metrics[name].count == metric.count
                assert summary.metrics[name].min == metric.min_seconds
                assert summary.metrics[name].max == metric.max_seconds
                assert summary.metrics[name].mean == pytest.approx(
                    metric.mean, rel=1e-12)

    def test_summary_rows_are_json_safe(self):
        frame = ShardFrame(shard_index=0, start=0, stop=0,
                           accumulator=CohortAccumulator())
        row = read_summary(encode_shard(frame)).row()
        json.dumps(row, allow_nan=False)


class TestFrameStreams:
    def test_concatenated_frames_split_and_reload(self, tmp_path):
        frames = []
        for shard in range(3):
            accumulator = CohortAccumulator()
            for index in range(shard + 1):
                accumulator.add(MemberMetrics(
                    index=index, scenario="office", source="analytic",
                    arbitration="fifo", node_count=1, duration_seconds=1.0,
                    delivered_packets=1, delivered_fraction=1.0,
                    mean_latency_seconds=0.01, p99_latency_seconds=0.02,
                    bus_utilization=0.1, leaf_power_watts=1e-3,
                    hub_power_watts=1e-3, leaf_energy_joules=1e-2,
                    hub_energy_joules=1e-2))
            frames.append(encode_shard(ShardFrame(
                shard_index=shard, start=0, stop=shard + 1,
                accumulator=accumulator)))
        path = write_frames(tmp_path / "cohort.shards.bin", frames)
        assert read_frames(path) == frames
        stream = b"".join(frames)
        assert [bytes(view) for view in split_frames(stream)] == frames

    def test_truncated_stream_rejected(self):
        frame = ShardFrame(shard_index=0, start=0, stop=0,
                           accumulator=CohortAccumulator())
        blob = encode_shard(frame)
        with pytest.raises(CodecError):
            list(split_frames(blob + blob[:40]))


class TestCorruption:
    def make_blob(self) -> bytes:
        return encode_shard(ShardFrame(
            shard_index=0, start=0, stop=0,
            accumulator=CohortAccumulator()))

    def test_bad_magic_rejected(self):
        blob = self.make_blob()
        with pytest.raises(CodecError, match="magic"):
            decode_shard(b"XXXX" + blob[4:])

    def test_unknown_version_rejected(self):
        blob = bytearray(self.make_blob())
        blob[4] = SHARD_CODEC_VERSION + 1
        with pytest.raises(CodecError, match="version"):
            decode_shard(bytes(blob))

    def test_truncated_frame_rejected(self):
        with pytest.raises(CodecError, match="truncated|header"):
            decode_shard(self.make_blob()[:40])

    def test_flipped_byte_fails_crc(self):
        blob = bytearray(self.make_blob())
        blob[-1] ^= 0xFF
        with pytest.raises(CodecError, match="CRC|corrupt"):
            decode_shard(bytes(blob))

    def test_histogram_accumulator_mode_rejected(self, monkeypatch):
        # Mode id 1 carried the retired log-spaced histogram backend.
        monkeypatch.setitem(codec._ACCUMULATOR_MODES, "exact", 1)
        blob = self.make_blob()
        monkeypatch.undo()
        with pytest.raises(CodecError, match="mode id 1"):
            decode_shard(blob)

    def test_version_1_frame_rejected(self):
        # Version 1 frames carried backend/bins fields and sketch levels
        # of the retired per-value compaction schedule.
        blob = bytearray(self.make_blob())
        blob[4] = 1
        with pytest.raises(CodecError, match="codec version 1, expected 2"):
            decode_shard(bytes(blob))

    def test_overfull_sketch_buffer_rejected(self, monkeypatch):
        accumulator = CohortAccumulator(exact_capacity=4)
        for index in range(8):
            accumulator.add(MemberMetrics(
                index=index, scenario="office", source="analytic",
                arbitration="fifo", node_count=1, duration_seconds=1.0,
                delivered_packets=1, delivered_fraction=1.0,
                mean_latency_seconds=index * 1e-3,
                p99_latency_seconds=index * 2e-3, bus_utilization=0.1,
                leaf_power_watts=1e-3, hub_power_watts=1e-3,
                leaf_energy_joules=1e-2, hub_energy_joules=1e-2,
                alive_fraction=1.0, first_death_seconds=math.inf))
        to_state = QuantileSketch.to_state

        def overfull(sketch):
            state = to_state(sketch)
            width = buffer_size(sketch.k)
            state["levels"][0] = [1.0] * width
            state["count"] += width
            return state

        monkeypatch.setattr(QuantileSketch, "to_state", overfull)
        blob = encode_shard(ShardFrame(shard_index=0, start=0, stop=8,
                                       accumulator=accumulator))
        monkeypatch.undo()
        with pytest.raises(CodecError, match="level-0 buffer"):
            decode_shard(blob)

    def test_zstd_without_package_raises_codec_error(self):
        try:
            import zstandard  # noqa: F401
            pytest.skip("zstandard installed")
        except ImportError:
            pass
        # The hint names the package: the project defines no ``zstd`` extra.
        with pytest.raises(CodecError,
                           match=re.escape("(pip install zstandard)")):
            encode_shard(ShardFrame(shard_index=0, start=0, stop=0,
                                    accumulator=CohortAccumulator()),
                         compression="zstd")


class TestDegenerateOverviewSanitized:
    """Regression: a cohort with zero delivered packets must still
    produce a JSON artifact — ``overview()`` used to leak raw ``inf``
    and ``nan`` floats when every member was dead and nothing was
    delivered."""

    def make_dead_member(self, index: int) -> MemberMetrics:
        return MemberMetrics(
            index=index, scenario="office", source="analytic",
            arbitration="fifo", node_count=2, duration_seconds=10.0,
            delivered_packets=0, delivered_fraction=0.0,
            mean_latency_seconds=math.nan, p99_latency_seconds=math.inf,
            bus_utilization=0.0, leaf_power_watts=math.inf,
            hub_power_watts=0.0, leaf_energy_joules=math.inf,
            hub_energy_joules=0.0, alive_fraction=0.0,
            first_death_seconds=0.5)

    def test_overview_is_json_safe(self):
        accumulator = CohortAccumulator()
        accumulator.add(self.make_dead_member(0))
        overview = accumulator.overview()
        # allow_nan=False is exactly what a strict JSON consumer does;
        # raw inf/nan floats would raise here.
        json.dumps(overview, allow_nan=False)
        assert overview["mean_member_p99_ms"] == "inf"
        assert overview["mean_leaf_power_uw"] == "inf"
        assert overview["dead_members"] == 1

    def test_summary_rows_are_json_safe(self):
        accumulator = CohortAccumulator()
        for index in range(3):
            accumulator.add(self.make_dead_member(index))
        json.dumps(accumulator.summary_rows(), allow_nan=False)

    def test_degenerate_cohort_round_trips_through_codec(self):
        accumulator = CohortAccumulator()
        accumulator.add(self.make_dead_member(0))
        frame = ShardFrame(shard_index=0, start=0, stop=1,
                           accumulator=accumulator)
        decoded = decode_shard(encode_shard(frame))
        json.dumps(decoded.accumulator.overview(), allow_nan=False)
        assert_accumulators_identical(decoded.accumulator, accumulator)


MEMBERS_100K = 100_000


def synthetic_member(index: int) -> MemberMetrics:
    """Deterministic member row: cheap to generate, structured like a run."""
    phase = (index % 997) / 997.0
    return MemberMetrics(
        index=index,
        scenario=("office", "gym", "commute")[index % 3],
        source="analytic" if index % 7 else "des",
        arbitration=("fifo", "tdma", "polling")[index % 3],
        node_count=3 + index % 5,
        duration_seconds=60.0,
        delivered_packets=500 + index % 211,
        delivered_fraction=0.9 + 0.1 * phase,
        mean_latency_seconds=1e-3 * (1.0 + phase),
        p99_latency_seconds=5e-3 * (1.0 + phase),
        bus_utilization=0.05 + 0.4 * phase,
        leaf_power_watts=1e-4 * (1.0 + 9.0 * phase),
        hub_power_watts=1e-3 * (1.0 + phase),
        leaf_energy_joules=6e-3 * (1.0 + 9.0 * phase),
        hub_energy_joules=6e-2 * (1.0 + phase),
        alive_fraction=1.0,
        first_death_seconds=math.inf,
    )


def synthetic_columns(start: int, stop: int) -> MemberColumns:
    """:func:`synthetic_member` rows ``[start, stop)`` as columns."""
    index = np.arange(start, stop)
    phase = (index % 997) / 997.0
    size = len(index)
    return MemberColumns(
        index=index,
        scenario=np.array(["office", "gym", "commute"])[index % 3],
        source=np.where(index % 7 != 0, "analytic", "des"),
        arbitration=np.array(["fifo", "tdma", "polling"])[index % 3],
        node_count=3 + index % 5,
        duration_seconds=np.full(size, 60.0),
        delivered_packets=500 + index % 211,
        delivered_fraction=0.9 + 0.1 * phase,
        mean_latency_seconds=1e-3 * (1.0 + phase),
        p99_latency_seconds=5e-3 * (1.0 + phase),
        bus_utilization=0.05 + 0.4 * phase,
        leaf_power_watts=1e-4 * (1.0 + 9.0 * phase),
        hub_power_watts=1e-3 * (1.0 + phase),
        leaf_energy_joules=6e-3 * (1.0 + 9.0 * phase),
        hub_energy_joules=6e-2 * (1.0 + phase),
        alive_fraction=np.ones(size),
        first_death_seconds=np.full(size, math.inf),
    )


def json_size_of_members(frame: ShardFrame) -> int:
    """The JSON artifact spelling of the same member rows.

    ``write_artifact`` writes ``indent=1`` JSON; one row per member with
    every key repeated is what landing this data in the JSON artifact
    would have cost, the format the columnar members section replaces.
    """
    rows = [dataclasses.asdict(member)
            for member in frame.accumulator.members]
    for row in rows:
        if row["first_death_seconds"] == math.inf:
            row["first_death_seconds"] = "inf"  # sanitize() spelling
    return len(json.dumps({"rows": rows}, indent=1).encode("utf-8"))


class TestCodecAtScale:
    def test_100k_frame_beats_json_5x_and_slims_to_kilobytes(self):
        accumulator = CohortAccumulator(keep_members=True)
        for index in range(MEMBERS_100K):
            accumulator.add(synthetic_member(index))
        frame = ShardFrame(shard_index=0, start=0, stop=MEMBERS_100K,
                           accumulator=accumulator)
        blob = encode_shard(frame)
        decoded = decode_shard(blob)
        summary = read_summary(blob)
        json_bytes = json_size_of_members(frame)
        # The same aggregates with members dropped: what a default
        # (keep_members=False) cohort run ships per shard.
        frame.accumulator.keep_members = False
        slim_bytes = len(encode_shard(frame))

        assert decoded.accumulator.population == MEMBERS_100K
        # The binary artifact beats the JSON spelling of the same member
        # rows >= 5x (typically well past 10x).
        assert json_bytes >= 5 * len(blob)
        # Without members the frame is KB-scale however large the cohort.
        assert slim_bytes < 64 * 1024
        # The footer answers overview queries without touching columns.
        assert summary.population == MEMBERS_100K
        assert summary.metrics["leaf_power_watts"].count == MEMBERS_100K

    def test_100k_members_merge_from_eight_encoded_frames(self):
        shards = 8
        per_shard = MEMBERS_100K // shards
        merged = CohortAccumulator()
        for shard in range(shards):
            accumulator = CohortAccumulator()
            start = shard * per_shard
            for index in range(start, start + per_shard):
                accumulator.add(synthetic_member(index))
            merged.merge_encoded(encode_shard(ShardFrame(
                shard_index=shard, start=start, stop=start + per_shard,
                accumulator=accumulator)))
        assert merged.population == MEMBERS_100K
        assert merged.by_source["des"] == math.ceil(MEMBERS_100K / 7)

    def test_1m_members_stream_with_flat_memory(self):
        """Peak RSS stays flat while a ~1M-member cohort streams through.

        Members are generated as column blocks, folded shard by shard
        into encoded frames with ``add_columns`` and merged immediately,
        the shape of the analytic ``run_cohort`` path, so the only
        retained state is sketches plus counters.  The RSS growth of the
        aggregation is bounded far below what materialising one million
        member rows (~200 MB) would cost.

        The stream runs in a fresh interpreter: a peak RSS is a lifetime
        peak, so in this process any earlier test that peaked higher (the
        100k JSON spelling above) would hide the growth.  The child reads
        its own peak (see :func:`peak_rss_kib`).
        """
        assert synthetic_columns(0, 10).rows() == \
            [synthetic_member(index) for index in range(10)]
        child = subprocess.run(
            [sys.executable, "-c", STREAM_CHILD, __file__],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                [os.path.dirname(os.path.dirname(repro.__file__)),
                 os.environ.get("PYTHONPATH", "")])),
            capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        measured = json.loads(child.stdout.splitlines()[-1])

        assert measured["population"] == 1_000_000
        # One shard's exact windows (8 metrics x 65536 raw float64, 4 MiB)
        # plus codec buffers cost a few MiB, transiently.
        assert measured["growth_mib"] < 40.0
        # And every metric accumulator ends bounded, not member-sized.
        assert measured["bounded"]


#: Loads this file in a fresh interpreter and prints the JSON of
#: :func:`stream_1m_members`.
STREAM_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("codec_stream", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(module.stream_1m_members()))
"""


def peak_rss_kib() -> int:
    """This process's peak resident set size in KiB.

    On Linux, ``ru_maxrss`` carries the high-water mark of the process
    that spawned this one across ``exec``: a child of a test runner that
    grew to hundreds of MiB reads the runner's peak, and its own growth
    reads 0.  ``VmHWM`` counts only this program's pages.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def stream_1m_members() -> dict[str, object]:
    """Stream 10^6 synthetic members through 20 encoded shard frames and
    report this process's peak-RSS growth over the stream."""
    population = 1_000_000
    shards = 20
    per_shard = population // shards
    block = 8192
    rss_before_kib = peak_rss_kib()
    merged = CohortAccumulator()
    for shard in range(shards):
        accumulator = CohortAccumulator()
        start = shard * per_shard
        for first in range(start, start + per_shard, block):
            accumulator.add_columns(synthetic_columns(
                first, min(first + block, start + per_shard)))
        merged.merge_encoded(encode_shard(ShardFrame(
            shard_index=shard, start=start, stop=start + per_shard,
            accumulator=accumulator)))
    rss_after_kib = peak_rss_kib()
    return {
        "population": merged.population,
        "growth_mib": (rss_after_kib - rss_before_kib) / 1024.0,
        "bounded": all(
            accumulator.retained_samples <= accumulator.exact_capacity
            for accumulator in merged.metrics.values()),
    }
