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
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.cohort.engine import _run_shard
from repro.errors import CodecError
from repro.netsim import stats

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
        # forever within codec version 1: the layout IS the contract.
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
        assert digest == ("c43214c5e57175cd766d670da347ab45"
                          "b1391ba8dfc60677f31b2c47a6a6f74c")

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

    @pytest.mark.parametrize("field, value", [("STATE_BACKEND", "histogram"),
                                              ("STATE_BINS", 64)])
    def test_unknown_accumulator_backend_rejected(self, monkeypatch, field,
                                                  value):
        monkeypatch.setattr(stats, field, value)
        blob = self.make_blob()
        monkeypatch.undo()
        with pytest.raises(CodecError, match="unsupported accumulator"):
            decode_shard(blob)

    def test_zstd_without_package_raises_codec_error(self):
        try:
            import zstandard  # noqa: F401
            pytest.skip("zstandard installed")
        except ImportError:
            pass
        with pytest.raises(CodecError, match="zstandard"):
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
