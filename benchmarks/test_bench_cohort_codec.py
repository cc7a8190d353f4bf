"""Shard-codec benchmarks: throughput, compression ratio, flat memory.

Three properties of the binary cohort pipeline are gated here:

* **Throughput** — encoding and decoding a 100k-member shard frame runs
  at MB/s-scale, so the codec never dominates a cohort run.
* **Compression** — the binary artifact for a 100k cohort is at least
  5x smaller than the equivalent JSON spelling of the same aggregates
  (it is typically well past 10x against per-member JSON rows).
* **Flat memory** — streaming a ~1M-member synthetic cohort through
  encoded frames leaves peak RSS flat: the merge retains sketches and
  counters, never members.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import time

import numpy as np
from conftest import emit

from repro.cohort import (
    CohortAccumulator,
    MemberMetrics,
    ShardFrame,
    decode_shard,
    encode_shard,
    read_summary,
)
from repro.cohort.aggregate import MemberColumns

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


def build_100k_shard(keep_members: bool = False) -> ShardFrame:
    accumulator = CohortAccumulator(keep_members=keep_members)
    for index in range(MEMBERS_100K):
        accumulator.add(synthetic_member(index))
    return ShardFrame(shard_index=0, start=0, stop=MEMBERS_100K,
                      accumulator=accumulator)


def json_size_of_members(frame: ShardFrame) -> int:
    """The JSON artifact spelling of the same 100k member rows.

    ``write_artifact`` writes ``indent=1`` JSON; one row per member with
    every key repeated is what landing this data in the JSON artifact
    would have cost — the format the columnar members section replaces.
    """
    rows = [dataclasses.asdict(member)
            for member in frame.accumulator.members]
    for row in rows:
        if row["first_death_seconds"] == math.inf:
            row["first_death_seconds"] = "inf"  # sanitize() spelling
    return len(json.dumps({"rows": rows}, indent=1).encode("utf-8"))


def test_bench_codec_100k_encode_decode(benchmark):
    frame = build_100k_shard(keep_members=True)

    def encode_and_decode():
        blob = encode_shard(frame)
        return blob, decode_shard(blob)

    blob, decoded = benchmark.pedantic(encode_and_decode, rounds=3,
                                       iterations=1)

    started = time.perf_counter()
    encode_shard(frame)
    encode_seconds = time.perf_counter() - started
    started = time.perf_counter()
    decode_shard(blob)
    decode_seconds = time.perf_counter() - started
    summary = read_summary(blob)
    megabytes = summary.raw_bytes / 1e6
    json_bytes = json_size_of_members(frame)

    # The same aggregates with members dropped: what a default
    # (keep_members=False) cohort run ships per shard.
    frame.accumulator.keep_members = False
    slim_bytes = len(encode_shard(frame))
    frame.accumulator.keep_members = True

    emit("shard codec — 100k-member frame", [{
        "members": MEMBERS_100K,
        "frame_bytes": len(blob),
        "aggregates_only_bytes": slim_bytes,
        "json_bytes": json_bytes,
        "ratio_vs_json": round(json_bytes / len(blob), 1),
        "encode_MB_s": round(megabytes / encode_seconds, 1),
        "decode_MB_s": round(megabytes / decode_seconds, 1),
    }])

    assert decoded.accumulator.population == MEMBERS_100K
    # Acceptance: the binary artifact beats the JSON spelling of the
    # same member rows >= 5x (typically well past 10x).
    assert json_bytes >= 5 * len(blob)
    # Without members the frame is KB-scale however large the cohort.
    assert slim_bytes < 64 * 1024
    # The footer answers overview queries without touching columns.
    assert summary.population == MEMBERS_100K
    assert summary.metrics["leaf_power_watts"].count == MEMBERS_100K


def test_bench_codec_100k_streaming_merge(benchmark):
    shards = 8
    per_shard = MEMBERS_100K // shards
    frames = []
    for shard in range(shards):
        accumulator = CohortAccumulator()
        start = shard * per_shard
        for index in range(start, start + per_shard):
            accumulator.add(synthetic_member(index))
        frames.append(encode_shard(ShardFrame(
            shard_index=shard, start=start, stop=start + per_shard,
            accumulator=accumulator)))

    def merge_all():
        merged = CohortAccumulator()
        for blob in frames:
            merged.merge_encoded(blob)
        return merged

    merged = benchmark.pedantic(merge_all, rounds=3, iterations=1)

    emit("shard codec — merge 8 encoded frames (100k members)",
         [merged.overview()])

    assert merged.population == MEMBERS_100K
    assert merged.by_source["des"] == math.ceil(MEMBERS_100K / 7)


def test_bench_codec_1m_flat_memory(benchmark):
    """Peak RSS stays flat while a ~1M-member cohort streams through.

    Members are generated as column blocks, folded shard-by-shard into
    encoded frames with ``add_columns`` and merged immediately — the
    exact shape of the analytic ``run_cohort`` path — so the only
    retained state is sketches plus counters.  The assertion bounds the
    RSS growth of the aggregation phase to far below what materialising
    one million member rows (~200 MB) would cost.
    """
    population = 1_000_000
    shards = 20
    per_shard = population // shards
    block = 8192
    assert synthetic_columns(0, 10).rows() == \
        [synthetic_member(index) for index in range(10)]

    def stream_cohort():
        merged = CohortAccumulator()
        total_bytes = 0
        for shard in range(shards):
            accumulator = CohortAccumulator()
            start = shard * per_shard
            for first in range(start, start + per_shard, block):
                accumulator.add_columns(synthetic_columns(
                    first, min(first + block, start + per_shard)))
            blob = encode_shard(ShardFrame(
                shard_index=shard, start=start, stop=start + per_shard,
                accumulator=accumulator))
            total_bytes += len(blob)
            merged.merge_encoded(blob)
        return merged, total_bytes

    rss_before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (merged, total_bytes) = benchmark.pedantic(stream_cohort, rounds=1,
                                               iterations=1)
    rss_after_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    growth_mib = (rss_after_kib - rss_before_kib) / 1024.0

    emit("shard codec — 1M members streamed through encoded frames", [{
        "population": merged.population,
        "encoded_bytes": total_bytes,
        "bytes_per_member": round(total_bytes / merged.population, 2),
        "peak_rss_growth_mib": round(growth_mib, 1),
    }])

    assert merged.population == population
    # Flat memory: the streaming aggregation must not grow peak RSS by
    # anything near the ~200 MB a materialised member list would take.
    # One shard's exact windows (8 metrics x 65536 float64) plus codec
    # buffers legitimately cost a few tens of MB, transiently.
    assert growth_mib < 120.0
    # And every metric accumulator ends bounded, not member-sized.
    for accumulator in merged.metrics.values():
        assert accumulator.retained_samples <= accumulator.exact_capacity
