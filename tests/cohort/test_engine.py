"""Tests for sharded cohort execution and streaming aggregation.

The central property: at a fixed cohort seed, shard-merged summaries are
bit-identical to a single-process run, whatever the shard layout or
worker count — member seeds depend only on the member index and metric
accumulators concatenate exactly while the population fits their exact
window.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort import (
    CohortAccumulator,
    CohortSpec,
    MemberMetrics,
    run_cohort,
    shard_bounds,
)
from repro.cohort import engine
from repro.cohort.spec import MEMBER_BLOCK
from repro.errors import ScenarioError
from repro.netsim.fidelity import ANALYTIC


def make_metrics(index: int, value: float,
                 source: str = "analytic") -> MemberMetrics:
    return MemberMetrics(
        index=index, scenario=f"m-{index}", source=source,
        arbitration="fifo", node_count=2, duration_seconds=10.0,
        delivered_packets=100, delivered_fraction=1.0,
        mean_latency_seconds=value, p99_latency_seconds=2.0 * value,
        bus_utilization=0.1, leaf_power_watts=value, hub_power_watts=value,
        leaf_energy_joules=10.0 * value, hub_energy_joules=10.0 * value,
    )


class TestShardBounds:
    def test_partition_is_exact_and_contiguous(self):
        for population, shards in ((10, 3), (7, 7), (100, 8), (5, 1)):
            ranges = [shard_bounds(population, shards, index)
                      for index in range(shards)]
            assert ranges[0][0] == 0
            assert ranges[-1][1] == population
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start
            sizes = [stop - start for start, stop in ranges]
            assert max(sizes) - min(sizes) <= 1

    def test_invalid_shard_rejected(self):
        with pytest.raises(ScenarioError):
            shard_bounds(10, 3, 3)
        with pytest.raises(ScenarioError):
            shard_bounds(10, 0, 0)


class TestAccumulator:
    def test_empty_accumulator_refuses_summary(self):
        with pytest.raises(ScenarioError):
            CohortAccumulator().summary_rows()
        with pytest.raises(ScenarioError):
            CohortAccumulator().overview()

    def test_merge_equals_sequential_adds(self):
        values = [0.001 * (index + 1) for index in range(40)]
        serial = CohortAccumulator()
        for index, value in enumerate(values):
            serial.add(make_metrics(index, value))
        left, right = CohortAccumulator(), CohortAccumulator()
        for index, value in enumerate(values):
            (left if index < 25 else right).add(make_metrics(index, value))
        left.merge(right)
        assert left.summary_rows() == serial.summary_rows()
        assert left.overview() == serial.overview()

    def test_counts_and_policy_mix_merge(self):
        accumulator = CohortAccumulator()
        accumulator.add(make_metrics(0, 0.1))
        other = CohortAccumulator()
        other.add(make_metrics(1, 0.2, source="des"))
        accumulator.merge(other)
        assert accumulator.population == 2
        assert accumulator.by_source == {"analytic": 1, "des": 1}
        assert accumulator.by_policy == {"fifo": 2}


class TestShardedExecution:
    @settings(max_examples=12, deadline=None)
    @given(population=st.integers(min_value=1, max_value=40),
           shards=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_shard_merge_matches_serial_bit_for_bit(self, population,
                                                    shards, seed):
        """Property: analytic shard-merged percentiles == serial run."""
        spec = CohortSpec(population=population, seed=seed,
                          member_duration_seconds=20.0)
        serial = run_cohort(spec, fast_path="analytic", shard_count=1,
                            validate_stride=0)
        sharded = run_cohort(spec, fast_path="analytic", shard_count=shards,
                             validate_stride=0)
        assert serial.rows() == sharded.rows()
        assert serial.overview()["policies"] == \
            sharded.overview()["policies"]

    def test_des_shard_merge_matches_serial_bit_for_bit(self):
        spec = CohortSpec(population=24, seed=3,
                          member_duration_seconds=15.0)
        serial = run_cohort(spec, fast_path="des", shard_count=1)
        sharded = run_cohort(spec, fast_path="des", shard_count=5)
        assert serial.rows() == sharded.rows()
        packets_serial = serial.accumulator.packet_latency
        packets_sharded = sharded.accumulator.packet_latency
        assert packets_serial.count == packets_sharded.count
        for percentile in (50.0, 90.0, 99.0):
            assert packets_serial.percentile(percentile) == \
                packets_sharded.percentile(percentile)

    def test_process_parallel_matches_in_process(self):
        spec = CohortSpec(population=16, seed=8,
                          member_duration_seconds=15.0)
        in_process = run_cohort(spec, fast_path="analytic", shard_count=4,
                                parallel=1, validate_stride=0)
        multi_process = run_cohort(spec, fast_path="analytic", shard_count=4,
                                   parallel=3, validate_stride=0)
        assert in_process.rows() == multi_process.rows()

    def test_validation_records_on_analytic_path(self):
        spec = CohortSpec(population=30, seed=0,
                          member_duration_seconds=20.0)
        result = run_cohort(spec, fast_path="analytic", validate_stride=10)
        assert [record.index for record in result.validations] == [0, 10, 20]
        errors = result.max_validation_errors()
        assert not errors.beyond(ANALYTIC), errors
        assert any("validated 3 member(s)" in line
                   for line in result.summary_lines())

    @pytest.mark.parametrize("validate_stride, expected", [
        # Block starts (0, MEMBER_BLOCK, the one-member last block) and
        # the middle of a block.
        (MEMBER_BLOCK // 2, [0, MEMBER_BLOCK // 2, MEMBER_BLOCK,
                             3 * MEMBER_BLOCK // 2, 2 * MEMBER_BLOCK]),
        # Last and second-to-last positions of a block.
        (MEMBER_BLOCK - 1, [0, MEMBER_BLOCK - 1, 2 * MEMBER_BLOCK - 2]),
    ])
    def test_validation_members_match_spec_member(self, monkeypatch,
                                                  validate_stride, expected):
        """Validation members come from the block the shard already drew;
        each equals the member ``CohortSpec.member`` expands on its own."""
        spec = CohortSpec(population=2 * MEMBER_BLOCK + 1, seed=5,
                          member_duration_seconds=10.0)
        simulated = []
        simulate = engine._simulate_member

        def recording(member, fast_path=None):
            simulated.append(member)
            return simulate(member, fast_path)

        monkeypatch.setattr(engine, "_simulate_member", recording)
        result = run_cohort(spec, fast_path="analytic",
                            validate_stride=validate_stride)
        assert [member.index for member in simulated] == expected
        assert [record.index for record in result.validations] == expected
        for member in simulated:
            reference = spec.member(member.index)
            assert member.seed == reference.seed
            assert dataclasses.asdict(member.scenario) \
                == dataclasses.asdict(reference.scenario)

    def test_des_path_never_validates(self):
        spec = CohortSpec(population=6, seed=0,
                          member_duration_seconds=10.0)
        result = run_cohort(spec, fast_path="des", validate_stride=2)
        assert result.validations == ()
        assert result.max_validation_errors() == {}

    def test_unknown_fast_path_rejected(self):
        spec = CohortSpec(population=4)
        with pytest.raises(ScenarioError, match="fast path"):
            run_cohort(spec, fast_path="quantum")

    def test_non_positive_shard_count_rejected(self):
        spec = CohortSpec(population=4)
        with pytest.raises(ScenarioError, match="shard count"):
            run_cohort(spec, shard_count=0)

    def test_shard_count_clamped_to_population(self):
        spec = CohortSpec(population=3, seed=0,
                          member_duration_seconds=10.0)
        result = run_cohort(spec, fast_path="analytic", shard_count=16,
                            validate_stride=0)
        assert result.shard_count == 3
        assert result.accumulator.population == 3

    def test_no_member_results_are_materialised(self):
        spec = CohortSpec(population=25, seed=1,
                          member_duration_seconds=10.0)
        result = run_cohort(spec, fast_path="analytic", validate_stride=0)
        # The result carries aggregates only: bounded accumulators, no
        # per-member list of any kind.
        assert not hasattr(result, "members")
        assert not hasattr(result, "results")
        for accumulator in result.accumulator.metrics.values():
            assert accumulator.retained_samples <= accumulator.exact_capacity


class TestEncodedFrames:
    def test_run_returns_frames_and_timings(self):
        spec = CohortSpec(population=20, seed=4,
                          member_duration_seconds=10.0)
        result = run_cohort(spec, fast_path="analytic", shard_count=4,
                            validate_stride=0)
        assert len(result.frames) == 4
        assert result.encoded_bytes == sum(len(f) for f in result.frames)
        assert result.encoded_bytes > 0
        assert result.encode_seconds > 0.0
        assert result.decode_seconds > 0.0
        assert any("codec:" in line for line in result.summary_lines())

    def test_keep_members_retains_rows_through_frames(self):
        spec = CohortSpec(population=12, seed=7,
                          member_duration_seconds=10.0)
        kept = run_cohort(spec, fast_path="analytic", shard_count=3,
                          validate_stride=0, keep_members=True)
        assert kept.keep_members
        assert [m.index for m in kept.accumulator.members] == list(range(12))
        dropped = run_cohort(spec, fast_path="analytic", shard_count=3,
                             validate_stride=0)
        assert dropped.accumulator.members == []
        # Aggregates are unaffected by retention.
        assert kept.rows() == dropped.rows()

    def test_uncompressed_run_matches_compressed(self):
        spec = CohortSpec(population=15, seed=2,
                          member_duration_seconds=10.0)
        zlib_run = run_cohort(spec, fast_path="analytic", shard_count=2,
                              validate_stride=0, compression="zlib")
        raw_run = run_cohort(spec, fast_path="analytic", shard_count=2,
                             validate_stride=0, compression="none")
        assert zlib_run.rows() == raw_run.rows()
        assert zlib_run.encoded_bytes < raw_run.encoded_bytes


class TestPopulationScale:
    def test_10k_analytic_cohort_in_seconds_with_flat_memory(self):
        """The headline acceptance target: 10 000 wearers through the
        vectorised fast path, a sampled subset cross-validated on the
        DES, everything streamed into bounded accumulators."""
        spec = CohortSpec(population=10_000, seed=0)
        result = run_cohort(spec, fast_path="analytic", shard_count=8,
                            parallel=1, validate_stride=2500)
        assert result.accumulator.population == 10_000
        assert result.elapsed_seconds < 60.0
        # No per-member result list: every metric accumulator is bounded
        # by its exact window regardless of population.
        for accumulator in result.accumulator.metrics.values():
            assert accumulator.retained_samples <= accumulator.exact_capacity
        errors = result.max_validation_errors()
        assert not errors.beyond(ANALYTIC), errors

    def test_sharded_des_cohort_keeps_packet_latencies(self):
        spec = CohortSpec(population=60, seed=1, member_duration_seconds=30.0)
        result = run_cohort(spec, fast_path="des", shard_count=4, parallel=1)
        assert result.accumulator.population == 60
        assert result.accumulator.by_source == {"des": 60}
        # Shard-merged packet statistics stay live across the merge.
        packets = result.accumulator.packet_latency
        assert packets.count == result.accumulator.delivered_packets
        assert packets.percentile(99.0) > packets.percentile(50.0) > 0.0
