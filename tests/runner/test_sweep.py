"""Tests for the parallel sweep runner and its cache."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.runner import SweepRunner, derive_seed, expand_grid
from repro.runner import resolve as resolve_spec
from repro.runner.sweep import derive_seeds

#: Small, fast scaling grid used throughout these tests.
SCALING_GRID = {"seed": [0, 1], "simulated_seconds": [0.25],
                "node_counts": [(1, 2, 4)]}


class TestExpandGrid:
    def test_empty_grid_is_one_task(self):
        assert expand_grid({}) == [{}]

    def test_cartesian_product_in_key_order(self):
        points = expand_grid({"b": [1, 2], "a": ["x"]})
        assert points == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]

    def test_string_axis_rejected(self):
        with pytest.raises(SweepError):
            expand_grid({"a": "xy"})

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError):
            expand_grid({"a": []})

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(SweepError, match="more than once"):
            expand_grid({"seed": [0, 1, 0]})

    def test_equal_but_distinct_typed_values_accepted(self):
        # 0 and 0.0 compare equal but are distinct configurations (the
        # digest encoding is type-preserving), so both may be swept.
        points = expand_grid({"x": [0, 0.0]})
        assert len(points) == 2


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "scaling", {"x": 1}) == \
            derive_seed(0, "scaling", {"x": 1})

    def test_varies_with_params_and_base(self):
        seeds = {derive_seed(0, "scaling", {"x": 1}),
                 derive_seed(0, "scaling", {"x": 2}),
                 derive_seed(1, "scaling", {"x": 1}),
                 derive_seed(0, "fig1", {"x": 1})}
        assert len(seeds) == 4

    def test_fits_in_32_bits(self):
        assert 0 <= derive_seed(0, "scaling", {}) < 2 ** 32

    @given(base=st.one_of(st.sampled_from([0, 2**32 - 1]),
                          st.integers(0, 2**32 - 1)),
           experiment=st.one_of(
               st.sampled_from(["cohort:cohort", "100%", "%d%%s",
                                'say "hi"', "{braces}", "wear\u00e9\u2713"]),
               st.text(max_size=16)),
           key=st.sampled_from(["member", "x%", 'k"{}\u00e9']),
           start=st.one_of(st.sampled_from([0, 8, 9, 10, 999_990, 999_999]),
                           st.integers(-100, 10**7)),
           length=st.integers(0, 24))
    @example(base=0, experiment="cohort:cohort", key="member", start=5,
             length=0)
    @example(base=2**32 - 1, experiment="50% {\"\u00fc\"}", key="member",
             start=8, length=4)
    @example(base=0, experiment="%s%", key="member", start=999_998,
             length=4)
    @settings(max_examples=80, deadline=None)
    def test_block_derivation_equals_one_at_a_time(self, base, experiment,
                                                   key, start, length):
        """The byte-template block form equals :func:`derive_seed` per
        value, across digit-count boundaries (9 -> 10, 999,999 ->
        1,000,000), empty ranges, extreme bases and experiment names
        holding ``%``, quotes, braces and non-ASCII characters."""
        values = range(start, start + length)
        seeds = derive_seeds(base, experiment, key, values)
        assert seeds.dtype == np.uint32
        assert seeds.tolist() == [derive_seed(base, experiment, {key: value})
                                  for value in values]


class TestTaskConstruction:
    def test_seed_injected_when_accepted_and_unpinned(self):
        runner = SweepRunner(out_dir=None)
        tasks = runner.tasks("scaling", {"simulated_seconds": [0.25, 0.5]})
        assert all("seed" in task.kwargs for task in tasks)
        assert tasks[0].kwargs["seed"] != tasks[1].kwargs["seed"]

    def test_pinned_seed_not_overridden(self):
        runner = SweepRunner(out_dir=None)
        tasks = runner.tasks("scaling", {"seed": [7]})
        assert tasks[0].kwargs["seed"] == 7

    def test_defaults_merged_into_kwargs(self):
        runner = SweepRunner(out_dir=None)
        task = runner.tasks("scaling", {"seed": [0]})[0]
        assert task.kwargs["simulated_seconds"] == 1.0

    def test_invalid_parallel_rejected(self):
        with pytest.raises(SweepError):
            SweepRunner(parallel=0)

    def test_unknown_grid_key_rejected(self):
        runner = SweepRunner(out_dir=None)
        with pytest.raises(SweepError, match="bogus"):
            runner.tasks("scaling", {"bogus": [1, 2]})

    def test_unknown_override_rejected_for_single_run(self):
        runner = SweepRunner(out_dir=None)
        with pytest.raises(SweepError, match="bogus"):
            runner.run_experiment("fig2", {"bogus": 1})

    def test_string_grid_values_coerced_to_enums(self):
        from repro.core.partition import PartitionObjective

        runner = SweepRunner(out_dir=None)
        by_value = runner.tasks("partition", {"objective": ["leaf_energy"]})
        by_name = runner.tasks("partition", {"objective": ["LEAF_ENERGY"]})
        as_enum = runner.tasks(
            "partition", {"objective": [PartitionObjective.LEAF_ENERGY]})
        assert by_value[0].kwargs["objective"] is PartitionObjective.LEAF_ENERGY
        assert by_name[0].kwargs["objective"] is PartitionObjective.LEAF_ENERGY
        # Equivalent spellings share one cache digest.
        assert by_value[0].digest == by_name[0].digest == as_enum[0].digest

    def test_single_run_keeps_driver_default_seed(self):
        # `repro run scaling` must match a direct run() call: the derived
        # sweep seed is only injected for grid tasks.
        runner = SweepRunner(out_dir=None, base_seed=99)
        task = runner._task(resolve_spec("scaling"), 0, {}, inject_seed=False)
        assert "seed" not in task.kwargs

    def test_unwritable_out_dir_warns_but_returns_results(self, tmp_path):
        blocker = tmp_path / "plain-file"
        blocker.write_text("not a directory")
        runner = SweepRunner(out_dir=blocker / "sub", parallel=1)
        result = runner.run_experiment("fig2")
        assert result.rows  # computed results survive the write failure
        assert result.path is None
        assert runner.warnings and "cannot write" in runner.warnings[0]


class TestSweepExecution:
    def test_parallel_matches_serial(self, tmp_path):
        serial = SweepRunner(out_dir=tmp_path / "serial", parallel=1)
        parallel = SweepRunner(out_dir=tmp_path / "parallel", parallel=2)
        rows_serial = serial.run_sweep("scaling", SCALING_GRID).rows()
        rows_parallel = parallel.run_sweep("scaling", SCALING_GRID).rows()
        assert rows_serial == rows_parallel

    def test_rerun_is_served_from_cache(self, tmp_path):
        runner = SweepRunner(out_dir=tmp_path, parallel=1)
        first = runner.run_sweep("scaling", SCALING_GRID)
        assert first.cached_count == 0
        second = runner.run_sweep("scaling", SCALING_GRID)
        assert second.cached_count == len(second.results)
        assert second.rows() == first.rows()

    def test_corrupted_artifact_is_a_cache_miss(self, tmp_path):
        runner = SweepRunner(out_dir=tmp_path, parallel=1)
        first = runner.run_experiment("fig2")
        first.path.write_text("truncated garbage")
        second = runner.run_experiment("fig2")
        assert not second.cached
        assert second.rows == first.rows  # artifact rewritten, result intact
        assert runner.run_experiment("fig2").cached

    def test_force_recomputes(self, tmp_path):
        runner = SweepRunner(out_dir=tmp_path, parallel=1)
        runner.run_sweep("scaling", SCALING_GRID)
        forced = SweepRunner(out_dir=tmp_path, parallel=1, force=True)
        result = forced.run_sweep("scaling", SCALING_GRID)
        assert result.cached_count == 0

    def test_artifacts_written_per_task_plus_manifest(self, tmp_path):
        runner = SweepRunner(out_dir=tmp_path, parallel=1)
        sweep = runner.run_sweep("scaling", SCALING_GRID)
        task_files = list(tmp_path.glob("scaling-*.json"))
        manifest_files = list(tmp_path.glob("sweep-scaling-*.json"))
        assert len(task_files) == len(sweep.results) == 2
        assert len(manifest_files) == 1
        assert sweep.manifest_path in manifest_files

    def test_default_grid_has_at_least_three_points(self):
        runner = SweepRunner(out_dir=None)
        tasks = runner.tasks("network_scaling")
        assert len(tasks) >= 3

    def test_no_out_dir_disables_artifacts(self):
        runner = SweepRunner(out_dir=None, parallel=1)
        sweep = runner.run_sweep("scaling", {"seed": [0],
                                             "simulated_seconds": [0.25],
                                             "node_counts": [(1, 2)]})
        assert sweep.manifest_path is None
        assert all(result.path is None for result in sweep.results)

    def test_run_many_covers_several_experiments(self, tmp_path):
        runner = SweepRunner(out_dir=tmp_path, parallel=1)
        results = runner.run_many(["fig2", "charging"])
        assert [result.task.experiment for result in results] == \
            ["fig2", "charging"]
        assert all(result.rows for result in results)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_parallel_failure_preserves_completed_results(self, tmp_path):
        from repro.errors import ReproError

        runner = SweepRunner(out_dir=tmp_path, parallel=2)
        with pytest.raises(ReproError):
            runner.run_sweep("fig1", {"mode": ["active", "bogus"]})
        # The successful 'active' task's artifact survived the batch failure
        # and is served from cache on retry.
        assert len(list(tmp_path.glob("fig1-*.json"))) == 1
        retry = runner.run_tasks(runner.tasks("fig1", {"mode": ["active"]}))
        assert retry[0].cached

    def test_duplicate_grid_points_rejected(self, tmp_path):
        runner = SweepRunner(out_dir=tmp_path, parallel=1)
        with pytest.raises(SweepError, match="seed"):
            runner.run_sweep("scaling", {"seed": [0, 0, 0],
                                         "simulated_seconds": [0.25],
                                         "node_counts": [(1, 2)]})
        assert not list(tmp_path.glob("scaling-*.json"))  # nothing executed

    def test_same_digest_within_batch_executes_once(self, tmp_path):
        # Duplicate *grids* are rejected, but equivalent spellings of one
        # configuration (enum name vs value) still collapse to a single
        # execution through the digest-based in-batch dedup.
        runner = SweepRunner(out_dir=tmp_path, parallel=1)
        results = runner.run_tasks(
            runner.tasks("partition",
                         {"objective": ["leaf_energy", "LEAF_ENERGY"]}))
        assert len(results) == 2
        assert sum(1 for result in results if result.deduplicated) == 1
        assert len(list(tmp_path.glob("partition-*.json"))) == 1

    def test_worker_failure_names_the_grid_point(self, tmp_path):
        runner = SweepRunner(out_dir=tmp_path, parallel=2)
        with pytest.raises(SweepError) as excinfo:
            runner.run_sweep("fig1", {"mode": ["active", "bogus"]})
        message = str(excinfo.value)
        assert "'mode': 'bogus'" in message  # the failing grid point
        assert "worker traceback" in message  # the remote traceback text
        assert "Traceback (most recent call last)" in message

    def test_serial_failure_preserves_completed_results(self, tmp_path):
        from repro.errors import ReproError

        runner = SweepRunner(out_dir=tmp_path, parallel=1)
        with pytest.raises(ReproError):
            runner.run_sweep("fig1", {"mode": ["active", "bogus"]})
        # The 'active' task ran first and its artifact survived.
        assert len(list(tmp_path.glob("fig1-*.json"))) == 1
        retry = runner.run_tasks(runner.tasks("fig1", {"mode": ["active"]}))
        assert retry[0].cached

    def test_serial_failure_propagates_the_original_error(self):
        # In-process failures keep their type and a clean message (the
        # CLI prints one line, not a traceback dump); only the process
        # boundary needs traceback capture.
        from repro.errors import ReproError, SweepError as SweepErrorType

        runner = SweepRunner(out_dir=None, parallel=1)
        with pytest.raises(ReproError, match="mode") as excinfo:
            runner.run_experiment("fig1", {"mode": "bogus"})
        assert not isinstance(excinfo.value, SweepErrorType)
        assert "worker traceback" not in str(excinfo.value)

    def test_rows_prefixed_with_grid_point(self):
        runner = SweepRunner(out_dir=None, parallel=1)
        sweep = runner.run_sweep("scaling", {"seed": [3],
                                             "simulated_seconds": [0.25],
                                             "node_counts": [(1, 2)]})
        for row in sweep.rows():
            assert row["seed"] == 3
            assert "nodes" in row
