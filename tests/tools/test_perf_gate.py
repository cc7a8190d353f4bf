"""The perf gate's comparator, fed synthetic perfbench run records.

No perfbench run happens here: each record has the shape of the summary
line ``perfbench/run.py --workload all`` prints, and the metrics, their
directions and bounds come from the repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "perf_gate", REPO_ROOT / "tools" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
METRICS = [metric["name"] for metric in SPEC["end_to_end"]]


def record(values: dict[str, float] | None = None, *, failed: int = 0,
           correct: bool = True, without: str | None = None) -> dict:
    """One ``--workload all`` summary: every metric reads 1 unless
    *values* says otherwise; *without* drops a workload's metrics."""
    metrics = {f"{workload}.{metric}": {"value": 1.0, "unit": "s"}
               for workload in WORKLOADS for metric in METRICS
               if workload != without}
    for key, value in (values or {}).items():
        metrics[key]["value"] = value
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": metrics}


def runs(count: int = 10, **kwargs) -> list[dict]:
    return [record(**kwargs) for _ in range(count)]


def failing(findings) -> list[tuple[str, str, str]]:
    return [(finding.workload, finding.metric, finding.verdict)
            for finding in findings if finding.verdict in perf_gate.FAILING]


def test_identical_records_pass():
    findings = perf_gate.compare(SPEC, runs(), runs())
    assert failing(findings) == []
    assert len(findings) == len(WORKLOADS) * len(METRICS)
    assert {finding.verdict for finding in findings} == {"ok"}


def test_doubled_wall_time_fails_and_names_the_workload():
    change = runs(values={"dense_exact.wall_s": 2.0})
    findings = perf_gate.compare(SPEC, runs(), change)
    assert failing(findings) == [("dense_exact", "wall_s", "worse")]
    lines = [finding.line() for finding in findings
             if finding.verdict == "worse"]
    assert lines[0].startswith("FAIL dense_exact wall_s: worse")


def test_halved_throughput_fails_a_higher_is_better_metric():
    change = runs(values={"crowd_hybrid.packets_per_s": 0.5})
    findings = perf_gate.compare(SPEC, runs(), change)
    assert failing(findings) == [("crowd_hybrid", "packets_per_s", "worse")]


def test_higher_throughput_and_lower_wall_time_pass():
    change = runs(values={"crowd_hybrid.packets_per_s": 2.0,
                          "crowd_hybrid.wall_s": 0.5})
    assert failing(perf_gate.compare(SPEC, runs(), change)) == []


def test_gap_inside_its_bound_passes():
    # wall_s may worsen by 25%, peak_rss_mib by 5%.
    change = runs(values={"cohort_hybrid.wall_s": 1.2,
                          "cohort_hybrid.peak_rss_mib": 1.04})
    assert failing(perf_gate.compare(SPEC, runs(), change)) == []
    change = runs(values={"cohort_hybrid.peak_rss_mib": 1.06})
    assert failing(perf_gate.compare(SPEC, runs(), change)) == [
        ("cohort_hybrid", "peak_rss_mib", "worse")]


def test_wide_parent_spread_reads_unresolved_and_does_not_fail():
    parent = [record({"dense_exact.wall_s": value})
              for value in (0.5, 1.5) * 5]
    change = runs(values={"dense_exact.wall_s": 1.4})
    findings = perf_gate.compare(SPEC, parent, change)
    assert failing(findings) == []
    verdicts = {(finding.workload, finding.metric): finding.verdict
                for finding in findings}
    assert verdicts[("dense_exact", "wall_s")] == "unresolved"
    # ...unless every change run beats every parent run.
    change = runs(values={"dense_exact.wall_s": 0.4})
    verdicts = {(finding.workload, finding.metric): finding.verdict
                for finding in perf_gate.compare(SPEC, parent, change)}
    assert verdicts[("dense_exact", "wall_s")] == "ok"


def test_higher_failed_share_fails():
    change = runs()
    change[3] = record(failed=1)
    assert failing(perf_gate.compare(SPEC, runs(), change)) == [
        ("all", "failed", "failed share")]
    # The same share on both sides is no regression.
    parent = runs()
    parent[7] = record(failed=1)
    assert failing(perf_gate.compare(SPEC, parent, change)) == []


def test_incorrect_change_run_fails():
    change = runs()
    change[0] = record(correct=False)
    assert failing(perf_gate.compare(SPEC, runs(), change)) == [
        ("all", "correct", "incorrect")]


def test_missing_workload_fails_on_every_metric():
    change = runs()
    change[5] = record(without="cohort_analytic")
    assert failing(perf_gate.compare(SPEC, runs(), change)) == [
        ("cohort_analytic", metric, "missing") for metric in METRICS]


def test_pairs_alternate_and_only_the_change_is_slowed(monkeypatch, capsys):
    calls = []

    def fake_run_tree(root, seconds, slow_layer):
        calls.append((root.name, seconds, slow_layer))
        slowed = slow_layer is not None
        return record({"dense_exact.wall_s": 2.0 if slowed else 1.0})

    monkeypatch.setattr(perf_gate, "run_tree", fake_run_tree)
    status = perf_gate.main([str(REPO_ROOT), str(REPO_ROOT / "tools"),
                             "--slow-layer", "netsim.run"])
    assert status == 1
    assert "FAIL dense_exact wall_s" in capsys.readouterr().out
    parent, change = REPO_ROOT.name, "tools"
    assert [name for name, _, _ in calls] == [
        parent, change, change, parent] * (perf_gate.PAIRS // 2)
    assert {seconds for _, seconds, _ in calls} == {SPEC["run_seconds"]}
    assert {(name, slow) for name, _, slow in calls} == {
        (parent, None), (change, "netsim.run")}


def test_json_record_holds_medians_spreads_and_verdicts(monkeypatch,
                                                        tmp_path):
    walls = iter([1.0, 0.8, 0.7, 1.2, 1.1, 0.9, 1.0, 0.8, 1.3, 0.9] * 2)

    def fake_run_tree(root, seconds, slow_layer):
        return record({"cohort_analytic.wall_s": next(walls)})

    monkeypatch.setattr(perf_gate, "run_tree", fake_run_tree)
    path = tmp_path / "bench.json"
    assert perf_gate.main([str(REPO_ROOT), str(REPO_ROOT / "tools"),
                           "--json", str(path)]) == 0
    written = json.loads(path.read_text())
    assert written["passed"] is True
    assert (written["pairs"], written["seed"]) == (perf_gate.PAIRS,
                                                   perf_gate.SEED)
    findings = {(entry["workload"], entry["metric"]): entry
                for entry in written["findings"]}
    assert set(findings) == {(workload, metric) for workload in WORKLOADS
                             for metric in METRICS}
    # Pairs alternate: parent, change, change, parent, ...
    sides = {"parent": [], "change": []}
    order = ["parent", "change", "change", "parent"] * 5
    for side, wall in zip(order, [1.0, 0.8, 0.7, 1.2, 1.1, 0.9, 1.0, 0.8,
                                  1.3, 0.9] * 2):
        sides[side].append(wall)
    wall = findings[("cohort_analytic", "wall_s")]
    assert wall["parent_median"] == perf_gate.statistics.median(
        sides["parent"])
    assert wall["change_median"] == perf_gate.statistics.median(
        sides["change"])
    assert wall["parent_spread"] == perf_gate.relative_spread(
        sides["parent"])
    assert wall["change_spread"] == perf_gate.relative_spread(
        sides["change"])
    assert wall["change_wins"] == sum(
        change < parent for parent, change in zip(sides["parent"],
                                                   sides["change"]))
    assert (wall["parent_values"], wall["change_values"]) == (
        sides["parent"], sides["change"])
    assert wall["verdict"] == "unresolved"
    flat = findings[("dense_exact", "peak_rss_mib")]
    assert (flat["parent_median"], flat["change_median"], flat["verdict"],
            flat["parent_spread"], flat["change_wins"]) == (
        1.0, 1.0, "ok", 0.0, 0)


def test_json_record_marks_a_failing_gate(monkeypatch, tmp_path):
    monkeypatch.setattr(
        perf_gate, "run_tree",
        lambda root, seconds, slow_layer: record(
            {"dense_exact.wall_s": 2.0 if slow_layer else 1.0}))
    path = tmp_path / "bench.json"
    assert perf_gate.main([str(REPO_ROOT), str(REPO_ROOT / "tools"),
                           "--slow-layer", "netsim.run",
                           "--json", str(path)]) == 1
    written = json.loads(path.read_text())
    assert written["passed"] is False
    assert written["slow_layer"] == "netsim.run"
    assert [(entry["workload"], entry["metric"]) for entry in
            written["findings"] if entry["verdict"] == "worse"] == [
        ("dense_exact", "wall_s")]


@pytest.mark.parametrize("parent, change, better, expected", [
    (1.0, 1.5, "lower", 0.5),
    (1.0, 0.5, "higher", 0.5),
    (2.0, 1.0, "lower", -0.5),
    (0.0, 0.0, "lower", 0.0),
])
def test_worsening_follows_the_metric_direction(parent, change, better,
                                                expected):
    assert perf_gate.worsening(parent, change, better) == expected


def committed(*numbers: int) -> list[dict]:
    return [json.loads((REPO_ROOT / f"BENCH_{number}.json").read_text())
            for number in numbers]


@pytest.mark.parametrize("numbers, expected", [
    ((27, 28, 29, 30), {"dense_exact": 0.865, "crowd_hybrid": 1.009,
                        "cohort_analytic": 0.909, "cohort_hybrid": 1.010}),
    ((27, 28, 29, 30, 31), {"dense_exact": 0.867, "crowd_hybrid": 1.035,
                            "cohort_analytic": 0.788,
                            "cohort_hybrid": 0.995}),
])
def test_trajectory_chains_the_committed_records(numbers, expected):
    chained = perf_gate.trajectory(committed(*numbers))
    for workload, ratio in expected.items():
        value, low, high, count = chained[(workload, "wall_s")]
        assert round(value, 3) == ratio
        assert low <= high
        assert count == len(numbers)


def gate_record(parent: list[float], change: list[float],
                metric: str = "wall_s") -> dict:
    return {"findings": [
        {"workload": "dense_exact", "metric": metric,
         "parent_median": perf_gate.statistics.median(parent),
         "change_median": perf_gate.statistics.median(change),
         "parent_values": parent, "change_values": change},
        {"workload": "dense_exact", "metric": "missing_one",
         "parent_median": None, "change_median": None},
        {"workload": "dense_exact", "metric": "zero",
         "parent_median": 0.0, "change_median": 0.0,
         "parent_values": [0.0], "change_values": [0.0]}]}


def test_trajectory_multiplies_ratios_and_pair_quartiles():
    first = gate_record([1.0, 2.0, 2.0, 4.0, 1.0], [0.5, 2.0, 1.0, 4.0, 1.0])
    second = gate_record([2.0, 2.0, 2.0], [3.0, 1.0, 2.0])
    chained = perf_gate.trajectory([first, second])
    assert set(chained) == {("dense_exact", "wall_s")}
    value, low, high, count = chained[("dense_exact", "wall_s")]
    assert value == (1.0 / 2.0) * (2.0 / 2.0)
    first_q = perf_gate.statistics.quantiles([0.5, 1.0, 0.5, 1.0, 1.0], n=4)
    second_q = perf_gate.statistics.quantiles([1.5, 0.5, 1.0], n=4)
    assert (low, high) == (first_q[0] * second_q[0], first_q[2] * second_q[2])
    assert count == 2


def test_trajectory_command_prints_each_chain(capsys):
    paths = [str(REPO_ROOT / f"BENCH_{number}.json")
             for number in (27, 28, 29, 30, 31)]
    assert perf_gate.main(["trajectory", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    wall = [line.split() for line in lines if " wall_s " in line]
    assert [(fields[0], fields[2], fields[4]) for fields in wall] == [
        ("dense_exact", "0.867", "5/5"), ("crowd_hybrid", "1.035", "5/5"),
        ("cohort_analytic", "0.788", "5/5"), ("cohort_hybrid", "0.995", "5/5")]
