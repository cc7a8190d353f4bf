"""Parent/change performance gate over perfbench.

Usage (from anywhere)::

    python3 tools/perf_gate.py PARENT CHANGE
    python3 tools/perf_gate.py PARENT CHANGE --json BENCH_<pr>.json
    python3 tools/perf_gate.py . . --slow-layer netsim.run
    python3 tools/perf_gate.py trajectory BENCH_*.json [more.json]

PARENT and CHANGE are two checkouts.  The gate runs ten pairs of
``perfbench/run.py --workload all --seed 1 --seconds <run_seconds>
--trace 0``, each tree with its own ``run.py``; the parent runs first
in odd pairs and the change in even ones.  ``run_seconds``, the
workloads and every end-to-end metric's ``better`` direction and
``bound`` come from the parent's ``BENCHMARK.json``, so a change cannot
loosen its own gate (``perfbench/README.md`` explains the metrics).

Per workload and metric the medians are compared.  A metric whose
parent runs spread wider than its bound (interquartile distance over
the median) is *unresolved*, reported and not failed, unless every
change run beats every parent run.  The gate exits 1 on a resolved
regression past the bound, on a change run that reads
``correct: false``, on a higher share of failed operations than the
parent's, and on a workload or metric missing from either side.  Every
failing line starts with ``FAIL <workload> <metric>``.

``--slow-layer LAYER`` is handed to the change side's ``run.py`` only:
slowing ``netsim.run`` must fail the gate on ``dense_exact`` ``wall_s``,
which is how the gate proves it can fail.

``--json PATH`` also writes the findings as one JSON record: per
workload and metric the parent and change medians, both sides' relative
spreads, the number of pairs the change read better in, every run's
value and the verdict.  A PR commits that record as its
``BENCH_<pr>.json``, so the trajectory of every metric is data.

``trajectory RECORD...`` reads such records and prints, per workload
and metric, the product of each record's change/parent median ratio:
the change since the first record's parent.  Raw medians drift between
records of the same tree, so only the ratios chain.  The band beside it
chains each record's per-pair ratios (change over parent, pair by pair)
at their lower and upper quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

PAIRS = 10
SEED = 1

#: Verdicts that fail the gate.
FAILING = ("worse", "missing", "incorrect", "failed share")


class Finding(NamedTuple):
    workload: str
    metric: str
    verdict: str
    detail: str
    #: Medians and relative spreads of both sides, the number of pairs
    #: the change read better in, and every run's value, pair by pair
    #: (compared metrics only).
    parent_median: float | None = None
    change_median: float | None = None
    parent_spread: float | None = None
    change_spread: float | None = None
    change_wins: int | None = None
    parent_values: list[float] | None = None
    change_values: list[float] | None = None

    def line(self) -> str:
        mark = "FAIL" if self.verdict in FAILING else "    "
        return (f"{mark} {self.workload} {self.metric}: {self.verdict}"
                f" ({self.detail})")


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse *change* reads than *parent*, as a share of it."""
    if parent == 0.0:
        return 0.0 if change == parent else float("inf")
    gap = (change - parent) / abs(parent)
    return gap if better == "lower" else -gap


def relative_spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 for one value)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0.0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def compare_metric(workload: str, metric: dict, parent: list[float],
                   change: list[float]) -> Finding:
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    p_median = statistics.median(parent)
    c_median = statistics.median(change)
    worse = worsening(p_median, c_median, better)
    spread = relative_spread(parent)
    all_beat = (max(change) < min(parent) if better == "lower"
                else min(change) > max(parent))
    detail = (f"parent {p_median:.6g}, change {c_median:.6g} "
              f"{metric.get('unit', '')}, worsening {worse:+.1%}, bound "
              f"{bound:.0%}, parent spread {spread:.1%}")
    if spread > bound and not all_beat:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "worse"
    else:
        verdict = "ok"
    wins = sum(worsening(p, c, better) < 0.0
               for p, c in zip(parent, change))
    return Finding(workload, name, verdict, detail, p_median, c_median,
                   spread, relative_spread(change), wins, parent, change)


def values_of(runs: list[dict], key: str) -> list[float] | None:
    """The metric *key* of every run, or None when a run lacks it."""
    values = []
    for run in runs:
        metric = run["metrics"].get(key)
        if metric is None:
            return None
        values.append(metric["value"])
    return values


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return failed / attempted if attempted else 0.0


def compare(spec: dict, parent_runs: list[dict],
            change_runs: list[dict]) -> list[Finding]:
    """Every finding of the gate on the run records of both sides."""
    findings = []
    incorrect = sum(not run["correct"] for run in change_runs)
    if incorrect:
        findings.append(Finding("all", "correct", "incorrect",
                                f"{incorrect} change run(s) read "
                                "correct: false"))
    shares = failed_share(parent_runs), failed_share(change_runs)
    if shares[1] > shares[0]:
        findings.append(Finding("all", "failed", "failed share",
                                f"parent {shares[0]:.3%}, change "
                                f"{shares[1]:.3%} of operations failed"))
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            parent = values_of(parent_runs, key)
            change = values_of(change_runs, key)
            if not parent or not change:
                side = "parent" if not parent else "change"
                findings.append(Finding(workload, metric["name"], "missing",
                                        f"absent from a {side} run"))
                continue
            findings.append(compare_metric(workload, metric, parent,
                                           change))
    return findings


def run_tree(root: Path, seconds: float, slow_layer: str | None) -> dict:
    """One ``perfbench/run.py --workload all`` pass of *root*."""
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", "all", "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", "0"]
    if slow_layer:
        command += ["--slow-layer", slow_layer]
    child = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                           text=True)
    lines = child.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"{root}: run.py exited {child.returncode} without a result",
              flush=True)
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": {}}
    return json.loads(lines[-1])


def summary(findings: list[Finding], slow_layer: str | None) -> dict:
    """The gate run as plain data, the ``--json`` output."""
    return {
        "pairs": PAIRS,
        "seed": SEED,
        "slow_layer": slow_layer,
        "passed": not any(finding.verdict in FAILING
                          for finding in findings),
        "findings": [finding._asdict() for finding in findings],
    }


def trajectory(records: list[dict]) -> dict[tuple[str, str], tuple]:
    """``(chained ratio, band low, band high, records chained)`` per
    ``(workload, metric)``, over the findings that hold both medians.

    A finding with a zero parent median has no ratio and is skipped.
    """
    chains: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for finding in record["findings"]:
            parent = finding.get("parent_median")
            change = finding.get("change_median")
            if parent is None or change is None or parent == 0.0:
                continue
            pairs = [c / p for p, c in zip(finding["parent_values"],
                                           finding["change_values"])
                     if p != 0.0]
            q1, _, q3 = (statistics.quantiles(pairs, n=4)
                         if len(pairs) > 1 else pairs * 3)
            chain = chains.setdefault(
                (finding["workload"], finding["metric"]), [1.0, 1.0, 1.0, 0])
            chain[0] *= change / parent
            chain[1] *= q1
            chain[2] *= q3
            chain[3] += 1
    return {key: tuple(chain) for key, chain in chains.items()}


def print_trajectory(paths: list[Path]) -> int:
    records = [json.loads(path.read_text()) for path in paths]
    print(f"{'workload':<16} {'metric':<26} {'chained':>8} "
          f"{'pair-ratio band':>17} records")
    for (workload, metric), (ratio, low, high, count) in \
            trajectory(records).items():
        print(f"{workload:<16} {metric:<26} {ratio:>8.3f} "
              f"{low:>8.3f}..{high:<7.3f} {count}/{len(records)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["trajectory"]:
        parser = argparse.ArgumentParser(
            prog="perf_gate.py trajectory",
            description="chain gate records' change/parent ratios")
        parser.add_argument("records", type=Path, nargs="+")
        return print_trajectory(parser.parse_args(argv[1:]).records)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--slow-layer", default=None, metavar="LAYER",
                        help="slow one layer 2x on the change side")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the findings to PATH as JSON")
    arguments = parser.parse_args(argv)
    parent, change = arguments.parent.resolve(), arguments.change.resolve()
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    sides = {"parent": (parent, None),
             "change": (change, arguments.slow_layer)}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            root, slow = sides[side]
            record = run_tree(root, spec["run_seconds"], slow)
            runs[side].append(record)
            print(f"pair {pair}/{PAIRS} {side}: correct "
                  f"{record['correct']}, failed {record['failed']}/"
                  f"{record['attempted']}", flush=True)
    findings = compare(spec, runs["parent"], runs["change"])
    for finding in findings:
        print(finding.line())
    failures = [finding for finding in findings if finding.verdict in FAILING]
    unresolved = sum(finding.verdict == "unresolved" for finding in findings)
    print(f"perf gate {'FAILED' if failures else 'passed'}: "
          f"{len(failures)} failing, {unresolved} unresolved, "
          f"{len(findings)} findings over {PAIRS} pairs")
    if arguments.json is not None:
        arguments.json.write_text(json.dumps(
            summary(findings, arguments.slow_layer), indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
