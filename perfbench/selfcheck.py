"""Self-checks of the benchmark: run-to-run spread and layer sensitivity.

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py spread --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/selfcheck.py spread --workloads crowd_hybrid --seeds 90001
    python3 perfbench/selfcheck.py sensitivity

``spread`` runs ``run.py --trace 0`` once per seed and workload and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) next to a third of the metric's
bound from ``BENCHMARK.json``, plus the range of each fidelity gap and
the failed-check count.  Run on a seed not used while tuning, it is the
held-out-seed check.

``sensitivity`` slows one layer's public functions by 2x
(``run.py --slow-layer``) and requires three things per case:
``wall_s`` worsens past its bound on the workload that uses the layer,
stays inside the bound on a workload that skips it, and the traced run
on the using workload names the slowed layer as the one whose self
time grew most.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"

#: (slowed layer, workload that uses it, workload that skips it).
SENSITIVITY_CASES = (
    ("cohort.expand", "cohort_analytic", "dense_exact"),
    ("stats.merge", "cohort_hybrid", "dense_exact"),
    ("netsim.run", "dense_exact", "cohort_analytic"),
)

#: Self-time metric of each layer a case slows.
LAYER_METRICS = {
    "cohort.expand": "cohort.expand_s",
    "stats.merge": "stats.merge_s",
    "netsim.run": "netsim.kernel_s",
}


def run(workload: str, seed: int, seconds: float, trace: int,
        slow: str | None = None) -> dict:
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if slow is not None:
        command += ["--slow-layer", slow]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, check=True)
    return json.loads(child.stdout.strip().splitlines()[-1])


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(arguments) -> int:
    spec = benchmark_spec()
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    seconds = arguments.seconds or spec["run_seconds"]
    failed = 0
    for workload in arguments.workloads:
        values: dict[str, list[float]] = {}
        for seed in arguments.seeds:
            result = run(workload, seed, seconds, 0)
            failed += result["failed"]
            print(f"{workload} seed {seed}: attempted {result['attempted']}"
                  f" failed {result['failed']} wall_s "
                  f"{result['metrics']['wall_s']['value']:.4f}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(arguments.seeds)} seed(s)")
        print(f"  {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'min':>12s} {'max':>12s} {'spread':>8s} {'bound/3':>8s}")
        for name, series in values.items():
            median = statistics.median(series)
            if len(series) > 1:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = series[0]
            share = (q3 - q1) / median if median else 0.0
            print(f"  {name:26s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(series):12.6g} {max(series):12.6g} {share:8.4f} "
                  f"{bounds[name] / 3.0:8.4f}")
    print(f"failed checks: {failed}")
    return 0 if failed == 0 else 1


def sensitivity(arguments) -> int:
    spec = benchmark_spec()
    bound = next(metric["bound"] for metric in spec["end_to_end"]
                 if metric["name"] == "wall_s")
    seconds = arguments.seconds or spec["run_seconds"]
    seed = arguments.seed
    passed = True
    for layer, using, skipping in SENSITIVITY_CASES:
        print(f"slowing {layer} 2x:", flush=True)
        for workload, expect_move in ((using, True), (skipping, False)):
            base = run(workload, seed, seconds, 0)["metrics"]["wall_s"]
            slow = run(workload, seed, seconds, 0, layer)["metrics"]["wall_s"]
            change = slow["value"] / base["value"] - 1.0
            ok = change > bound if expect_move else change <= bound
            passed = passed and ok
            print(f"  {workload}: wall_s {base['value']:.4f} -> "
                  f"{slow['value']:.4f} s ({change:+.1%}, bound "
                  f"{bound:.0%}, expected "
                  f"{'past' if expect_move else 'inside'}): "
                  f"{'ok' if ok else 'FAIL'}", flush=True)
        base = run(using, seed, seconds, 1)["metrics"]
        slow = run(using, seed, seconds, 1, layer)["metrics"]
        growth = {name: slow[name]["value"] - base[name]["value"]
                  for name in slow
                  if slow[name]["unit"] == "s"
                  and not name.startswith("trace.")
                  and not name.endswith(("run_s", "incl_s"))}
        named = max(growth, key=growth.get)
        ok = named == LAYER_METRICS[layer]
        passed = passed and ok
        print(f"  traced {using}: largest self-time growth {named} "
              f"(+{growth[named]:.4f} s per pass): "
              f"{'ok' if ok else 'FAIL'}", flush=True)
    print("sensitivity self-check", "passed" if passed else "FAILED")
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    spread_parser = commands.add_parser("spread")
    spread_parser.add_argument(
        "--workloads", nargs="+",
        default=["dense_exact", "crowd_hybrid", "cohort_analytic",
                 "cohort_hybrid"])
    spread_parser.add_argument("--seeds", nargs="+", type=int,
                               default=list(range(1, 11)))
    spread_parser.add_argument("--seconds", type=float, default=None)
    sensitivity_parser = commands.add_parser("sensitivity")
    sensitivity_parser.add_argument("--seed", type=int, default=1)
    sensitivity_parser.add_argument("--seconds", type=float, default=None)
    arguments = parser.parse_args(argv)
    if arguments.command == "spread":
        return spread(arguments)
    return sensitivity(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
