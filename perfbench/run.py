"""Body-network benchmark: one workload per run, one JSON line at the end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dense_exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` prints the end-to-end metrics: set-up time, the median
wall time of one pass and the throughputs derived from it (in reference
seconds, which take out the host's drifting speed, see calibration.py),
peak memory, and the fidelity of each fast path against the exact
kernel (reported as ``1 + gap``, so a workload with no fast path for a
quantity reads exactly 1).  ``--trace 1`` runs untraced passes for half the time and
traced passes for the other half, and prints per-layer self times and
counts per traced pass, the time no layer accounts for, and the tracing
overhead.  ``--slow-layer NAME`` makes one layer's public functions
twice as slow (the layer sensitivity self-check, see selfcheck.py).

Everything runs in this process on one core (``parallel=1``, no process
pool), except the set-up probes: each is a fresh interpreter that
imports the package from an uncompiled copy of ``src/`` (a cold compile
cache) and builds the workload's inputs.  ``--workload all`` runs each
workload in its own child process, so peak memory never carries over.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
re-starts itself once with ``PYTHONHASHSEED=0``.  The program is
built from ``src/`` of the checkout this file sits in; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dense_exact", "crowd_hybrid", "cohort_analytic",
                  "cohort_hybrid")

#: Set-up probes per run; setup_s is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "packets_per_s": "1/s",
    "members_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "offered_gap": "ratio",
    "goodput_gap": "ratio",
    "leaf_energy_gap": "ratio",
    "alive_gap": "ratio",
    "validation_power_gap": "ratio",
    "validation_delivered_gap": "ratio",
}

PER_LAYER_UNITS = {
    "scenarios.build_s": "s",
    "scenarios.builds": "count",
    "netsim.run_s": "s",
    "netsim.kernel_s": "s",
    "netsim.runs": "count",
    "netsim.kernel_packets_per_s": "1/s",
    "netsim.kernel_entries": "count",
    "macrotick.try_calls": "count",
    "macrotick.leaps": "count",
    "macrotick.refusals": "count",
    "macrotick.leap_s": "s",
    "macrotick.leapt_share": "ratio",
    "environment.schedule_s": "s",
    "environment.epochs": "count",
    "control.evaluations": "count",
    "control.actions": "count",
    "control.eval_s": "s",
    "energy.drains": "count",
    "energy.advances": "count",
    "energy.s": "s",
    "stats.merges": "count",
    "stats.merged_samples": "count",
    "stats.merge_s": "s",
    "stats.merge_incl_s": "s",
    "cohort.members_expanded": "count",
    "cohort.expand_s": "s",
    "cohort.evaluated": "count",
    "cohort.evaluate_s": "s",
    "cohort.adds": "count",
    "cohort.accumulate_s": "s",
    "sketch.adds": "count",
    "sketch.add_s": "s",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.bytes": "count",
    "codec.encode_mb_per_s": "MB/s",
    "unaccounted_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


#: Span durations including nested layers (not part of the self-time sum).
INCLUSIVE_METRICS = ("netsim.run_s", "stats.merge_incl_s")


def import_program(src: Path) -> None:
    """Put *src* first on the path; fail unless the package is there."""
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def setup_probe(workload: str, seed: int, src: Path) -> None:
    """Child side of a set-up probe: cold import, then build the inputs.

    Prints the host speed it sampled while working and the time the
    samples cost, for the parent to scale the probe's lifetime with.
    """
    from calibration import Scaled
    with Scaled() as timing:
        import_program(src)
        from workloads import WORKLOADS
        WORKLOADS[workload].prepare(seed)
    print(json.dumps({"speed": timing.speed,
                      "sampling_seconds": timing.sampling_seconds}))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time of fresh interpreters, in reference seconds.

    A probe's lifetime, process start to exit, is measured here and
    scaled by the host speed the probe sampled itself (calibration.py).
    """
    raw, scaled = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as cold:
        shutil.copytree(SRC / "repro", Path(cold) / "repro",
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "*.pyc"))
        command = [sys.executable, "-B", str(Path(__file__).resolve()),
                   "--setup-probe", "--workload", workload,
                   "--seed", str(seed), "--src", cold]
        for _ in range(SETUP_PROBES):
            started = time.perf_counter()
            probe = subprocess.run(command, check=True, cwd=ROOT,
                                   stdout=subprocess.PIPE, text=True)
            elapsed = time.perf_counter() - started
            report = json.loads(probe.stdout.strip().splitlines()[-1])
            raw.append(elapsed - report["sampling_seconds"])
            scaled.append(raw[-1] * report["speed"])
    print(f"{workload}: set-up median {statistics.median(raw):.4f} s "
          "measured")
    return statistics.median(scaled)


def measure(workload, seed: int, seconds: float, checks, tracer=None,
            slow: str | None = None):
    """Timed passes until *seconds* elapse; (pass timings, first output).

    Each pass is timed in reference seconds (see calibration.py).
    """
    import layers
    from calibration import Scaled
    timings: list[Scaled] = []
    first = None
    with layers.instrument(tracer, slow):
        deadline = time.perf_counter() + seconds
        while not timings or time.perf_counter() < deadline:
            state = workload.prepare(seed)
            gc.collect()
            span = (tracer.pass_span() if tracer is not None
                    else contextlib.nullcontext())
            with Scaled() as timing, span:
                result = workload.run(state)
            timings.append(timing)
            output = workload.output(state, result)
            first = first or output
            workload.check(output, first, checks)
            del state, result, output
    return timings, first


def median_pass(name: str, timings) -> float:
    """Median pass in reference seconds; prints the measured seconds."""
    raw = [timing.raw_seconds for timing in timings]
    calibration = statistics.median(timing.calibration for timing in timings)
    print(f"{name}: {len(raw)} pass(es), measured min {min(raw):.4f} "
          f"median {statistics.median(raw):.4f} max {max(raw):.4f} s, "
          f"calibration median {calibration * 1e3:.3f} ms")
    return statistics.median(timing.seconds for timing in timings)


def fidelity(workload, seed: int, first, checks) -> dict[str, float]:
    """Gaps against the exact-kernel reference, made outside the timing."""
    from workloads import GAP_NAMES
    gaps, exact_digest = workload.compare(first, workload.reference(seed),
                                          checks)
    print(f"result digest: {first.digest}")
    if exact_digest is not None:
        print(f"exact-kernel digest: {exact_digest}")
    for name, value in gaps.items():
        print(f"{name} (raw): {value:.6g}")
    return {name: 1.0 + gaps.get(name, 0.0) for name in GAP_NAMES}


def end_to_end(workload, seed: int, seconds: float, checks,
               slow: str | None) -> dict[str, float]:
    setup = measure_setup(workload.name, seed)
    timings, first = measure(workload, seed, seconds, checks, slow=slow)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = median_pass(workload.name, timings)
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "packets_per_s": first.delivered_packets / wall,
        "members_per_s": first.bodies / wall,
        "peak_rss_mib": peak_rss,
    }
    metrics.update(fidelity(workload, seed, first, checks))
    return metrics


def per_layer(workload, seed: int, seconds: float, checks,
              slow: str | None) -> dict[str, float]:
    from layers import Tracer
    untraced, first = measure(workload, seed, seconds / 2.0, checks,
                              slow=slow)
    tracer = Tracer()
    traced, _ = measure(workload, seed, seconds / 2.0, checks, tracer,
                        slow=slow)
    passes = len(traced)
    # Layer times are totals over the traced passes: scale them by the
    # traced passes' total reference over total measured seconds.
    scale = (math.fsum(timing.seconds for timing in traced)
             / math.fsum(timing.raw_seconds for timing in traced))
    self_seconds = tracer.self_seconds
    counts = tracer.counts
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for totals, factor in ((self_seconds, scale),
                           (tracer.inclusive_seconds, scale), (counts, 1.0)):
        for name, total in totals.items():
            if name in metrics:
                metrics[name] = total * factor / passes
    metrics.update(tracer.gauges)
    kernel = metrics["netsim.kernel_s"] * passes
    metrics["netsim.kernel_packets_per_s"] = (
        counts["netsim.packets"] / kernel if kernel else 0.0)
    simulated = counts["netsim.simulated_s"]
    metrics["macrotick.leapt_share"] = (
        counts["macrotick.leapt_s"] / simulated if simulated else 0.0)
    encode = metrics["codec.encode_s"] * passes
    metrics["codec.encode_mb_per_s"] = (
        counts["codec.bytes"] / encode / 1e6 if encode else 0.0)
    metrics["trace.wall_s"] = median_pass(f"{workload.name} traced", traced)
    metrics["trace.untraced_wall_s"] = median_pass(
        f"{workload.name} untraced", untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    report_layers(workload.name, metrics, passes)
    return metrics


def report_layers(name: str, metrics: dict[str, float], passes: int) -> None:
    """Human-readable per-layer table (self time as a share of a pass)."""
    wall = metrics["trace.wall_s"]
    print(f"{name}: per traced pass ({passes} pass(es)), self time "
          f"share of the traced wall {wall:.4f} s")
    for metric, unit in PER_LAYER_UNITS.items():
        value = metrics[metric]
        share = (f"  {100.0 * value / wall:5.1f}%"
                 if unit == "s" and not metric.startswith("trace.")
                 and metric not in INCLUSIVE_METRICS else "")
        print(f"  {metric:28s} {value:14.6g} {unit}{share}")


def run_one(arguments) -> int:
    import_program(SRC)
    from layers import SLOWABLE
    from workloads import WORKLOADS, Checks
    if arguments.slow_layer not in (None,) + SLOWABLE:
        print(f"error: unknown layer {arguments.slow_layer!r} (known: "
              f"{', '.join(SLOWABLE)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[arguments.workload]
    checks = Checks()
    if arguments.trace:
        metrics = per_layer(workload, arguments.seed, arguments.seconds,
                            checks, arguments.slow_layer)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(workload, arguments.seed, arguments.seconds,
                             checks, arguments.slow_layer)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(arguments) -> int:
    """Every workload in its own child process, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(arguments.seed),
                   "--seconds", str(arguments.seconds),
                   "--trace", str(arguments.trace)]
        if arguments.slow_layer:
            command += ["--slow-layer", arguments.slow_layer]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
        print(child.stdout, end="")
        if child.returncode != 0 and not child.stdout.strip():
            return child.returncode
        status = status or child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(f"{'metric':28s} " + " ".join(f"{name:>16s}"
                                        for name in WORKLOAD_NAMES))
    units = PER_LAYER_UNITS if arguments.trace else END_TO_END_UNITS
    for metric, unit in units.items():
        values = [summary["metrics"][f"{name}.{metric}"]["value"]
                  for name in WORKLOAD_NAMES]
        print(f"{metric:28s} " + " ".join(f"{value:16.6g}"
                                          for value in values) + f"  {unit}")
    print(json.dumps(summary))
    return status


def pin_hash_seed() -> None:
    """Re-start this interpreter with string hashing fixed.

    Randomised hashing changes dict and set layouts from one process to
    the next, which shows up as run-to-run noise in the timings.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slow-layer", default=None, metavar="LAYER",
                        help="make one layer's public functions 2x slower")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--src", type=Path, default=SRC,
                        help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    if arguments.setup_probe:
        setup_probe(arguments.workload, arguments.seed, arguments.src)
        return 0
    if arguments.workload == "all":
        return run_all(arguments)
    return run_one(arguments)


if __name__ == "__main__":
    pin_hash_seed()
    raise SystemExit(main())
