"""The four benchmark workloads, their output checks and fidelity gaps.

A workload has three parts: ``prepare(seed)`` builds its inputs (not
timed: it is the set-up a user pays once), ``run(state)`` is one timed
pass, and ``reference(seed)`` re-runs the same inputs on the exact
kernel, the repository's most detailed model, outside the timed region.
``check`` validates each pass; ``compare`` checks a pass against the
reference and returns the fidelity gaps (0 where the workload has no
fast path for that quantity).

The model is not validated against Wi-R hardware: every gap is the
error of a fast path against the exact kernel of the same commit.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from typing import Any

from repro.cohort import Categorical, CohortSpec, run_cohort
from repro.netsim import macrotick
from repro.runner.artifacts import canonical_json
from repro.scenarios import get_environment, get_scenario

#: Fidelity gaps every workload reports (reported as ``1 + gap``).
GAP_NAMES = ("offered_gap", "goodput_gap", "leaf_energy_gap", "alive_gap",
             "validation_power_gap", "validation_delivered_gap")

#: Analytic-vs-DES validation bounds (as in benchmarks/test_bench_cohort.py).
VALIDATION_POWER_REL = 0.10
VALIDATION_DELIVERED_ABS = 0.05
VALIDATION_LATENCY_FACTOR = 3.0


def digest(value: object) -> str:
    """Short content hash of a JSON-able value (canonical encoding)."""
    blob = canonical_json(value).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def relative_gap(fast: float, exact: float) -> float:
    return abs(fast - exact) / abs(exact)


class Checks:
    """Output checks, counted as operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass(frozen=True)
class PassOutput:
    """What one timed pass produced, reduced for checks and metrics."""

    result: Any
    digest: str
    delivered_packets: int
    bodies: int


class Workload:
    name = ""

    def prepare(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def output(self, state: Any, result: Any) -> PassOutput:
        raise NotImplementedError

    def check(self, output: PassOutput, first: PassOutput,
              checks: Checks) -> None:
        """Per-pass checks; every pass must repeat the first bit for bit."""
        checks.expect(output.digest == first.digest,
                      f"{self.name}: pass digest {output.digest} differs "
                      f"from the first pass's {first.digest}")

    def reference(self, seed: int) -> Any:
        return None

    def compare(self, output: PassOutput, reference: Any,
                checks: Checks) -> tuple[dict[str, float], str | None]:
        """Envelope checks against the reference; (gaps, exact digest)."""
        return {}, None


class DenseExact(Workload):
    """dense_50_leaf for one simulated hour on the exact kernel."""

    name = "dense_exact"

    def prepare(self, seed: int) -> Any:
        spec = get_scenario("dense_50_leaf")
        return spec, spec.build(seed=seed)

    def run(self, state: Any) -> Any:
        spec, simulator = state
        return simulator.run(spec.duration_seconds)

    def output(self, state: Any, result: Any) -> PassOutput:
        return PassOutput(result=(state[1], result),
                          digest=digest(result.to_dict()),
                          delivered_packets=result.delivered_packets,
                          bodies=1)

    def check(self, output: PassOutput, first: PassOutput,
              checks: Checks) -> None:
        super().check(output, first, checks)
        simulator, result = output.result
        checks.expect(result.delivered_packets == result.offered_packets,
                      f"dense_exact: delivered {result.delivered_packets} "
                      f"!= offered {result.offered_packets}")
        latency = simulator.bus.stats.latency
        checks.expect(not latency.is_exact and latency.retained_samples == 0
                      and latency.count == result.delivered_packets,
                      "dense_exact: latency accumulator did not spill to "
                      f"0 retained samples ({latency.retained_samples})")

    def compare(self, output: PassOutput, reference: Any,
                checks: Checks) -> tuple[dict[str, float], str | None]:
        # The workload *is* the exact kernel: its pass digest is the
        # exact-kernel digest and it has no fast path to be off by.
        return {}, output.digest


class CrowdHybrid(Workload):
    """commuter_train (12 bodies, PER-backoff control) on the hybrid."""

    name = "crowd_hybrid"
    environment = "commuter_train"

    def prepare(self, seed: int) -> Any:
        environment = get_environment(self.environment).build(seed=seed)
        environment.interference_schedule()
        return environment

    def run(self, state: Any) -> Any:
        return state.run(fast_path="hybrid")

    def output(self, state: Any, result: Any) -> PassOutput:
        bodies = result.body_results
        return PassOutput(
            result=result,
            digest=digest([body.to_dict() for body in bodies]),
            delivered_packets=sum(body.delivered_packets for body in bodies),
            bodies=len(bodies))

    def reference(self, seed: int) -> Any:
        return get_environment(self.environment).build(seed=seed).run()

    def compare(self, output: PassOutput, reference: Any,
                checks: Checks) -> tuple[dict[str, float], str | None]:
        fast = output.result.body_results
        exact = reference.body_results
        for name, hybrid, kernel in zip(output.result.body_names, fast,
                                        exact):
            envelope(checks, f"crowd_hybrid body {name}",
                     hybrid.total_leaf_power_watts,
                     kernel.total_leaf_power_watts,
                     hybrid.delivered_fraction, kernel.delivered_fraction,
                     hybrid.mean_latency_seconds,
                     kernel.mean_latency_seconds)

        def total(results, field) -> float:
            return math.fsum(field(result) for result in results)

        def goodput(result) -> float:
            return math.fsum(result.per_node_goodput_bps.values())

        def leaf_energy(result) -> float:
            return result.total_leaf_power_watts * result.duration_seconds

        def offered(result) -> float:
            return result.offered_packets

        def alive(result) -> float:
            return result.alive_fraction

        gaps = {
            "offered_gap": relative_gap(total(fast, offered),
                                        total(exact, offered)),
            "goodput_gap": relative_gap(total(fast, goodput),
                                        total(exact, goodput)),
            "leaf_energy_gap": relative_gap(total(fast, leaf_energy),
                                            total(exact, leaf_energy)),
            "alive_gap": abs(total(fast, alive) - total(exact, alive))
            / len(fast),
        }
        return gaps, digest([body.to_dict() for body in exact])


def envelope(checks: Checks, label: str, power: float, exact_power: float,
             delivered: float, exact_delivered: float, latency: float,
             exact_latency: float) -> None:
    """The documented macro-tick agreement envelope, hybrid vs exact."""
    checks.expect(abs(power - exact_power)
                  <= macrotick.POWER_REL_TOL * exact_power,
                  f"{label}: leaf power {power:.6g} W vs exact "
                  f"{exact_power:.6g} W")
    checks.expect(abs(delivered - exact_delivered)
                  <= macrotick.DELIVERED_ABS_TOL,
                  f"{label}: delivered fraction {delivered:.4f} vs exact "
                  f"{exact_delivered:.4f}")
    ratio = latency / exact_latency
    checks.expect(1.0 / macrotick.MEAN_LATENCY_FACTOR < ratio
                  < macrotick.MEAN_LATENCY_FACTOR,
                  f"{label}: mean latency ratio {ratio:.3f}")


def cohort_digest(result: Any) -> str:
    """Digest of a cohort's statistics (timings and frames excluded)."""
    accumulator = result.accumulator
    return digest({"overview": accumulator.overview(),
                   "summary": accumulator.summary_rows(),
                   "validations": [record.row()
                                   for record in result.validations]})


class CohortAnalytic(Workload):
    """~100k analytic members, one shard, a DES check every 1000th."""

    name = "cohort_analytic"
    population = 100_000
    validate_stride = 1000

    def prepare(self, seed: int) -> Any:
        return CohortSpec(population=self.population, seed=seed)

    def run(self, state: Any) -> Any:
        return run_cohort(state, fast_path="analytic", shard_count=1,
                          parallel=1, validate_stride=self.validate_stride)

    def output(self, state: Any, result: Any) -> PassOutput:
        return PassOutput(result=result, digest=cohort_digest(result),
                          delivered_packets=result.accumulator
                          .delivered_packets,
                          bodies=result.accumulator.population)

    def check(self, output: PassOutput, first: PassOutput,
              checks: Checks) -> None:
        super().check(output, first, checks)
        result = output.result
        accumulator = result.accumulator
        checks.expect(accumulator.population == self.population
                      and accumulator.by_source == {
                          "analytic": self.population},
                      f"cohort_analytic: population {accumulator.population}"
                      f" by source {accumulator.by_source}")
        for name, metric in accumulator.metrics.items():
            checks.expect(not metric.is_exact and metric.retained_samples
                          <= metric.exact_capacity,
                          f"cohort_analytic: metric {name} not bounded "
                          f"past its exact window")
        expected = -(-self.population // self.validate_stride)
        checks.expect(len(result.validations) == expected,
                      f"cohort_analytic: {len(result.validations)} "
                      f"validations, expected {expected}")

    def compare(self, output: PassOutput, reference: Any,
                checks: Checks) -> tuple[dict[str, float], str | None]:
        # The cohort's own analytic-vs-DES records are the reference.
        errors = output.result.max_validation_errors()
        checks.expect(errors["leaf_power_rel_error"] < VALIDATION_POWER_REL,
                      f"cohort_analytic: leaf power error {errors}")
        checks.expect(errors["delivered_fraction_abs_error"]
                      < VALIDATION_DELIVERED_ABS,
                      f"cohort_analytic: delivered error {errors}")
        checks.expect(errors["mean_latency_factor"]
                      < VALIDATION_LATENCY_FACTOR,
                      f"cohort_analytic: latency factor {errors}")
        gaps = {
            "validation_power_gap": errors["leaf_power_rel_error"],
            "validation_delivered_gap":
                errors["delivered_fraction_abs_error"],
        }
        return gaps, None


class CohortHybrid(Workload):
    """500 DES members of 60 s on the hybrid, half on a scaled CR2032."""

    name = "cohort_hybrid"
    population = 500

    def prepare(self, seed: int) -> Any:
        return CohortSpec(population=self.population, seed=seed,
                          member_duration_seconds=60.0,
                          batteries=Categorical(choices=("cr2032", ""),
                                                weights=(0.5, 0.5)),
                          battery_scale=2e-6)

    def run(self, state: Any) -> Any:
        return run_cohort(state, fast_path="hybrid", shard_count=1,
                          parallel=1)

    def output(self, state: Any, result: Any) -> PassOutput:
        return PassOutput(result=result, digest=cohort_digest(result),
                          delivered_packets=result.accumulator
                          .delivered_packets,
                          bodies=result.accumulator.population)

    def check(self, output: PassOutput, first: PassOutput,
              checks: Checks) -> None:
        super().check(output, first, checks)
        accumulator = output.result.accumulator
        checks.expect(accumulator.population == self.population
                      and accumulator.by_source == {"des": self.population},
                      f"cohort_hybrid: population {accumulator.population}"
                      f" by source {accumulator.by_source}")
        checks.expect(accumulator.packet_latency.count
                      == accumulator.delivered_packets,
                      "cohort_hybrid: merged packet latencies "
                      f"{accumulator.packet_latency.count} != delivered "
                      f"{accumulator.delivered_packets}")

    def reference(self, seed: int) -> Any:
        return run_cohort(self.prepare(seed), fast_path="des",
                          shard_count=1, parallel=1)

    def compare(self, output: PassOutput, reference: Any,
                checks: Checks) -> tuple[dict[str, float], str | None]:
        fast = output.result.accumulator
        exact = reference.accumulator

        def mean(accumulator, metric: str) -> float:
            return accumulator.metrics[metric].mean

        envelope(checks, "cohort_hybrid cohort mean",
                 mean(fast, "leaf_power_watts"),
                 mean(exact, "leaf_power_watts"),
                 mean(fast, "delivered_fraction"),
                 mean(exact, "delivered_fraction"),
                 mean(fast, "mean_latency_seconds"),
                 mean(exact, "mean_latency_seconds"))
        gaps = {
            # Cohort members report delivered packets, not goodput
            # bits, so the delivered packet count stands in for goodput.
            "goodput_gap": relative_gap(fast.delivered_packets,
                                        exact.delivered_packets),
            "leaf_energy_gap": relative_gap(
                mean(fast, "leaf_energy_joules"),
                mean(exact, "leaf_energy_joules")),
            "alive_gap": abs(mean(fast, "alive_fraction")
                             - mean(exact, "alive_fraction")),
        }
        return gaps, cohort_digest(reference)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        DenseExact(), CrowdHybrid(), CohortAnalytic(), CohortHybrid())}
