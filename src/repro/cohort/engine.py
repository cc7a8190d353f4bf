"""Sharded cohort execution with streaming merge over binary frames.

The engine expands a :class:`~repro.cohort.spec.CohortSpec` into
contiguous member shards, runs each shard through a worker (on the same
process pool the sweep runner uses), and merges the results in shard
order.  A worker never ships a pickled accumulator: it encodes its
:class:`~repro.cohort.aggregate.CohortAccumulator` into one binary
:mod:`~repro.cohort.codec` frame and returns the bytes, which the
parent folds in via :meth:`CohortAccumulator.merge_encoded` — so what
crosses the process boundary is exactly what lands in the on-disk
artifact, one codepath end to end.

Because member seeds depend only on the member index and shard ranges
are contiguous, the merged statistics are bit-identical to a
single-process run at the same seed (while the population fits the
accumulators' exact window) — the property the shard-parallel tests pin,
now *through* the codec round trip.

Each member executes either on the discrete-event simulator
(``fast_path="des"``) or through the vectorised steady-state
approximation (``fast_path="analytic"``); with the analytic path, every
``validate_stride``-th member is *also* simulated and the deviation
recorded, so a cohort run carries its own evidence that the fast path is
inside its validity envelope.

The analytic path is columnar end to end: a shard is drawn, evaluated
and folded into its accumulator in fixed-size member blocks
(:data:`~repro.cohort.spec.MEMBER_BLOCK`), as arrays, so its memory does not grow with
the shard.  Only DES and validated members are expanded into a
:class:`~repro.scenarios.spec.ScenarioSpec`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ScenarioError
from ..runner.sweep import PoolFailure, run_pool
from .aggregate import CohortAccumulator, MemberMetrics, ValidationRecord
from .analytic import draw_rows, evaluate_rows
from .codec import DEFAULT_COMPRESSION, ShardFrame, encode_shard
from .spec import MEMBER_BLOCK, CohortMember, CohortSpec

#: Recognised execution paths.  ``"hybrid"`` runs every member on the
#: DES with the macro-tick steady-state fast path enabled (see
#: :mod:`repro.netsim.macrotick`) — exact event replay with closed-form
#: leaps over stationary segments.
FAST_PATHS = ("analytic", "des", "hybrid")

#: Default sampling stride of the analytic path's DES cross-check; one
#: validated member per ``VALIDATE_STRIDE`` keeps the overhead marginal.
DEFAULT_VALIDATE_STRIDE = 1000


def shard_bounds(population: int, shard_count: int,
                 shard_index: int) -> tuple[int, int]:
    """Contiguous member range of one shard (first shards get the slack)."""
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise ScenarioError(
            f"shard {shard_index} outside [0, {shard_count})")
    base, extra = divmod(population, shard_count)
    start = shard_index * base + min(shard_index, extra)
    stop = start + base + (1 if shard_index < extra else 0)
    return start, stop


def _simulate_member(member: CohortMember, fast_path: str | None = None):
    """Run one member on the DES; returns (metrics, packet accumulator).

    ``fast_path="hybrid"`` enables the macro-tick engine for the run;
    ``None`` keeps the bit-exact kernel.
    """
    simulator = member.scenario.build(seed=member.seed)
    result = simulator.run(member.scenario.duration_seconds,
                           fast_path=fast_path)
    metrics = MemberMetrics.from_simulation(member.index, member.scenario,
                                            result)
    return metrics, simulator.bus.stats.latency


def _run_shard(spec: CohortSpec, shard_index: int, shard_count: int,
               fast_path: str, validate_stride: int,
               keep_members: bool = False) -> ShardFrame:
    """Execute one contiguous member range into an in-memory frame."""
    started = time.perf_counter()
    start, stop = shard_bounds(spec.population, shard_count, shard_index)
    accumulator = CohortAccumulator(keep_members=keep_members)
    validations: list[ValidationRecord] = []

    if fast_path in ("des", "hybrid"):
        member_path = "hybrid" if fast_path == "hybrid" else None
        for member in spec.members(start, stop):
            metrics, packets = _simulate_member(member, member_path)
            accumulator.add(metrics)
            accumulator.packet_latency.merge(packets)
    else:
        for block in range(start, stop, MEMBER_BLOCK):
            block_stop = min(block + MEMBER_BLOCK, stop)
            draws = spec.draw(block, block_stop)
            columns = evaluate_rows(draw_rows(draws))
            accumulator.add_columns(columns)
            if validate_stride == 0:
                continue
            first = -(-block // validate_stride) * validate_stride
            for index in range(first, block_stop, validate_stride):
                # The sampled cross-check runs on the hybrid DES: leaps
                # keep the validation affordable at population scale and
                # the hybrid path is itself envelope-validated against
                # the exact kernel.
                member = draws.member_at(index - block)
                metrics = columns.row(index - block)
                des_metrics, _ = _simulate_member(member, "hybrid")
                validations.append(ValidationRecord(
                    index=member.index,
                    scenario=member.scenario.name,
                    arbitration=member.scenario.arbitration,
                    analytic_leaf_power_watts=metrics.leaf_power_watts,
                    des_leaf_power_watts=des_metrics.leaf_power_watts,
                    analytic_delivered_fraction=metrics.delivered_fraction,
                    des_delivered_fraction=des_metrics.delivered_fraction,
                    analytic_mean_latency_seconds=(
                        metrics.mean_latency_seconds),
                    des_mean_latency_seconds=(
                        des_metrics.mean_latency_seconds),
                    analytic_alive_fraction=metrics.alive_fraction,
                    des_alive_fraction=des_metrics.alive_fraction,
                ))

    return ShardFrame(
        shard_index=shard_index,
        start=start,
        stop=stop,
        accumulator=accumulator,
        validations=tuple(validations),
        elapsed_seconds=time.perf_counter() - started,
    )


def _run_shard_encoded(spec: CohortSpec, shard_index: int, shard_count: int,
                       fast_path: str, validate_stride: int,
                       keep_members: bool,
                       compression: str) -> tuple[bytes, float]:
    """Worker entry point: run one shard and return its encoded frame.

    Returns ``(frame_bytes, encode_seconds)``; the bytes — not a pickled
    accumulator — are what travels back over the process pool.
    """
    frame = _run_shard(spec, shard_index, shard_count, fast_path,
                       validate_stride, keep_members)
    started = time.perf_counter()
    blob = encode_shard(frame, compression=compression)
    return blob, time.perf_counter() - started


@dataclass(frozen=True)
class CohortResult:
    """Outcome of one cohort run: streaming aggregates plus provenance."""

    spec: CohortSpec
    fast_path: str
    shard_count: int
    parallel: int
    accumulator: CohortAccumulator
    validations: tuple[ValidationRecord, ...]
    elapsed_seconds: float
    shard_elapsed_seconds: tuple[float, ...] = ()
    #: The encoded shard frames, in shard order — exactly the bytes the
    #: workers returned, ready to be concatenated into a binary artifact.
    frames: tuple[bytes, ...] = ()
    #: Whether members were retained (and are present in :attr:`frames`).
    keep_members: bool = False
    #: Outer compression of :attr:`frames`.
    compression: str = DEFAULT_COMPRESSION
    #: Total wall time spent encoding frames (across workers).
    encode_seconds: float = 0.0
    #: Total wall time spent decoding frames during the streaming merge.
    decode_seconds: float = 0.0

    @property
    def encoded_bytes(self) -> int:
        """Total size of the encoded shard frames."""
        return sum(len(frame) for frame in self.frames)

    def rows(self) -> list[dict[str, object]]:
        """Cohort summary table: one row per member metric."""
        return self.accumulator.summary_rows()

    def overview(self) -> dict[str, object]:
        overview = dict(self.accumulator.overview())
        overview.update({
            "fast_path": self.fast_path,
            "shards": self.shard_count,
            "elapsed_s": round(self.elapsed_seconds, 3),
        })
        if self.shard_elapsed_seconds:
            # Shard balance at a glance: a straggler shard shows up as a
            # slowest-shard time far above elapsed / shards.
            overview["slowest_shard_s"] = round(
                max(self.shard_elapsed_seconds), 3)
        return overview

    def validation_rows(self) -> list[dict[str, object]]:
        return [record.row() for record in self.validations]

    def max_validation_errors(self) -> dict[str, float]:
        """Worst observed analytic-vs-DES deviations (empty when unvalidated)."""
        if not self.validations:
            return {}
        return {
            "leaf_power_rel_error": max(
                record.leaf_power_rel_error for record in self.validations),
            "delivered_fraction_abs_error": max(
                record.delivered_fraction_abs_error
                for record in self.validations),
            "mean_latency_factor": max(
                record.mean_latency_factor for record in self.validations),
            "alive_fraction_abs_error": max(
                record.alive_fraction_abs_error
                for record in self.validations),
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"population {self.spec.population} via {self.fast_path} path, "
            f"{self.shard_count} shard(s), "
            f"{self.elapsed_seconds:.2f}s wall",
            "policy mix: " + str(self.accumulator.overview()["policies"]),
        ]
        if self.frames:
            lines.append(
                f"codec: {len(self.frames)} frame(s), "
                f"{self.encoded_bytes} bytes ({self.compression}), "
                f"encode {self.encode_seconds * 1e3:.1f}ms / "
                f"decode {self.decode_seconds * 1e3:.1f}ms")
        errors = self.max_validation_errors()
        if errors:
            lines.append(
                f"validated {len(self.validations)} member(s) against the "
                f"DES: leaf power within "
                f"{errors['leaf_power_rel_error'] * 100.0:.1f}%, delivered "
                f"fraction within {errors['delivered_fraction_abs_error']:.3f}, "
                f"latency within {errors['mean_latency_factor']:.2f}x")
        return lines


def run_cohort(spec: CohortSpec, *, fast_path: str = "analytic",
               shard_count: int | None = None, parallel: int = 1,
               validate_stride: int = DEFAULT_VALIDATE_STRIDE,
               keep_members: bool = False,
               compression: str = DEFAULT_COMPRESSION) -> CohortResult:
    """Execute a whole cohort as sharded batches and merge the aggregates.

    ``shard_count`` defaults to ``parallel`` (one shard per worker);
    shards run on the shared runner pool, return encoded binary frames,
    and are merged in shard order via the codec, so the result does not
    depend on scheduling *or* on whether the shard ran in-process.
    ``validate_stride`` controls the analytic path's sampled DES
    cross-check (0 disables it; it is ignored on the DES path, which
    *is* the reference).  ``keep_members=True`` retains raw member rows
    inside the frames for debugging; ``compression`` selects the frames'
    outer compression (``"zlib"`` default, ``"none"``, or ``"zstd"``
    when the optional package is installed).
    """
    if fast_path not in FAST_PATHS:
        raise ScenarioError(
            f"unknown fast path {fast_path!r} (known: "
            f"{', '.join(FAST_PATHS)})")
    if parallel < 1:
        raise ScenarioError("parallel must be >= 1")
    if validate_stride < 0:
        raise ScenarioError("validate stride must be >= 0")
    if shard_count is None:
        shard_count = parallel
    elif shard_count < 1:
        raise ScenarioError("shard count must be >= 1")
    shard_count = min(shard_count, spec.population)

    started = time.perf_counter()
    outcomes = run_pool(
        _run_shard_encoded,
        [(spec, index, shard_count, fast_path, validate_stride,
          keep_members, compression)
         for index in range(shard_count)],
        parallel,
    )
    failures = [(index, outcome) for index, outcome in enumerate(outcomes)
                if isinstance(outcome, PoolFailure)]
    if failures:
        index, failure = failures[0]
        raise ScenarioError(
            f"cohort shard {index}/{shard_count} failed: {failure.kind}: "
            f"{failure.message}\nworker traceback:\n{failure.traceback}")

    merged = CohortAccumulator(keep_members=keep_members)
    validations: list[ValidationRecord] = []
    frames: list[bytes] = []
    shard_elapsed: list[float] = []
    encode_seconds = 0.0
    decode_started = time.perf_counter()
    for blob, shard_encode_seconds in outcomes:  # run_pool keeps shard order
        decoded = merged.merge_encoded(blob)
        validations.extend(decoded.validations)
        frames.append(blob)
        shard_elapsed.append(decoded.elapsed_seconds)
        encode_seconds += shard_encode_seconds
    decode_seconds = time.perf_counter() - decode_started

    return CohortResult(
        spec=spec,
        fast_path=fast_path,
        shard_count=shard_count,
        parallel=parallel,
        accumulator=merged,
        validations=tuple(validations),
        elapsed_seconds=time.perf_counter() - started,
        shard_elapsed_seconds=tuple(shard_elapsed),
        frames=tuple(frames),
        keep_members=keep_members,
        compression=compression,
        encode_seconds=encode_seconds,
        decode_seconds=decode_seconds,
    )
