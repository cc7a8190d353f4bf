"""Process-parallel execution of experiments and parameter sweeps.

A :class:`SweepRunner` expands a parameter grid into tasks, derives a
deterministic per-task seed, fans the tasks out over a
``ProcessPoolExecutor`` and serialises every result to a JSON artifact
(see :mod:`repro.runner.artifacts`).  Because the seeds depend only on
the base seed and the task parameters — never on scheduling order — a
parallel sweep produces bit-identical rows to a serial one, and a
re-run of an unchanged sweep is served entirely from the artifact cache.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import hashlib
import inspect
import itertools
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import ArtifactError, SweepError
from .artifacts import (
    artifact_path,
    canonical_json,
    digest_key,
    load_artifact,
    sanitize,
    write_artifact,
)
from .registry import ExperimentSpec, resolve

#: Default artifact directory for CLI invocations.
DEFAULT_OUT_DIR = Path("artifacts")


def derive_seed(base_seed: int, experiment: str,
                params: Mapping[str, object]) -> int:
    """Deterministic 32-bit seed for one task, independent of schedule order."""
    blob = canonical_json({"base": base_seed, "experiment": experiment,
                           "params": params})
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def derive_seeds(base_seed: int, experiment: str, key: str,
                 values: Iterable[int]) -> np.ndarray:
    """``derive_seed(base_seed, experiment, {key: value})`` for each int,
    as a ``uint32`` array.

    The canonical JSON around the value is encoded once, as a bytes
    ``%d`` template; per seed only the integer is spliced in and hashed,
    and the seeds are read from the joined digests in one go.
    """
    blob = canonical_json({"base": base_seed, "experiment": experiment,
                           "params": {key: 0}})
    # The single parameter value is the last token of the encoding.
    head, _, tail = blob.rpartition("0")
    template = "%d".join(part.replace("%", "%%")
                         for part in (head, tail)).encode("utf-8")
    sha256 = hashlib.sha256
    digests = b"".join([sha256(template % value).digest()
                        for value in values])
    # The first big-endian 32-bit word of each 32-byte digest.
    return np.frombuffer(digests, dtype=">u4")[::8].astype(np.uint32)


def _split_values(values: str) -> list[str]:
    """Split on commas outside brackets and quotes, so tuple values like
    ``(1,2)`` and quoted strings like ``"a,b"`` survive intact."""
    tokens: list[str] = []
    depth = 0
    quote: str | None = None
    current = ""
    for character in values:
        if quote is not None:
            if character == quote:
                quote = None
        elif character in "'\"":
            quote = character
        elif character in "([{":
            depth += 1
        elif character in ")]}":
            depth -= 1
        if character == "," and depth == 0 and quote is None:
            tokens.append(current)
            current = ""
        else:
            current += character
    tokens.append(current)
    return [token for token in tokens if token.strip()]


def parse_grid(assignments: Sequence[str]) -> dict[str, list[object]]:
    """Parse ``key=v1,v2,...`` assignments into a sweep grid.

    The single grid-resolution front end shared by ``repro run --grid``
    and ``repro sweep --grid``, so both commands accept the same syntax
    and emit identical error messages.  Values are
    ``ast.literal_eval``-ed when possible (ints, floats, tuples like
    ``(1,2,4)``) and kept as strings otherwise.
    """
    grid: dict[str, list[object]] = {}
    for assignment in assignments:
        key, separator, values = assignment.partition("=")
        key = key.strip()
        if not separator or not key or not values.strip():
            raise SweepError(
                f"grid assignment {assignment!r} is not of the form key=v1,v2,..."
            )
        if key in grid:
            raise SweepError(f"grid key {key!r} given more than once")
        parsed: list[object] = []
        for token in _split_values(values):
            token = token.strip()
            try:
                parsed.append(ast.literal_eval(token))
            except (ValueError, SyntaxError):
                # Bare words are legitimate string values; anything that
                # *looks* like a literal (brackets, quotes, leading digit
                # or sign, float words like inf/nan) but fails to parse is
                # a user mistake — erroring here beats a TypeError deep
                # inside the experiment.
                if token.lstrip("+-").lower() in ("inf", "infinity", "nan"):
                    try:
                        parsed.append(float(token))
                    except ValueError:
                        raise SweepError(
                            f"grid value {token!r} for {key!r} is not a "
                            "valid Python literal"
                        ) from None
                elif token[0] in "([{'\"+-" or token[0].isdigit():
                    raise SweepError(
                        f"grid value {token!r} for {key!r} is not a valid "
                        "Python literal"
                    ) from None
                else:
                    parsed.append(token)
        grid[key] = parsed
    return grid


def expand_grid(grid: Mapping[str, Sequence[object]]) -> list[dict[str, object]]:
    """Cartesian product of the grid axes, in deterministic key order.

    An axis listing the same value twice would expand into duplicate grid
    points — almost always a typo (``seed=0,0``) that silently halves the
    intended sweep — so duplicates are rejected rather than deduplicated.
    """
    if not grid:
        return [{}]
    keys = sorted(grid)
    for key in keys:
        values = grid[key]
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise SweepError(f"grid axis {key!r} must be a sequence of values")
        if len(values) == 0:
            raise SweepError(f"grid axis {key!r} is empty")
        seen: set[str] = set()
        for value in values:
            encoded = canonical_json(value)
            if encoded in seen:
                raise SweepError(
                    f"grid axis {key!r} lists the value {value!r} more than "
                    "once; duplicate grid points are rejected")
            seen.add(encoded)
    return [dict(zip(keys, combination))
            for combination in itertools.product(*(grid[key] for key in keys))]


@dataclass(frozen=True)
class PoolFailure:
    """One worker failure, with the traceback captured inside the worker.

    ``ProcessPoolExecutor`` loses the remote traceback when an exception
    crosses the process boundary; capturing it as text in the worker and
    shipping it back keeps the real failure site visible to the caller.
    """

    kind: str
    message: str
    traceback: str


def _traced_call(function: Callable[..., object], *args: object) -> object:
    """Run one payload, converting any exception into a PoolFailure."""
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 — every failure must travel back
        return PoolFailure(kind=type(error).__name__, message=str(error),
                           traceback=traceback.format_exc())


def run_pool(function: Callable[..., object],
             payloads: Sequence[tuple],
             parallel: int) -> list[object]:
    """Map *function* over argument tuples, serially or process-parallel.

    On the process-parallel path the returned list is aligned with
    *payloads* and each element is either the function's return value or
    a :class:`PoolFailure` describing what went wrong in that worker —
    Python drops the remote traceback at the process boundary, so it is
    captured as text inside the worker, and every payload is attempted
    so completed work is never discarded.  The serial in-process path
    simply raises: the exception still carries its own traceback and a
    clean user-input error must stay a one-line error, not a dump.  This
    is the pool the sweep runner and the cohort engine share.
    """
    if parallel < 1:
        raise SweepError("parallel must be >= 1")
    if parallel > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(_traced_call, function, *payload)
                       for payload in payloads]
            return [future.result() for future in futures]
    return [function(*payload) for payload in payloads]


@dataclass(frozen=True)
class SweepTask:
    """One fully resolved unit of work."""

    experiment: str
    index: int
    params: dict[str, object]
    kwargs: dict[str, object]
    digest: str


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task: rows plus provenance.

    ``cached`` means served from an on-disk artifact; ``deduplicated``
    means this task repeated another grid point in the same batch and
    reused its result (fresh or cached) without executing again.
    """

    task: SweepTask
    rows: list[dict[str, object]]
    summary: list[str]
    cached: bool
    elapsed_seconds: float
    path: Path | None
    deduplicated: bool = False
    #: Schema-versioned ``to_dict()`` payload of the experiment result,
    #: when the result type provides one (e.g.
    #: :meth:`repro.netsim.simulator.SimulationResult.to_dict`); round-
    #: trips through the artifact cache so cached tasks keep it too.
    result_document: dict[str, object] | None = None


@dataclass(frozen=True)
class SweepResult:
    """All task results of one sweep, in grid order."""

    experiment: str
    grid: dict[str, tuple[object, ...]]
    results: tuple[TaskResult, ...]
    manifest_path: Path | None = None

    @property
    def cached_count(self) -> int:
        return sum(1 for result in self.results if result.cached)

    def rows(self) -> list[dict[str, object]]:
        """Combined report: every task's rows prefixed with its grid point."""
        combined: list[dict[str, object]] = []
        for result in self.results:
            for row in result.rows:
                combined.append({**{key: sanitize(value)
                                    for key, value in result.task.params.items()},
                                 **row})
        return combined


def _execute(experiment: str, kwargs: Mapping[str, object]) -> dict[str, object]:
    """Worker entry point: run one task and return a picklable payload."""
    spec = resolve(experiment)
    started = time.perf_counter()
    result = spec.run(**kwargs)
    elapsed = time.perf_counter() - started
    to_dict = getattr(result, "to_dict", None)
    return {
        "rows": sanitize(spec.extract_rows(result)),
        "summary": spec.summary_lines(result),
        "elapsed_seconds": elapsed,
        "result": to_dict() if callable(to_dict) else None,
    }


@dataclass
class SweepRunner:
    """Execute experiments — singly or as grids — with caching and parallelism.

    Parameters
    ----------
    out_dir:
        Directory receiving one JSON artifact per task; ``None`` disables
        artifact writing (and therefore caching).
    parallel:
        Worker process count; ``1`` executes in-process.
    base_seed:
        Root of the deterministic per-task seed derivation.
    force:
        Recompute even when a matching artifact already exists.
    """

    out_dir: Path | None = DEFAULT_OUT_DIR
    parallel: int = 1
    base_seed: int = 0
    force: bool = False

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise SweepError("parallel must be >= 1")
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)
        #: Non-fatal problems (e.g. unwritable artifact directory); results
        #: are still returned, callers decide how loudly to surface these.
        self.warnings: list[str] = []

    # -- task construction -------------------------------------------------

    @staticmethod
    def _validate_params(spec: ExperimentSpec,
                         params: Mapping[str, object]) -> None:
        unknown = [key for key in params if not spec.accepts(key)]
        if unknown:
            raise SweepError(
                f"experiment {spec.id!r} does not accept parameter(s) "
                f"{', '.join(sorted(unknown))}"
            )

    @staticmethod
    def _coerce_params(spec: ExperimentSpec,
                       params: Mapping[str, object]) -> dict[str, object]:
        """Coerce string values to enums where run() defaults to an enum.

        CLI grids can only carry literals, so ``--grid objective=leaf_energy``
        arrives as a string; matching it to ``PartitionObjective`` here (by
        value, then member name) keeps explicit grids expressible for
        enum-typed parameters and keeps their cache digests identical to
        the equivalent enum-valued default grids.
        """
        try:
            parameters = inspect.signature(spec.run).parameters
        except (TypeError, ValueError):
            return dict(params)
        coerced: dict[str, object] = {}
        for key, value in params.items():
            default = (parameters[key].default if key in parameters
                       else inspect.Parameter.empty)
            if isinstance(default, enum.Enum) and isinstance(value, str):
                enum_class = type(default)
                try:
                    coerced[key] = enum_class(value)
                except ValueError:
                    try:
                        coerced[key] = enum_class[value.upper()]
                    except KeyError:
                        coerced[key] = value  # run() reports its own error
            else:
                coerced[key] = value
        return coerced

    def _task(self, spec: ExperimentSpec, index: int,
              params: Mapping[str, object],
              inject_seed: bool = True) -> SweepTask:
        # inject_seed distinguishes sweep tasks (each grid point gets a
        # derived seed) from single `run` configurations, which keep the
        # driver's own defaults so `repro run` matches a direct run() call.
        self._validate_params(spec, params)
        params = self._coerce_params(spec, params)
        kwargs = {**spec.defaults, **params}
        if inject_seed and spec.accepts("seed") and "seed" not in kwargs:
            kwargs["seed"] = derive_seed(self.base_seed, spec.id, params)
        return SweepTask(
            experiment=spec.id,
            index=index,
            params=dict(params),
            kwargs=kwargs,
            digest=digest_key(spec.id, kwargs),
        )

    def tasks(self, name: str,
              grid: Mapping[str, Sequence[object]] | None = None) -> list[SweepTask]:
        """Expand a grid (or the spec's default grid) into concrete tasks."""
        spec = resolve(name)
        if grid is None:
            grid = dict(spec.sweep_defaults)
        return [self._task(spec, index, params)
                for index, params in enumerate(expand_grid(grid))]

    # -- execution ---------------------------------------------------------

    def _cached_result(self, task: SweepTask) -> TaskResult | None:
        if self.out_dir is None or self.force:
            return None
        path = artifact_path(self.out_dir, task.experiment, task.digest)
        if not path.is_file():
            return None
        try:
            document = load_artifact(path)
        except ArtifactError:
            return None  # corrupted/foreign file: recompute and overwrite
        result_document = document.get("result")
        return TaskResult(task=task, rows=list(document.get("rows", [])),
                          summary=list(document.get("summary", [])),
                          cached=True, elapsed_seconds=0.0, path=path,
                          result_document=(result_document
                                           if isinstance(result_document, dict)
                                           else None))

    def _store(self, spec: ExperimentSpec, task: SweepTask,
               payload: Mapping[str, object], elapsed: float) -> TaskResult:
        path: Path | None = None
        result_document = payload.get("result")
        if self.out_dir is not None:
            document = {
                "experiment": spec.id,
                "eid": spec.eid,
                "title": spec.title,
                "digest": task.digest,
                "params": task.params,
                "kwargs": task.kwargs,
                "rows": payload["rows"],
                "summary": payload["summary"],
                "elapsed_seconds": elapsed,
            }
            if result_document is not None:
                document["result"] = result_document
            path = self._write_or_warn(
                artifact_path(self.out_dir, task.experiment, task.digest),
                document,
            )
        return TaskResult(task=task, rows=list(payload["rows"]),
                          summary=list(payload["summary"]), cached=False,
                          elapsed_seconds=elapsed, path=path,
                          result_document=(result_document
                                           if isinstance(result_document, dict)
                                           else None))

    def _write_or_warn(self, path: Path,
                       payload: Mapping[str, object]) -> Path | None:
        """Write an artifact; an unwritable destination must never lose
        results that were already computed, so failures become warnings."""
        try:
            return write_artifact(path, payload)
        except ArtifactError as error:
            self.warnings.append(str(error))
            return None

    def run_tasks(self, tasks: Sequence[SweepTask]) -> list[TaskResult]:
        """Execute tasks (cache first, then serial or process-parallel).

        Tasks sharing a digest within one batch (e.g. a grid that repeats
        a point) execute once; the duplicates reuse that result.
        """
        results: dict[int, TaskResult] = {}
        pending: list[SweepTask] = []
        duplicates: dict[str, list[SweepTask]] = {}
        seen_digests: dict[str, SweepTask] = {}
        for task in tasks:
            if task.digest in seen_digests:
                duplicates.setdefault(task.digest, []).append(task)
                continue
            seen_digests[task.digest] = task
            cached = self._cached_result(task)
            if cached is not None:
                results[task.index] = cached
            else:
                pending.append(task)

        if pending:
            specs = {task.experiment: resolve(task.experiment)
                     for task in pending}
            if self.parallel > 1 and len(pending) > 1:
                outcomes = run_pool(
                    _execute,
                    [(task.experiment, task.kwargs) for task in pending],
                    self.parallel,
                )
                # Store every finished result before failing, so completed
                # compute is cached even when a sibling task errored.
                first_error: SweepError | None = None
                for task, outcome in zip(pending, outcomes):
                    if isinstance(outcome, PoolFailure):
                        if first_error is None:
                            first_error = SweepError(self._describe_failure(
                                task, outcome))
                        continue
                    results[task.index] = self._store(
                        specs[task.experiment], task, outcome,
                        outcome["elapsed_seconds"])
                if first_error is not None:
                    raise first_error
            else:
                # Serial: store each result as it completes (a later
                # failure must not discard earlier compute) and let the
                # exception propagate with its own clean traceback.
                for task in pending:
                    payload = _execute(task.experiment, task.kwargs)
                    results[task.index] = self._store(
                        specs[task.experiment], task, payload,
                        payload["elapsed_seconds"])

        for digest, twins in duplicates.items():
            original = results[seen_digests[digest].index]
            for twin in twins:
                results[twin.index] = dataclasses.replace(
                    original, task=twin, deduplicated=True)

        return [results[task.index] for task in tasks]

    @staticmethod
    def _describe_failure(task: SweepTask, failure: PoolFailure) -> str:
        """Error text naming the failing grid point, with the worker traceback."""
        where = (f"at grid point {task.params!r} " if task.params else "")
        return (f"experiment {task.experiment!r} {where}failed: "
                f"{failure.kind}: {failure.message}\n"
                f"worker traceback:\n{failure.traceback}")

    def run_experiment(self, name: str,
                       overrides: Mapping[str, object] | None = None) -> TaskResult:
        """Run one experiment configuration (the CLI ``run`` path)."""
        spec = resolve(name)
        task = self._task(spec, 0, overrides or {}, inject_seed=False)
        return self.run_tasks([task])[0]

    def run_many(self, names: Sequence[str]) -> list[TaskResult]:
        """Run several experiments (each with its defaults) as one batch."""
        tasks = [self._task(resolve(name), index, {}, inject_seed=False)
                 for index, name in enumerate(names)]
        return self.run_tasks(tasks)

    def run_sweep(self, name: str,
                  grid: Mapping[str, Sequence[object]] | None = None) -> SweepResult:
        """Run a whole grid and write a sweep manifest tying it together."""
        spec = resolve(name)
        if grid is None:
            grid = dict(spec.sweep_defaults)
        if not grid:
            raise SweepError(
                f"experiment {spec.id!r} has no default sweep grid; "
                "pass an explicit --grid"
            )
        tasks = self.tasks(spec.id, grid)
        result = SweepResult(
            experiment=spec.id,
            grid={key: tuple(values) for key, values in grid.items()},
            results=tuple(self.run_tasks(tasks)),
        )

        if self.out_dir is not None:
            # The manifest ties the sweep together by task digest; rows
            # live only in the per-task artifacts so `repro report` never
            # prints the same table twice.
            manifest_digest = digest_key(
                f"sweep:{spec.id}",
                {"grid": grid, "base_seed": self.base_seed},
            )
            manifest_path = self._write_or_warn(
                self.out_dir / f"sweep-{spec.id}-{manifest_digest}.json",
                {
                    "experiment": spec.id,
                    "eid": spec.eid,
                    "title": f"{spec.title} (sweep manifest)",
                    "digest": manifest_digest,
                    "sweep": True,
                    "grid": {key: list(values) for key, values in grid.items()},
                    "base_seed": self.base_seed,
                    "tasks": [{"digest": task_result.task.digest,
                               "params": task_result.task.params,
                               "cached": task_result.cached,
                               "deduplicated": task_result.deduplicated}
                              for task_result in result.results],
                },
            )
            result = dataclasses.replace(result, manifest_path=manifest_path)
        return result
