"""Per-layer tracing and synthetic slowdown, from outside the program.

Every layer of the simulator is reached through a few public functions.
:data:`LAYERS` names them; :func:`instrument` replaces each with a
wrapper for the duration of a ``with`` block and restores the original
afterwards, so no code under ``src/`` changes.

A :class:`Tracer` keeps one stack of open spans.  When a span closes,
its duration minus the time its nested child spans took is the layer's
*self time*; counters are bumped at the same boundary from the call's
arguments and result.  A root span wraps each timed workload pass, so
its self time is the time no layer accounts for.

A slowed layer (``slow=...``) busy-waits after each call for as long as
the call took, doubling that function's wall time; it is the lever of
the layer sensitivity self-check.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.cohort import aggregate, analytic, codec, sketch, spec as cohort_spec
from repro.control import runtime as control_runtime
from repro.energy import runtime as energy_runtime
from repro.netsim import environment, events, macrotick, simulator, stats
from repro.scenarios import environment as scenario_environment
from repro.scenarios import spec as scenario_spec

#: ``observe(tracer, args, result)`` bumps counters after one call.
Observe = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One public function of a layer, and how a call is counted."""

    owner: object
    attribute: str
    observe: Observe | None = None


@dataclass(frozen=True)
class Layer:
    """A layer: its name, self-time metric and public entry points.

    ``span=False`` layers are only counted (a span per call would cost
    more than the call); their time stays with the enclosing span.
    """

    name: str
    self_metric: str | None
    targets: tuple[Target, ...]
    inclusive_metric: str | None = None
    span: bool = True


def _count(metric: str) -> Observe:
    def observe(tracer: "Tracer", args: tuple, result: Any) -> None:
        tracer.counts[metric] += 1
    return observe


def _observe_run(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["netsim.runs"] += 1
    tracer.counts["netsim.packets"] += result.delivered_packets
    tracer.counts["netsim.simulated_s"] += result.duration_seconds


def _observe_leap(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["macrotick.try_calls"] += 1
    if result is None:
        tracer.counts["macrotick.refusals"] += 1
    else:
        tracer.counts["macrotick.leaps"] += 1
        tracer.counts["macrotick.leapt_s"] += result - args[1]


def _observe_schedule(tracer: "Tracer", args: tuple, result: Any) -> None:
    # The schedule is cached on the environment, so a second call
    # returns the same epochs: a gauge, not a sum.
    tracer.gauges["environment.epochs"] = len(result)


def _observe_merge(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["stats.merges"] += 1
    tracer.counts["stats.merged_samples"] += args[1].count


def _observe_evaluate(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["cohort.evaluated"] += len(args[0])


def _observe_encode(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["codec.bytes"] += len(result)


LAYERS: tuple[Layer, ...] = (
    Layer("scenarios.build", "scenarios.build_s", (
        Target(scenario_spec.ScenarioSpec, "build",
               _count("scenarios.builds")),
        Target(scenario_environment.EnvironmentSpec, "build"),
    )),
    Layer("netsim.run", "netsim.kernel_s", (
        Target(simulator.BodyNetworkSimulator, "run", _observe_run),
    ), inclusive_metric="netsim.run_s"),
    Layer("netsim.entry", None, (
        Target(events.EventQueue, "peek_time",
               _count("netsim.kernel_entries")),
    ), span=False),
    Layer("macrotick.leap", "macrotick.leap_s", (
        Target(macrotick.MacroTickEngine, "try_leap", _observe_leap),
    )),
    Layer("environment.schedule", "environment.schedule_s", (
        Target(environment.RFEnvironment, "interference_schedule",
               _observe_schedule),
    )),
    Layer("control.eval", "control.eval_s", (
        Target(control_runtime.ControllerRuntime, "evaluate_cadence",
               _count("control.evaluations")),
    )),
    Layer("control.apply", None, (
        Target(control_runtime.ControllerRuntime, "apply",
               _count("control.actions")),
    ), span=False),
    Layer("energy", "energy.s", (
        Target(energy_runtime.NodeEnergyState, "drain",
               _count("energy.drains")),
        Target(energy_runtime.NodeEnergyState, "advance",
               _count("energy.advances")),
    )),
    Layer("stats.merge", "stats.merge_s", (
        Target(stats.LatencyAccumulator, "merge", _observe_merge),
    ), inclusive_metric="stats.merge_incl_s"),
    Layer("cohort.expand", "cohort.expand_s", (
        Target(cohort_spec.CohortSpec, "member",
               _count("cohort.members_expanded")),
    )),
    Layer("cohort.evaluate", "cohort.evaluate_s", (
        Target(analytic, "evaluate_members", _observe_evaluate),
    )),
    Layer("cohort.accumulate", "cohort.accumulate_s", (
        Target(aggregate.CohortAccumulator, "add", _count("cohort.adds")),
    )),
    Layer("sketch.add", "sketch.add_s", (
        Target(sketch.QuantileSketch, "add", _count("sketch.adds")),
        Target(sketch.QuantileSketch, "add_repeated", _count("sketch.adds")),
    )),
    Layer("codec.encode", "codec.encode_s", (
        Target(codec, "encode_shard", _observe_encode),
    )),
    Layer("codec.decode", "codec.decode_s", (
        Target(codec, "decode_shard"),
    )),
)

#: Names accepted by ``--slow-layer``: layers whose time is measured.
SLOWABLE = tuple(layer.name for layer in LAYERS if layer.span)

#: Self-time metric of the root span around one timed pass.
UNACCOUNTED_METRIC = "unaccounted_s"


class Tracer:
    """Span stack plus per-layer self time, inclusive time and counters."""

    def __init__(self) -> None:
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.inclusive_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._children: list[float] = []

    def wrap(self, self_metric: str, inclusive_metric: str | None,
             function: Callable, observe: Observe | None) -> Callable:
        children = self._children
        self_seconds = self.self_seconds
        inclusive_seconds = self.inclusive_seconds
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = children.pop()
                self_seconds[self_metric] += elapsed - nested
                if inclusive_metric is not None:
                    inclusive_seconds[inclusive_metric] += elapsed
                if children:
                    children[-1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def count_only(self, function: Callable, observe: Observe) -> Callable:
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            observe(self, args, result)
            return result
        return counted

    @contextlib.contextmanager
    def pass_span(self) -> Iterator[None]:
        """Root span of one timed pass (its self time is unaccounted)."""
        self._children.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            nested = self._children.pop()
            self.self_seconds[UNACCOUNTED_METRIC] += elapsed - nested


def slowed(function: Callable) -> Callable:
    """*function* made twice as slow: spin for as long as each call took."""
    clock = time.perf_counter

    def slow(*args, **kwargs):
        started = clock()
        try:
            return function(*args, **kwargs)
        finally:
            deadline = clock() + (clock() - started)
            while clock() < deadline:
                pass
    return slow


def _bindings(target: Target) -> list[tuple[object, str]]:
    """Every place the target's function is looked up at call time.

    Methods live on their class.  A module-level function may also have
    been imported by name into other ``repro`` modules (the cohort
    engine imports ``evaluate_members`` and ``encode_shard``), so each
    module attribute bound to the same object is patched too.
    """
    original = getattr(target.owner, target.attribute)
    if isinstance(target.owner, type):
        return [(target.owner, target.attribute)]
    places = []
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                places.append((module, attribute))
    return places


@contextlib.contextmanager
def instrument(tracer: Tracer | None = None,
               slow: str | None = None) -> Iterator[None]:
    """Install tracing wrappers and/or one layer's slowdown, then undo."""
    saved: list[tuple[object, str, object]] = []
    try:
        for layer in LAYERS:
            if tracer is None and layer.name != slow:
                continue
            for target in layer.targets:
                function = getattr(target.owner, target.attribute)
                wrapped = slowed(function) if layer.name == slow else function
                if tracer is not None and layer.span:
                    wrapped = tracer.wrap(layer.self_metric,
                                          layer.inclusive_metric, wrapped,
                                          target.observe)
                elif tracer is not None and target.observe is not None:
                    wrapped = tracer.count_only(wrapped, target.observe)
                for owner, attribute in _bindings(target):
                    saved.append((owner, attribute,
                                  vars(owner)[attribute]))
                    setattr(owner, attribute, wrapped)
        yield
    finally:
        for owner, attribute, value in reversed(saved):
            setattr(owner, attribute, value)
