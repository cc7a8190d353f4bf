"""Declarative sampling distributions for cohort specifications.

A :class:`~repro.cohort.spec.CohortSpec` describes a *population* — not a
list of members — so its fields are distributions rather than values:
which link technology a sampled wearer carries, how large their body is,
what fraction of the day their motion sensors are awake.  The
distributions here are plain frozen dataclasses: picklable (they cross
the shard process boundary inside the spec), JSON-encodable through the
artifact sanitizer, and deterministic given a generator.

``sample(rng)`` draws one value from a ``Generator``; ``draw(stream,
mask)`` makes the same draw for every masked member of a
:class:`~repro.cohort.streams.StreamBlock` at once, consuming each
member's stream exactly as ``sample`` would consume a generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ScenarioError

if TYPE_CHECKING:
    from .streams import StreamBlock


@dataclass(frozen=True)
class Categorical:
    """A weighted choice over a fixed set of values.

    ``weights`` may be omitted for a uniform choice; otherwise they are
    normalised, so any positive relative weighting works.
    """

    choices: tuple
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.choices:
            raise ScenarioError("categorical needs at least one choice")
        if self.weights is not None:
            if len(self.weights) != len(self.choices):
                raise ScenarioError(
                    "categorical weights must match choices "
                    f"({len(self.weights)} != {len(self.choices)})")
            if any(weight < 0 for weight in self.weights):
                raise ScenarioError("categorical weights must be non-negative")
            if not math.fsum(self.weights) > 0:
                raise ScenarioError("categorical weights must not all be zero")

    def sample(self, rng: np.random.Generator):
        if self.weights is None:
            return self.choices[int(rng.integers(len(self.choices)))]
        total = math.fsum(self.weights)
        threshold = float(rng.random()) * total
        cumulative = 0.0
        for choice, weight in zip(self.choices, self.weights):
            cumulative += weight
            if threshold < cumulative:
                return choice
        return self.choices[-1]  # guard against rounding at the boundary

    def draw(self, stream: "StreamBlock", mask: np.ndarray) -> np.ndarray:
        """Indices into :attr:`choices`, one per masked member."""
        if self.weights is None:
            return stream.integers(mask, len(self.choices))
        cumulative = list(itertools.accumulate(self.weights, initial=0.0))[1:]
        threshold = stream.random(mask) * math.fsum(self.weights)
        return np.minimum(np.searchsorted(cumulative, threshold, side="right"),
                          len(self.choices) - 1)


@dataclass(frozen=True)
class Uniform:
    """A uniform draw from ``[low, high]`` (degenerate when equal)."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.low) or not math.isfinite(self.high):
            raise ScenarioError("uniform bounds must be finite")
        if self.high < self.low:
            raise ScenarioError(
                f"uniform bounds inverted: [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> float:
        if self.high == self.low:
            return self.low
        return float(rng.uniform(self.low, self.high))

    def draw(self, stream: "StreamBlock", mask: np.ndarray) -> np.ndarray:
        """One value per masked member."""
        if self.high == self.low:
            return np.full(int(np.count_nonzero(mask)), self.low, dtype=float)
        return stream.uniform(mask, float(self.low), float(self.high))


@dataclass(frozen=True)
class Bernoulli:
    """A biased coin: True with the given probability."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ScenarioError(
                f"probability must be in [0, 1]: {self.probability}")

    def sample(self, rng: np.random.Generator) -> bool:
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        return float(rng.random()) < self.probability

    def draw(self, stream: "StreamBlock", mask: np.ndarray) -> np.ndarray:
        """One outcome per masked member."""
        if self.probability >= 1.0:
            return np.ones(int(np.count_nonzero(mask)), dtype=bool)
        if self.probability <= 0.0:
            return np.zeros(int(np.count_nonzero(mask)), dtype=bool)
        return stream.random(mask) < self.probability
