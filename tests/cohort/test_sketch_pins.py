"""Bit-level pins for quantile-sketch and sketch-backed accumulator ingest.

Each digest is the sha256 of the canonical JSON of a ``to_state()``
snapshot: every retained value (``repr`` of each float, so signed zeros
count), every compaction flip, the count, the extrema and — for the
accumulator — the running total's exact bits.  The streams mix batch
sizes from a single value up to more than a whole sketch of compactions,
negative values and ``-0.0``/``0.0`` ties, so any rewrite of the
compaction schedule, the sort or the batch ingest that moves one value
or one float bit shows up as a changed digest.
"""

from __future__ import annotations

import hashlib
import random

from repro.cohort import QuantileSketch
from repro.netsim.stats import LatencyAccumulator
from repro.runner.artifacts import canonical_json

#: ``add_many`` batch sizes, cycled over the stream.
CHUNK_SIZES = (1, 7, 400, 8192, 65_537)

MIXED_STREAM_SHA256 = (
    "c1518dc30b9a846228a874536284c84d0a407ba79639988d022a1a4484072b13")
MERGED_SHA256 = (
    "d1036e41ebd192ad033618b2d50df07bc2e923534c90b2f4baabf7aa6c15579a")
ACCUMULATOR_SHA256 = (
    "2a1b7a6d50b7b768d28fe8da242ccbf96cc4a3932818e0793a2fc2fac6525464")


def sha256_of(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def stream(length: int, seed: int) -> list[float]:
    """A reproducible stream of signed values with many exact ties.

    Built from ``random.random`` and float arithmetic only, so it is the
    same on every platform and Python version.
    """
    rng = random.Random(seed)
    values = []
    for _ in range(length):
        draw, uniform = rng.random(), rng.random()
        if draw < 0.05:
            values.append(-0.0 if uniform < 0.5 else 0.0)
        elif draw < 0.2:
            values.append(float(int(uniform * 11.0) - 5))
        else:
            values.append((uniform * uniform * uniform - 0.2) * 1e4)
    return values


def chunked(values: list[float]):
    position, step = 0, 0
    while position < len(values):
        size = CHUNK_SIZES[step % len(CHUNK_SIZES)]
        yield values[position:position + size]
        position += size
        step += 1


def mixed_sketch() -> QuantileSketch:
    sketch = QuantileSketch()
    for run in chunked(stream(300_000, seed=18)):
        sketch.add_many(run)
    return sketch


def test_mixed_chunk_sketch_pinned():
    sketch = mixed_sketch()
    assert sketch.count == 300_000
    assert sha256_of(sketch.to_state()) == MIXED_STREAM_SHA256


def test_merged_and_weighted_sketch_pinned():
    sketch = mixed_sketch()
    other = QuantileSketch()
    for value in stream(20_000, seed=19):
        other.add(value)
    sketch.merge(other)
    sketch.add_repeated(-0.0, 1_000_003)
    sketch.add_repeated(17.25, 4097)
    assert sha256_of(sketch.to_state()) == MERGED_SHA256


def test_sketch_accumulator_add_many_across_spill_pinned():
    accumulator = LatencyAccumulator(exact_capacity=1000)
    values = [-0.0 if value == 0.0 and index % 2 else abs(value)
              for index, value in enumerate(stream(120_000, seed=20))]
    for run in chunked(values):
        accumulator.add_many(run)
    assert not accumulator.is_exact
    assert sha256_of(accumulator.to_state()) == ACCUMULATOR_SHA256
