"""The block stream decoder against ``np.random.default_rng`` itself.

Every member of a cohort samples from ``default_rng(member seed)``; the
columnar sampler reproduces those streams for a whole block at once.
These tests pin each step — seeding, raw words and every draw kind —
to the real generator, draw for draw.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cohort import Bernoulli, Categorical, Uniform
from repro.cohort.streams import StreamBlock, seed_states

SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12)


@given(SEEDS)
@settings(max_examples=50, deadline=None)
def test_seed_states_match_pcg64(seeds):
    halves = seed_states(np.asarray(seeds, dtype=np.uint32))
    assert all(half.dtype == np.uint64 for half in halves)
    for seed, state_high, state_low, inc_high, inc_low in zip(
            seeds, *(half.tolist() for half in halves)):
        reference = np.random.PCG64(seed).state["state"]
        assert ((state_high << 64) | state_low,
                (inc_high << 64) | inc_low) \
            == (reference["state"], reference["inc"])


def raw_columns(seeds, width: int) -> np.ndarray:
    """*width* raw words per seed from one block, drawn column by column
    over every member; row *i* is seed *i*'s stream."""
    block = StreamBlock(np.asarray(seeds, dtype=np.uint32))
    everyone = np.ones(len(seeds), dtype=bool)
    columns = [block.random_raw(everyone) for _ in range(width)]
    assert all(column.dtype == np.uint64 for column in columns)
    return np.array(columns, dtype=np.uint64).reshape(width, len(seeds)).T


def test_raw_words_match_pcg64():
    seeds = np.array([0, 1, 7, 2**31, 2**32 - 1], dtype=np.uint32)
    words = raw_columns(seeds, 16)
    for seed, row in zip(seeds, words):
        assert row.tolist() == \
            np.random.PCG64(int(seed)).random_raw(16).tolist()


@given(st.lists(st.integers(0, 2**32 - 1), max_size=64),
       st.integers(1, 64))
@example([], 1)
@example([2**32 - 1], 1)
@example([0, *range(2**32 - 63, 2**32)], 64)
@settings(max_examples=60, deadline=None)
def test_raw_words_match_pcg64_over_seed_and_width_range(seeds, width):
    """Every member's words equal that seed's own ``PCG64`` stream, for
    empty and full blocks, any ``uint32`` seed and depths 1 … 64 (past
    several doublings of the block's column buffer)."""
    words = raw_columns(seeds, width)
    assert words.shape == (len(seeds), width)
    for seed, row in zip(seeds, words):
        assert row.tolist() == \
            np.random.PCG64(int(seed)).random_raw(width).tolist()


# One draw step: (kind, argument, participation pattern).
DRAW = st.tuples(
    st.sampled_from(["random", "integers", "uniform"]),
    st.one_of(st.integers(1, 9), st.integers(2**31, 2**32 - 1)),
    st.lists(st.booleans(), min_size=8, max_size=8),
)


@given(st.lists(st.integers(0, 2**32 - 1), min_size=8, max_size=8,
                unique=True),
       st.lists(DRAW, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_block_draws_match_default_rng(seeds, steps):
    """Interleaved draws over a block equal each member's own generator,
    including the buffered 32-bit halves and Lemire rejections."""
    block = StreamBlock(np.asarray(seeds, dtype=np.uint32))
    generators = [np.random.default_rng(seed) for seed in seeds]
    for kind, argument, pattern in steps:
        mask = np.asarray(pattern)
        members = np.flatnonzero(mask)
        if kind == "random":
            got = block.random(mask)
            expected = [generators[i].random() for i in members]
        elif kind == "integers":
            got = block.integers(mask, argument)
            expected = [generators[i].integers(argument) for i in members]
        else:
            low, high = 0.35, 0.35 + argument / 7.0
            got = block.uniform(mask, low, high)
            expected = [generators[i].uniform(low, high) for i in members]
        assert got.tolist() == [value.item() for value in
                                np.asarray(expected).reshape(-1)]


def test_rejection_heavy_members_deepen_the_block():
    """``integers(2**31 + 1)`` rejects about half of its draws, so some
    members redraw far past the 43 words a cohort member takes; each
    still follows its own generator, and the others' streams do not
    move while one member alone deepens the block."""
    seeds = list(range(40))
    block = StreamBlock(np.asarray(seeds, dtype=np.uint32))
    generators = [np.random.default_rng(seed) for seed in seeds]
    everyone = np.ones(len(seeds), dtype=bool)
    for _ in range(60):
        got = block.integers(everyone, 2**31 + 1)
        assert got.tolist() == [generator.integers(2**31 + 1)
                                for generator in generators]
    assert block.depth > 43
    only_first = np.zeros(len(seeds), dtype=bool)
    only_first[0] = True
    for _ in range(200):
        assert block.random(only_first).tolist() == \
            [generators[0].random()]
    assert block.random(everyone).tolist() == \
        [generator.random() for generator in generators]


DISTRIBUTIONS = [
    Categorical(choices=("a", "b", "c")),
    Categorical(choices=(1, 2, 3), weights=(0.2, 0.0, 0.8)),
    Categorical(choices=("only",)),
    Uniform(0.35, 1.0),
    Uniform(2.0, 2.0),
    Bernoulli(0.08),
    Bernoulli(1.0),
]


@given(st.lists(st.integers(0, 2**32 - 1), min_size=6, max_size=6,
                unique=True),
       st.lists(st.tuples(st.integers(0, len(DISTRIBUTIONS) - 1),
                          st.lists(st.booleans(), min_size=6, max_size=6)),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_distribution_draw_matches_sample(seeds, steps):
    """``draw`` over a block consumes each stream exactly like ``sample``."""
    block = StreamBlock(np.asarray(seeds, dtype=np.uint32))
    generators = [np.random.default_rng(seed) for seed in seeds]
    for which, pattern in steps:
        distribution = DISTRIBUTIONS[which]
        mask = np.asarray(pattern)
        drawn = distribution.draw(block, mask).tolist()
        sampled = [distribution.sample(generators[i])
                   for i in np.flatnonzero(mask)]
        if isinstance(distribution, Categorical):
            drawn = [distribution.choices[index] for index in drawn]
        assert drawn == sampled
