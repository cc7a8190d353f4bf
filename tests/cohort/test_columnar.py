"""Columnar cohort path: each batch operation equals its row-by-row form.

The analytic shard path draws, evaluates and accumulates members as
arrays.  Each property here pins one layer of it to the row-at-a-time
code it replaces: batch sketch inserts, batch accumulator adds, batch
cohort-accumulator folds, and the sampler's row table against the
spec-by-spec reduction of the same members.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort import (
    Categorical,
    CohortAccumulator,
    CohortSpec,
    MemberMetrics,
    QuantileSketch,
    ShardFrame,
    encode_shard,
    evaluate_members,
)
from repro.cohort.aggregate import MemberColumns
from repro.cohort.analytic import (
    AnalyticRows,
    draw_rows,
    evaluate_rows,
    scenario_rows,
)
from repro.errors import ScenarioError, SimulationError
from repro.netsim.stats import LatencyAccumulator
from repro.runner.artifacts import canonical_json

ZEROS = st.sampled_from([0.0, -0.0])
VALUES = st.lists(st.one_of(st.floats(0.0, 1e6, allow_nan=False), ZEROS),
                  max_size=1500)
SIGNED = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), ZEROS)
CHUNKS = st.lists(st.integers(1, 400), min_size=1, max_size=20)


def chunked(values: list[float], sizes: list[int]):
    """Split *values* into consecutive runs of the given sizes (cycled)."""
    position, step = 0, 0
    while position < len(values):
        size = sizes[step % len(sizes)]
        yield values[position:position + size]
        position += size
        step += 1


@given(st.lists(SIGNED, min_size=1, max_size=600),
       st.lists(SIGNED, max_size=1500), CHUNKS, st.integers(8, 200))
@settings(max_examples=80, deadline=None)
def test_sketch_add_many_equals_sequential_add(prefix, values, sizes, k):
    start = QuantileSketch(k)
    for value in prefix:
        start.add(value)
    sequential = QuantileSketch.from_state(start.to_state())
    for value in values:
        sequential.add(value)
    batched = QuantileSketch.from_state(start.to_state())
    for run in chunked(values, sizes):
        batched.add_many(run)
    assert canonical_json(batched.to_state()) == \
        canonical_json(sequential.to_state())
    assert batched.retained == sequential.retained


@given(VALUES, CHUNKS, st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_accumulator_add_many_equals_add_across_spill(values, sizes,
                                                      capacity):
    sequential = LatencyAccumulator(exact_capacity=capacity)
    for value in values:
        sequential.add(value)
    batched = LatencyAccumulator(exact_capacity=capacity)
    for run in chunked(values, sizes):
        batched.add_many(run)
    assert canonical_json(batched.to_state()) == \
        canonical_json(sequential.to_state())


def test_add_many_tracks_extrema_like_add_around_nan():
    values = [math.nan, 2.0, 0.5, math.nan, 3.0]
    sequential = LatencyAccumulator()
    for value in values:
        sequential.add(value)
    batched = LatencyAccumulator()
    batched.add_many(values)
    assert (batched.min_seconds, batched.max_seconds, batched.count) == \
        (sequential.min_seconds, sequential.max_seconds, sequential.count)


def test_add_many_rejects_negative_before_recording():
    accumulator = LatencyAccumulator()
    with pytest.raises(SimulationError):
        accumulator.add_many([1.0, -1.0])
    assert accumulator.count == 0


METRIC = st.floats(0.0, 1e3, allow_nan=False)
MEMBER = st.builds(
    MemberMetrics,
    index=st.integers(0, 10**6),
    scenario=st.sampled_from(["a-000001", "b-000002"]),
    source=st.sampled_from(["analytic", "des"]),
    arbitration=st.sampled_from(["fifo", "tdma", "polling"]),
    node_count=st.integers(1, 12),
    duration_seconds=st.just(60.0),
    delivered_packets=st.integers(0, 10**5),
    delivered_fraction=METRIC,
    mean_latency_seconds=METRIC,
    p99_latency_seconds=METRIC,
    bus_utilization=METRIC,
    leaf_power_watts=METRIC,
    hub_power_watts=METRIC,
    leaf_energy_joules=METRIC,
    hub_energy_joules=METRIC,
    alive_fraction=METRIC,
    first_death_seconds=st.one_of(st.just(math.inf), METRIC),
)


@given(st.lists(MEMBER, max_size=120), CHUNKS, st.integers(1, 30),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_add_columns_encodes_like_per_row_add(members, sizes, capacity,
                                              keep_members):
    rows = CohortAccumulator(exact_capacity=capacity,
                             keep_members=keep_members)
    for member in members:
        rows.add(member)
    columns = CohortAccumulator(exact_capacity=capacity,
                                keep_members=keep_members)
    for run in chunked(members, sizes):
        columns.add_columns(MemberColumns(**{
            name: [getattr(member, name) for member in run]
            for name in MemberColumns.__dataclass_fields__}))

    def encoded(accumulator: CohortAccumulator) -> bytes:
        return encode_shard(ShardFrame(shard_index=0, start=0,
                                       stop=len(members),
                                       accumulator=accumulator),
                            compression="none")

    assert encoded(columns) == encoded(rows)


def energy_cohort(population: int) -> CohortSpec:
    return CohortSpec(
        population=population, seed=3,
        batteries=Categorical(choices=("cr2032", "lipo_watch", ""),
                              weights=(0.4, 0.3, 0.3)),
        harvesters=Categorical(choices=("indoor_pv", "teg", "")),
        battery_scale=1e-5)


COHORTS = {
    "default": lambda: CohortSpec(population=300, seed=3),
    "energy": lambda: energy_cohort(300),
    "uniform-mixes": lambda: CohortSpec(
        population=300, seed=8, hub_technology="ble",
        technologies=Categorical(choices=("ble", "sub_uw", "nfmi")),
        mac_policies=Categorical(choices=("tdma", "polling")),
        motion_count=Categorical(choices=(2, 4), weights=(1.0, 3.0))),
}


def assert_tables_equal(left: AnalyticRows, right: AnalyticRows) -> None:
    for name in AnalyticRows.__dataclass_fields__:
        a, b = getattr(left, name), getattr(right, name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape, name
            assert a.astype(b.dtype).tobytes() == b.tobytes(), name
        else:
            assert list(a) == list(b), name


@pytest.mark.parametrize("make", COHORTS.values(), ids=COHORTS.keys())
def test_draw_rows_equal_scenario_reduction(make):
    cohort = make()
    members = [cohort.member(index) for index in range(40, 140)]
    expected = scenario_rows([member.scenario for member in members],
                             [member.index for member in members])
    assert_tables_equal(draw_rows(cohort.draw(40, 140)), expected)


@pytest.mark.parametrize("make", COHORTS.values(), ids=COHORTS.keys())
def test_draw_kernel_equals_evaluate_members(make):
    cohort = make()
    members = list(cohort.members(0, 120))
    expected = evaluate_members([member.scenario for member in members],
                                [member.index for member in members])
    assert evaluate_rows(draw_rows(cohort.draw(0, 120))).rows() == expected


def test_draws_do_not_depend_on_block_bounds():
    cohort = energy_cohort(200)
    whole = evaluate_rows(draw_rows(cohort.draw(0, 200))).rows()
    pieces = [row for start, stop in ((0, 1), (1, 77), (77, 200))
              for row in evaluate_rows(draw_rows(cohort.draw(start,
                                                             stop))).rows()]
    assert pieces == whole
    assert [cohort.member(i) for i in (0, 76, 77, 199)] == \
        [member for i, member in enumerate(cohort.members()) if i in
         (0, 76, 77, 199)]


class TestHoistedMemberValidation:
    """Checks that used to fire only when an offending member expanded."""

    @pytest.mark.parametrize("choices", [(1, 2.5), (0, 1), (True, 2),
                                         ("2",)])
    def test_motion_count_must_be_positive_int(self, choices):
        with pytest.raises(ScenarioError, match="motion count"):
            CohortSpec(motion_count=Categorical(choices=choices))

    def test_adopted_modality_must_fit_the_hub_link(self):
        with pytest.raises(ScenarioError, match="hub link"):
            CohortSpec(adoption={"ppg": 0.5, "video_720p": 0.01})
        with pytest.raises(ScenarioError, match="hub link"):
            CohortSpec(hub_technology="sub_uw", adoption={"audio": 0.5})
        # Never adopted, never sampled: allowed.
        CohortSpec(adoption={"ppg": 0.5, "video_720p": 0.0})

    def test_packet_sizes_must_be_finite(self):
        with pytest.raises(ScenarioError, match="packet size"):
            CohortSpec(bits_per_packet=Categorical(choices=(2048.0,
                                                            math.nan)))
