"""Multi-body environment specs: neutrality pins, monotonicity, gallery."""

from __future__ import annotations

import math
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.control import ControllerSpec
from repro.errors import ScenarioError
from repro.netsim.environment import InterferenceState
from repro.scenarios import (
    BodyPlacement,
    EnvironmentSpec,
    ReliabilitySpec,
    ScenarioNodeSpec,
    ScenarioSpec,
    all_environments,
    environment_names,
    get_environment,
    get_scenario,
    scenario_names,
)
from repro.scenarios.environment import _posture_at
from repro.sensors.catalog import SensorModality

#: Golden pin: ``barefoot_yoga`` standalone, seed 0, 120 simulated
#: seconds (float.hex for exact comparison).  The one-body environment
#: and the attached-but-static controller runs below must reproduce
#: every value bit-for-bit — the neutrality contract of the multi-body
#: layer.
BAREFOOT_GOLDEN = {
    "delivered_packets": 606,
    "mean_latency_seconds": "0x1.055c6c5f92b0bp-8",
    "p99_latency_seconds": "0x1.450efdc9c0000p-7",
    "hub_energy_joules": "0x1.44ef5c6f4d8cbp-12",
    "bus_utilization": "0x1.e63bc206589d6p-8",
}


def assert_matches_golden(result) -> None:
    assert result.delivered_packets == BAREFOOT_GOLDEN["delivered_packets"]
    for attribute, expected in BAREFOOT_GOLDEN.items():
        if attribute == "delivered_packets":
            continue
        assert getattr(result, attribute).hex() == expected, attribute


def one_body(controller: ControllerSpec | None = None) -> EnvironmentSpec:
    return EnvironmentSpec(
        name="solo_room",
        description="one body alone in the room",
        bodies=(BodyPlacement(scenario="barefoot_yoga",
                              controller=controller),),
    )


def crowd_member() -> ScenarioSpec:
    """A minimal lossy body for the monotonicity property."""
    return ScenarioSpec(
        name="property_member",
        description="one lossy EQS node",
        duration_seconds=60.0,
        reliability=ReliabilitySpec(posture="standing_shoes",
                                    eqs_noise_rms_volts=4.5e-5,
                                    arq_retry_limit=2),
        nodes=(ScenarioNodeSpec(name="imu", modality=SensorModality.IMU,
                                bits_per_packet=4096.0),),
    )


def room(spec: ScenarioSpec, count: int, spacing: float,
         leakage: float) -> EnvironmentSpec:
    return EnvironmentSpec(
        name=f"property_room_{count}",
        description="monotonicity probe",
        bodies=(BodyPlacement(scenario=spec, count=count, name="m"),),
        spacing_metres=spacing,
        eqs_leakage_fraction=leakage,
    )


class TestNeutrality:
    def test_standalone_matches_golden(self):
        result = get_scenario("barefoot_yoga").run(
            seed=0, duration_seconds=120.0)
        assert_matches_golden(result.simulated)

    def test_one_body_environment_bit_identical(self):
        run = one_body().run(seed=0, duration_seconds=120.0)
        assert_matches_golden(run.simulated.result_for("barefoot_yoga"))

    def test_one_body_static_controller_bit_identical(self):
        run = one_body(ControllerSpec(kind="static")).run(
            seed=0, duration_seconds=120.0)
        assert_matches_golden(run.simulated.result_for("barefoot_yoga"))

    def test_one_body_environment_schedules_no_epoch_events(self):
        environment = one_body().build(seed=0, duration_seconds=120.0)
        schedule = environment.interference_schedule()
        assert len(schedule) == 1
        assert all(state.neutral for state in schedule[0][1])


class TestMonotonicity:
    @settings(max_examples=15, deadline=None)
    @given(counts=st.lists(st.integers(min_value=1, max_value=8),
                           min_size=2, max_size=2, unique=True),
           spacing=st.floats(min_value=0.6, max_value=2.5),
           leakage=st.floats(min_value=1e-4, max_value=1e-3))
    def test_interference_and_per_monotone_in_occupancy(
            self, counts, spacing, leakage):
        """More bodies in the room never *reduce* anyone's erasure rate.

        The grid layout is fixed-width, so growing the room adds bodies
        without moving existing ones: body 0's aggregate interference —
        and through the monotone waterfall, its PER — is non-decreasing
        in the body count.
        """
        small, large = sorted(counts)
        spec = crowd_member()
        states = []
        pers = []
        for count in (small, large):
            environment = room(spec, count, spacing, leakage).build(seed=0)
            state = environment.interference_schedule()[0][1][0]
            states.append(state)
            pers.append(spec.reliability.node_error_rate_adjusted(
                spec.nodes[0], posture="standing_shoes",
                rf_interference_dbm=state.rf_dbm,
                eqs_interference_volts=state.eqs_volts))
        assert states[1].eqs_volts >= states[0].eqs_volts
        assert states[1].rf_dbm >= states[0].rf_dbm \
            or states[1].rf_dbm == -math.inf
        assert pers[1] >= pers[0]

    def test_degradation_is_visible_at_room_scale(self):
        spec = crowd_member()
        solo = room(spec, 1, 0.8, 8e-4).run(seed=0)
        packed = room(spec, 8, 0.8, 8e-4).run(seed=0)
        # ARQ may still deliver every packet; the erasures (and the
        # retry energy they cost) are where the packed room shows up.
        assert packed.simulated.body_results[0].erased_attempts \
            > solo.simulated.body_results[0].erased_attempts
        assert packed.simulated.body_results[0].delivered_fraction \
            <= solo.simulated.body_results[0].delivered_fraction


class TestSpecValidation:
    def test_duplicate_body_names_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            EnvironmentSpec(
                name="dup", description="",
                bodies=(BodyPlacement(scenario="barefoot_yoga"),
                        BodyPlacement(scenario="barefoot_yoga")))

    def test_disagreeing_durations_need_override(self):
        bodies = (BodyPlacement(scenario="barefoot_yoga", name="a"),
                  BodyPlacement(scenario="commute_walk", name="b"))
        with pytest.raises(ScenarioError, match="disagree"):
            EnvironmentSpec(name="clash", description="", bodies=bodies)
        spec = EnvironmentSpec(name="clash", description="",
                               bodies=bodies, duration_seconds=60.0)
        assert spec.resolved_duration() == 60.0

    def test_positioned_groups_rejected(self):
        with pytest.raises(ScenarioError, match="grid"):
            BodyPlacement(scenario="barefoot_yoga", count=2,
                          position_metres=(0.0, 0.0))

    def test_grid_never_reflows(self):
        spec = one_body()
        for index, expected in ((0, (0.0, 0.0)), (3, (4.5, 0.0)),
                                (4, (0.0, 1.5)), (5, (1.5, 1.5))):
            assert spec.grid_position(index) == expected


class TestGallery:
    def test_builtin_environments_registered(self):
        names = environment_names()
        for expected in ("gym_floor", "ward_shift", "commuter_train"):
            assert expected in names

    def test_environment_names_disjoint_from_scenarios(self):
        assert not set(environment_names()) & set(scenario_names())

    def test_describe_rows_share_scenario_keys(self):
        scenario_keys = list(get_scenario("barefoot_yoga").describe())
        for spec in all_environments():
            assert list(spec.describe()) == scenario_keys

    def test_capability_tags(self):
        by_name = {spec.name: spec.capabilities()
                   for spec in all_environments()}
        for name, tags in by_name.items():
            assert "multi-body" in tags, name
        assert "lossy" in by_name["gym_floor"]

    def test_ward_shift_occupancy_boundaries(self):
        spec = get_environment("ward_shift")
        assert spec.describe()["events"] == 2


class TestPERMemo:
    """A controller's rate function memoises its PER re-derivations."""

    STEP_DB = 2.0
    STATES = (InterferenceState(),
              InterferenceState(eqs_volts=3e-5),
              InterferenceState(eqs_volts=9e-5),
              InterferenceState(rf_dbm=-70.0, eqs_volts=3e-5))

    @settings(max_examples=25, deadline=None)
    @given(calls=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=40))
    def test_memo_matches_direct_derivation(self, calls):
        spec = get_scenario("commute_walk")
        controller = ControllerSpec(kind="per_backoff", cadence_seconds=5.0,
                                    step_db=self.STEP_DB)
        environment = EnvironmentSpec(
            name="memo_probe", description="one controlled commute body",
            bodies=(BodyPlacement(scenario=spec, controller=controller),),
        ).build(seed=0)
        body = environment.bodies[0]
        node = spec.nodes[0]
        concrete = node.expanded_names()[0]
        error_rate = body.simulator.controllers[concrete].error_rate_fn
        timeline = spec.node_posture_timeline(concrete, node)
        duration = spec.duration_seconds

        direct = spec.reliability.node_error_rate_adjusted
        derived = []

        def counting(reliability, *args, **kwargs):
            derived.append(kwargs)
            return direct.__func__(reliability, *args, **kwargs)

        returned = []
        keys = set()
        with mock.patch.object(type(spec.reliability),
                               "node_error_rate_adjusted", counting):
            for fraction, state_index, steps in calls:
                # The closure reads the body's clock and its current
                # interference; set both as a run would.
                body.simulator.queue._now = fraction * duration
                state = self.STATES[state_index]
                body.current_interference = state
                offset = steps * self.STEP_DB
                posture = _posture_at(timeline, fraction)
                keys.add((posture, state.rf_dbm, state.eqs_volts, offset))
                returned.append((error_rate(offset), posture, state, offset))

        for value, posture, state, offset in returned:
            assert value == direct(
                node, posture=posture, rf_interference_dbm=state.rf_dbm,
                eqs_interference_volts=state.eqs_volts,
                tx_power_offset_db=offset)
        assert len(derived) == len(keys)


#: Bodies and length of the packed gym hour.
GYM_BODIES = 10
GYM_SECONDS = 3600.0

#: The environment may cost at most this factor over N standalone
#: bodies (swap scheduling + timing noise headroom on a linear bound).
LINEARITY_SLACK = 2.0


class TestGymHourLinearity:
    def test_ten_bodies_cost_about_ten_solos(self):
        """The epoch plumbing (geometry, schedule drain, swap closures)
        stays off the per-packet hot path: a room of N bodies costs
        about N standalone runs, not N^2."""
        spec = get_scenario("barefoot_yoga")
        started = time.perf_counter()
        solo = spec.run(seed=0, duration_seconds=GYM_SECONDS)
        solo_seconds = time.perf_counter() - started
        environment = EnvironmentSpec(
            name="bench_gym",
            description="10 yoga bodies sharing one floor for an hour",
            bodies=(BodyPlacement(scenario="barefoot_yoga", count=GYM_BODIES,
                                  name="yogi"),),
            spacing_metres=1.5,
            duration_seconds=GYM_SECONDS,
        )
        started = time.perf_counter()
        crowded = environment.run(seed=0)
        crowd_seconds = time.perf_counter() - started

        assert len(crowded.simulated.body_results) == GYM_BODIES
        for result in crowded.simulated.body_results:
            assert result.duration_seconds == GYM_SECONDS
            assert result.delivered_packets > 0
        # The shared room hurts: aggregate erasures exceed N isolated runs.
        crowd_erasures = sum(result.erased_attempts
                             for result in crowded.simulated.body_results)
        assert crowd_erasures > GYM_BODIES * solo.simulated.erased_attempts
        assert crowd_seconds <= LINEARITY_SLACK * GYM_BODIES * solo_seconds, (
            f"10-body hour took {crowd_seconds:.2f}s vs "
            f"{solo_seconds:.2f}s solo")
