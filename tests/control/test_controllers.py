"""Unit tests for the shipped controllers and the control protocol."""

from __future__ import annotations

import math

import pytest

from repro.control import (
    CONTROLLER_KINDS,
    Action,
    Controller,
    ControllerSpec,
    Observation,
    PERBackoffController,
    SoCThrottleController,
    StaticController,
    make_controller,
)
from repro.errors import SimulationError


def cadence_obs(erased: int, delivered: int, offset: float = 0.0,
                time_seconds: float = 10.0) -> Observation:
    return Observation(kind="cadence", time_seconds=time_seconds,
                       window_seconds=10.0, erased_attempts=erased,
                       delivered_packets=delivered,
                       tx_power_offset_db=offset)


def crossing_obs(soc: float = 0.25, stride: int = 4) -> Observation:
    return Observation(kind="low_battery", time_seconds=30.0,
                       state_of_charge=soc, low_battery=True,
                       tx_stride=1, low_battery_stride=stride)


class TestProtocol:
    def test_shipped_controllers_satisfy_protocol(self):
        for kind in CONTROLLER_KINDS:
            assert isinstance(make_controller(kind), Controller)

    def test_make_controller_defaults_to_static(self):
        assert isinstance(make_controller(None), StaticController)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown controller"):
            ControllerSpec(kind="pid")

    def test_action_validation(self):
        with pytest.raises(SimulationError):
            Action(tx_stride=0)

    def test_observation_per(self):
        assert cadence_obs(3, 7).packet_error_rate == pytest.approx(0.3)
        assert cadence_obs(0, 0).packet_error_rate == 0.0

    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            ControllerSpec(cadence_seconds=0.0)
        with pytest.raises(SimulationError):
            ControllerSpec(per_threshold=0.1, per_recover_threshold=0.2)
        with pytest.raises(SimulationError):
            ControllerSpec(throttle_stride=0)


class TestNonFiniteSpec:
    """Non-finite spec fields fail at construction, not mid-run."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_cadence_rejected(self, value):
        with pytest.raises(SimulationError, match="cadence"):
            ControllerSpec(kind="per_backoff", cadence_seconds=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_step_rejected(self, value):
        with pytest.raises(SimulationError, match="step"):
            ControllerSpec(kind="per_backoff", step_db=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_cap_rejected(self, value):
        with pytest.raises(SimulationError, match="cap"):
            ControllerSpec(kind="per_backoff", max_offset_db=value)

    def test_finite_edges_accepted(self):
        spec = ControllerSpec(kind="per_backoff", cadence_seconds=1e-3,
                              step_db=1e-3, max_offset_db=0.0)
        assert spec.max_offset_db == 0.0


class TestStatic:
    def test_never_acts(self):
        controller = StaticController()
        assert controller.cadence_seconds is None
        assert controller.evaluate(cadence_obs(50, 50)) is None
        assert controller.evaluate(crossing_obs()) is None


class TestPERBackoff:
    def spec(self, **overrides) -> ControllerSpec:
        base = dict(kind="per_backoff", cadence_seconds=5.0,
                    per_threshold=0.2, per_recover_threshold=0.05,
                    step_db=2.0, max_offset_db=6.0)
        base.update(overrides)
        return ControllerSpec(**base)

    def test_steps_up_on_high_per(self):
        controller = PERBackoffController(self.spec())
        action = controller.evaluate(cadence_obs(erased=5, delivered=5))
        assert action.tx_power_offset_db == pytest.approx(2.0)

    def test_offset_caps_at_max(self):
        controller = PERBackoffController(self.spec())
        action = controller.evaluate(
            cadence_obs(erased=9, delivered=1, offset=5.0))
        assert action.tx_power_offset_db == pytest.approx(6.0)
        action = controller.evaluate(
            cadence_obs(erased=9, delivered=1, offset=6.0))
        # At the cap, the offset is re-asserted, never exceeded.
        assert action.tx_power_offset_db == pytest.approx(6.0)

    def test_steps_down_on_recovery(self):
        controller = PERBackoffController(self.spec())
        action = controller.evaluate(
            cadence_obs(erased=0, delivered=50, offset=4.0))
        assert action.tx_power_offset_db == pytest.approx(2.0)

    def test_hysteresis_band_reasserts(self):
        controller = PERBackoffController(self.spec())
        # PER 0.1 sits between recover (0.05) and trigger (0.2).
        action = controller.evaluate(
            cadence_obs(erased=1, delivered=9, offset=4.0))
        assert action.tx_power_offset_db == pytest.approx(4.0)

    def test_silent_window_is_not_evidence(self):
        controller = PERBackoffController(self.spec())
        assert controller.evaluate(cadence_obs(0, 0)) is None
        # ... but an applied offset is still re-asserted.
        action = controller.evaluate(cadence_obs(0, 0, offset=2.0))
        assert action.tx_power_offset_db == pytest.approx(2.0)

    def test_keeps_low_battery_throttle(self):
        controller = PERBackoffController(self.spec())
        action = controller.evaluate(crossing_obs(stride=3))
        assert action.tx_stride == 3


class TestSoCThrottle:
    def test_throttles_on_crossing_with_node_stride(self):
        controller = SoCThrottleController()
        assert controller.cadence_seconds is None
        action = controller.evaluate(crossing_obs(stride=4))
        assert action.tx_stride == 4

    def test_spec_stride_overrides_node_stride(self):
        controller = SoCThrottleController(
            ControllerSpec(kind="soc_throttle", throttle_stride=8))
        action = controller.evaluate(crossing_obs(stride=4))
        assert action.tx_stride == 8

    def test_ignores_cadence_observations(self):
        controller = SoCThrottleController()
        assert controller.evaluate(cadence_obs(9, 1)) is None
