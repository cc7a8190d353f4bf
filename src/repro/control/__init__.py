"""Closed-loop per-node control: observe the link, actuate the node.

The control subsystem turns the simulator's fixed adaptation rules into
pluggable policies.  A :class:`Controller` observes one node's windowed
packet-error rate, state of charge and MAC backlog, and actuates its
transmit-power offset, traffic stride, and (as recorded requests) its
coding rate and slot share; a :class:`ControllerRuntime` binds the
policy to a live :class:`~repro.netsim.simulator.BodyNetworkSimulator`
with a deterministic evaluation cadence on the kernel's cadence
stream.

Shipped policies: :class:`StaticController` (the exactly-neutral
default), :class:`PERBackoffController` (windowed-PER hysteresis on a
tx-power offset), and :class:`SoCThrottleController` (the low-battery
duty-cycle throttle, subsuming the historical hardcoded 1-in-stride
rule).  Design notes and the determinism contract:
``docs/multi-body-control.md``.
"""

from .controller import Action, Controller, ControllerSpec, Observation
from .controllers import (CONTROLLER_KINDS, PERBackoffController,
                          SoCThrottleController, StaticController,
                          make_controller)
from .runtime import TX_BOOST_COMPONENT, ControllerRuntime

__all__ = [
    "Action",
    "Controller",
    "ControllerSpec",
    "Observation",
    "CONTROLLER_KINDS",
    "PERBackoffController",
    "SoCThrottleController",
    "StaticController",
    "make_controller",
    "ControllerRuntime",
    "TX_BOOST_COMPONENT",
]
