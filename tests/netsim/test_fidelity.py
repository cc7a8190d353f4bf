"""The fidelity contract: gap names, the zero-reference rule, the one
operator, and cohort validation records computed through it."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cohort import MemberMetrics
from repro.cohort.aggregate import ValidationRecord
from repro.experiments.coding import CodingPoint
from repro.netsim.fidelity import (ANALYTIC, GAP_NAMES, HYBRID, Gaps,
                                   Readout, compare, worst)
from repro.netsim.simulator import SimulationResult

#: What ``CohortResult.max_validation_errors()`` reports, in order.
VALIDATION_GAPS = ("leaf_power_rel_error", "delivered_fraction_abs_error",
                   "mean_latency_factor", "alive_fraction_abs_error")


def readout(value):
    """A readout reporting *value* for every quantity."""
    return Readout(*[value] * len(GAP_NAMES))


def member(leaf, delivered, latency, alive):
    return MemberMetrics(
        index=0, scenario="s", source="des", arbitration="fifo",
        node_count=1, duration_seconds=1.0, delivered_packets=1,
        delivered_fraction=delivered, mean_latency_seconds=latency,
        p99_latency_seconds=0.02, bus_utilization=0.1,
        leaf_power_watts=leaf, hub_power_watts=1e-3,
        leaf_energy_joules=1e-3, hub_energy_joules=1e-3,
        alive_fraction=alive)


def result(leaf_power, goodput):
    return SimulationResult(
        duration_seconds=1.0, delivered_packets=3, dropped_packets=0,
        delivered_bits=3.0, mean_latency_seconds=0.01,
        p99_latency_seconds=0.02, bus_utilization=0.1,
        per_node_average_power_watts={"a": leaf_power},
        per_node_goodput_bps={"a": goodput / 3, "b": 2 * goodput / 3},
        hub_rx_energy_joules=0.0, offered_packets=4)


def test_gap_names_and_tables():
    assert GAP_NAMES == (
        "leaf_power_rel_error", "hub_power_rel_error",
        "delivered_fraction_abs_error", "mean_latency_factor",
        "p99_latency_factor", "bus_utilization_abs_error",
        "alive_fraction_abs_error", "offered_packets_rel_error",
        "goodput_rel_error")
    assert tuple(HYBRID) == GAP_NAMES
    # Member metrics carry no traffic totals, so neither does ANALYTIC.
    metrics = Readout.of_member(member(1e-3, 1.0, 0.01, 1.0))
    assert tuple(compare(metrics, metrics)) == tuple(ANALYTIC) \
        == GAP_NAMES[:7]
    full = Readout.of_result(result(1e-3, 3.0))
    assert (full.offered_packets, full.goodput_bps) == (4, 3.0)
    assert tuple(compare(full, full)) == GAP_NAMES


@pytest.mark.parametrize("name", GAP_NAMES)
def test_zero_reference_rule(name):
    both_zero, fast_only = (compare(readout(fast), readout(0.0))[name]
                            for fast in (0.0, 0.25))
    assert both_zero == (1.0 if name.endswith("_factor") else 0.0)
    # An absolute gap is defined at 0; a scaled one is infinite.
    assert fast_only == (0.25 if name.endswith("_abs_error") else math.inf)


@pytest.mark.parametrize("table", [HYBRID, ANALYTIC], ids=["hybrid", "analytic"])
def test_gap_at_its_tolerance_passes_one_ulp_above_fails(table):
    for name, tolerance in table.items():
        assert Gaps({name: tolerance}).beyond(table) == {}
        above = math.nextafter(tolerance, math.inf)
        assert Gaps({name: above}).beyond(table) == {name: above}
        assert name in Gaps({name: math.nan}).beyond(table)


def test_worst_keeps_the_largest_gap_per_name():
    assert worst([Gaps(a=0.01, b=2.0), Gaps(a=0.03, b=1.5)]) \
        == {"a": 0.03, "b": 2.0}
    assert worst([]) == {}


@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
                min_size=8, max_size=8))
def test_member_compare_reproduces_validation_rows(values):
    analytic, des = member(*values[:4]), member(*values[4:])
    gaps = compare(Readout.of_member(analytic), Readout.of_member(des))
    record = ValidationRecord.of_members(analytic, des)
    assert tuple(record.gaps()) == VALIDATION_GAPS
    assert record.gaps() == {name: gaps[name] for name in VALIDATION_GAPS}
    # The arithmetic ValidationRecord.row() used before the contract;
    # a zero DES power is the one case that changed (0.0, now inf).
    a, d = analytic, des
    power = (abs(a.leaf_power_watts - d.leaf_power_watts)
             / d.leaf_power_watts if d.leaf_power_watts
             else 0.0 if a.leaf_power_watts == 0.0 else math.inf)
    latency = (a.mean_latency_seconds / d.mean_latency_seconds
               if d.mean_latency_seconds
               else 1.0 if a.mean_latency_seconds == 0.0 else math.inf)
    assert record.row() == {
        "member": 0, "mac": "fifo", "leaf_power_err": round(power, 4),
        "delivered_err": round(abs(a.delivered_fraction
                                   - d.delivered_fraction), 4),
        "latency_ratio": round(latency, 3)}
    assert gaps["leaf_power_rel_error"] == power
    assert gaps["mean_latency_factor"] == (
        math.inf if latency == 0.0 else max(latency, 1.0 / latency))


def test_zero_des_power_no_longer_hides_an_analytic_error():
    record = ValidationRecord(
        index=0, scenario="s", arbitration="fifo",
        analytic_leaf_power_watts=1e-3, des_leaf_power_watts=0.0,
        analytic_delivered_fraction=1.0, des_delivered_fraction=1.0,
        analytic_mean_latency_seconds=0.0, des_mean_latency_seconds=0.0)
    assert record.row()["leaf_power_err"] == math.inf
    assert record.gaps().beyond(ANALYTIC) == {
        "leaf_power_rel_error": math.inf}
    point = CodingPoint(requested_rate=None, effective_rate=1.0,
                        packet_error_rate=0.0, coding_power_watts=0.0,
                        analytic_leaf_power_watts=1e-3,
                        simulated=result(0.0, 0.0))
    assert point.gaps["leaf_power_rel_error"] == math.inf
