"""Pinned results must not depend on how the builtin ``sum`` rounds.

From Python 3.12 on, the builtin ``sum`` of floats is compensated
(Neumaier), so a result added up with it rounds differently than on
3.10 and 3.11, and its pin moves.  Here :func:`compensated_sum`, a
model of the 3.12 float loop, is installed as ``builtins.sum`` and
pins that such sums once reached are re-run on any interpreter: a
kernel run, a hybrid run's energy books, a hybrid multi-body
environment and its per-body means, a hybrid cohort whose cells brown
out, and an oversubscribed TDMA body whose slot shares divide by the
summed demand.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import importlib.util
import math
import operator
from pathlib import Path

import pytest

import test_kernel_pins
import test_ledger_pins
from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.netsim import BodyNetworkSimulator, PeriodicSource
from repro.netsim.config import NodeConfig
from repro.runner.artifacts import canonical_json
from repro.scenarios import get_environment


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as CPython 3.12 computes it: exact ints, a
    Neumaier-compensated loop over exact floats, and plain ``+`` from
    the first item of any other type on."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) is not int and type(item) is not bool:
                break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                result = total + compensation + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def _load(relative: str):
    """A pin module of another test directory, by path."""
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(
        f"summation_order_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compensated(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_model_is_compensated_and_otherwise_builtin():
    values = [1.0, 1e100, 1.0, -1e100]
    assert functools.reduce(operator.add, values) == 0.0
    assert compensated_sum(values) == 2.0
    assert compensated_sum([0.1] * 10) == 1.0
    for args in (([1, 2, True],), ([],), ([0.5, 2, 0.25],),
                 ([[1], [2]], []), ([1.5, 2.5], 10)):
        assert compensated_sum(*args) == sum(*args)
        assert type(compensated_sum(*args)) is type(sum(*args))


def test_kernel_pin(compensated):
    test_kernel_pins.test_completion_step_pinned(
        "fifo", "no_arq", "batteryless")


def test_hybrid_ledger_pin(compensated):
    test_ledger_pins.test_ledger_books_pinned("commute_walk/hybrid")


def test_hybrid_environment_pin(compensated):
    _load("scenarios/test_environment_pins.py").test_environment_pinned(
        "gym_floor", "hybrid")


def test_hybrid_battery_cohort_pin(compensated):
    _load("energy/test_battery_pins.py") \
        .test_battery_mix_hybrid_cohort_pinned()


#: An E8-style body past capacity: 40 leaves of 64 kb/s x (1 + k/9),
#: about twice the 4 Mb/s link, so TDMA falls back to rate-proportional
#: slot shares whose widths divide by the summed demand.  That sum is
#: one where the compensated loop rounds differently.
OVERSUBSCRIBED_TDMA_SHA256 = \
    "9255b31da8a94fe86c69d37e7c06997f11fe782e2299e5cd63136937d6f35fdb"

#: Unweighted means over the ``gym_floor`` hybrid environment's bodies.
GYM_FLOOR_MEAN_DELIVERED_FRACTION = "0.9775616438356165"
GYM_FLOOR_MEAN_LEAF_POWER_WATTS = "2.869813557048889e-05"


def oversubscribed_tdma_sha256() -> str:
    simulator = BodyNetworkSimulator(wir_commercial(), rng=0,
                                     arbitration="tdma")
    for index in range(40):
        simulator.attach(NodeConfig(
            f"leaf{index}",
            PeriodicSource.from_rate(
                units.kilobit_per_second(64.0) * (1.0 + index / 9.0)),
            sensing_power_watts=units.microwatt(30.0)))
    result = simulator.run(1.0)
    windows = simulator.bus.policy._slot_table()
    return hashlib.sha256(canonical_json(
        {"result": result.to_dict(), "windows": windows}).encode("utf-8")
    ).hexdigest()


def test_oversubscribed_tdma_pin(compensated):
    assert oversubscribed_tdma_sha256() == OVERSUBSCRIBED_TDMA_SHA256


def test_environment_means(compensated):
    result = get_environment("gym_floor").build(seed=0).run(
        fast_path="hybrid")
    assert repr(result.mean_delivered_fraction) \
        == GYM_FLOOR_MEAN_DELIVERED_FRACTION
    assert repr(result.mean_leaf_power_watts) \
        == GYM_FLOOR_MEAN_LEAF_POWER_WATTS
