"""Textbook checks of the steady-state closed forms both fast paths use."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.energy.battery import Battery, BatterySpec, battery_life_seconds
from repro.netsim import steady

SUPERFRAME = 0.01


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.8])
def test_md1_wait_is_pollaczek_khinchine(rho):
    # M/G/1: W = λ·E[S²] / (2·(1 − ρ)); deterministic service has
    # E[S²] = S², and λ = ρ / S.
    service = 2e-3
    arrival_rate = rho / service
    expected = arrival_rate * service ** 2 / (2.0 * (1.0 - rho))
    assert steady.md1_wait(rho, service) == pytest.approx(expected,
                                                          rel=1e-12)


def test_md1_wait_stays_finite_at_saturation():
    assert steady.md1_wait(1.0, 1e-3) == pytest.approx(1e-3 / 2e-12)
    assert steady.md1_wait(0.0, 1e-3) == 0.0


def test_utilization_adds_the_mac_overheads():
    # Three members of two rows each: FIFO, TDMA and polling.
    member_of = np.array([0, 0, 1, 1, 2, 2])
    rate = np.array([10.0, 20.0, 10.0, 20.0, 10.0, 20.0])
    attempts = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    service = attempts * 1e-3
    rho, load = steady.utilization(
        member_of, 3, rate, service, attempts, nodes=np.full(3, 2.0),
        tdma=np.array([False, True, False]),
        polling=np.array([False, False, True]), guard=1e-4,
        superframe=SUPERFRAME, poll_cost=np.array([0.0, 0.0, 5e-4]))
    assert load == pytest.approx([0.05, 0.05, 0.05])
    assert rho[0] == load[0]
    assert rho[1] == pytest.approx(0.05 + 2 * 1e-4 / SUPERFRAME)
    # One poll per transmission attempt: 10·1 + 20·2 attempts/s.
    assert rho[2] == pytest.approx(0.05 + 50.0 * 5e-4)


def test_rate_mean_weights_by_rate_and_is_zero_when_idle():
    total = np.array([10.0 * 1e-3 + 30.0 * 2e-3, 0.0])
    assert steady.rate_mean(total, np.array([40.0, 0.0])) \
        == pytest.approx([1.75e-3, 0.0])


def test_tdma_access_phase_locked_vs_drifting():
    period = np.array([3 * SUPERFRAME, 2.5 * SUPERFRAME])
    locked = steady.phase_locked(period, SUPERFRAME)
    assert locked.tolist() == [True, False]
    access = steady.tdma_access(locked, np.array([4e-3, 4e-3]), SUPERFRAME)
    # Locked: exactly its slot offset; drifting: half a frame.
    assert access.tolist() == [4e-3, SUPERFRAME / 2.0]


def test_polling_access_walks_half_the_ring_plus_own_poll():
    assert steady.polling_access(1e-3, 8) == pytest.approx(5e-3)
    assert steady.polling_access(1e-3, np.array([0.0, 2.0])) \
        == pytest.approx([1e-3, 2e-3])


def test_drain_spacing_per_policy():
    service = 1e-3
    common = dict(poll_cost=4e-4, superframe=SUPERFRAME)
    fifo = steady.drain_spacing(service, tdma=False, polling=False,
                                slot_span=0.0, **common)
    polling = steady.drain_spacing(service, tdma=False, polling=True,
                                   slot_span=0.0, **common)
    # Four services fit the slot span: four transmissions per frame.
    tdma = steady.drain_spacing(service, tdma=True, polling=False,
                                slot_span=4e-3, **common)
    # A span narrower than one service still sends one per frame.
    narrow = steady.drain_spacing(service, tdma=True, polling=False,
                                  slot_span=5e-4, **common)
    # A span wider than the frame never beats back-to-back service.
    wide = steady.drain_spacing(service, tdma=True, polling=False,
                                slot_span=0.1, **common)
    assert fifo == service
    assert polling == service + 4e-4
    assert tdma == pytest.approx(SUPERFRAME / 4.0)
    assert narrow == SUPERFRAME
    assert wide == service


def test_battery_life_is_energy_over_net_drain():
    assert steady.battery_life(100.0, 2e-3, 1e-3, 1e-3) == \
        pytest.approx(5e4)
    # Harvest covering (or exceeding) load plus leakage: perpetual.
    assert steady.battery_life(100.0, 2e-3, 1e-3, 3e-3) == math.inf
    assert steady.battery_life(100.0, 2e-3, 0.0, 5e-3) == math.inf
    lives = steady.battery_life(np.array([100.0, 100.0]),
                                np.array([2e-3, 2e-3]), 1e-3,
                                np.array([1e-3, 3e-3]))
    assert lives.tolist() == [pytest.approx(5e4), math.inf]


def test_battery_projections_share_the_closed_form():
    spec = BatterySpec(name="cell", capacity_mah=10.0,
                       self_discharge_per_year=0.05)
    load, harvest = 3e-4, 1e-4
    expected = steady.battery_life(spec.usable_energy_joules, load,
                                   spec.leakage_power_watts, harvest)
    assert battery_life_seconds(spec, load, harvest) == expected
    assert Battery(spec).projected_life_seconds(load, harvest) == expected
    assert battery_life_seconds(spec, load, harvest,
                                include_self_discharge=False) \
        == steady.battery_life(spec.usable_energy_joules, load, 0.0, harvest)


def test_float_and_array_inputs_agree():
    rho, service, period = 0.6, 1.5e-3, 0.025
    cases = [
        (steady.md1_wait(rho, service),
         steady.md1_wait(np.array([rho]), np.array([service]))),
        (steady.polling_access(7e-4, 5),
         steady.polling_access(np.array([7e-4]), np.array([5.0]))),
        (steady.tdma_access(steady.phase_locked(period, SUPERFRAME), 3e-3,
                            SUPERFRAME),
         steady.tdma_access(steady.phase_locked(np.array([period]),
                                                SUPERFRAME),
                            np.array([3e-3]), SUPERFRAME)),
        (steady.drain_spacing(service, tdma=True, polling=False,
                              poll_cost=0.0, superframe=SUPERFRAME,
                              slot_span=6e-3),
         steady.drain_spacing(np.array([service]), tdma=np.array([True]),
                              polling=np.array([False]),
                              poll_cost=np.array([0.0]),
                              superframe=SUPERFRAME,
                              slot_span=np.array([6e-3]))),
        (steady.battery_life(50.0, 1e-3, 2e-5, 4e-4),
         steady.battery_life(np.array([50.0]), np.array([1e-3]),
                             np.array([2e-5]), np.array([4e-4]))),
    ]
    for scalar, array in cases:
        assert array.shape == (1,)
        assert float(scalar) == array[0]
    assert type(steady.battery_life(50.0, 1e-3, 2e-5, 4e-4)) is float


def test_member_sums_do_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    weights = rng.random(40)
    alone = steady.per_member(np.zeros(20, dtype=np.int64), weights[20:], 1)
    batch = steady.per_member(np.repeat([0, 1], 20), weights, 2)
    assert batch[1] == alone[0]
    # Empty rows still give float totals.
    empty = steady.per_member(np.zeros(0, dtype=np.int64), np.zeros(0), 1)
    assert empty.dtype == float and empty.tolist() == [0.0]
