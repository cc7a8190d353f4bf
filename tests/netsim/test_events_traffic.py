"""Tests for repro.netsim.events, packet and traffic sources."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.netsim.events import EventQueue
from repro.netsim.packet import Packet
from repro.netsim.traffic import PeriodicSource, PoissonSource

#: A coarse time grid, so scheduled events often tie.
_tie_times = st.integers(min_value=0, max_value=8).map(lambda t: t * 0.25)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(2.0, lambda: fired.append("late"))
        queue.schedule_at(1.0, lambda: fired.append("early"))
        queue.run_until(10.0)
        assert fired == ["early", "late"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(1.0, lambda: fired.append("first"))
        queue.schedule_at(1.0, lambda: fired.append("second"))
        queue.run_until(2.0)
        assert fired == ["first", "second"]

    def test_run_until_stops_before_later_events(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(5.0, lambda: fired.append("too late"))
        queue.run_until(2.0)
        assert fired == []
        assert queue.now == pytest.approx(2.0)
        queue.run_until(6.0)
        assert fired == ["too late"]

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.schedule_at(1.0, lambda: None)
        queue.run_until(5.0)
        with pytest.raises(SimulationError):
            queue.schedule_at(2.0, lambda: None)

    def test_past_scheduling_is_rejected(self):
        queue = EventQueue()
        queue.schedule_at(5.0, lambda: None)
        queue.run_until(5.0)
        with pytest.raises(SimulationError):
            queue.schedule_at(4.0, lambda: None)

    def test_cannot_run_backwards(self):
        queue = EventQueue()
        queue.run_until(3.0)
        with pytest.raises(SimulationError):
            queue.run_until(1.0)

    @pytest.mark.parametrize("end_time", [math.nan, math.inf])
    def test_run_until_rejects_non_finite_end_time(self, end_time):
        queue = EventQueue()
        fired = []
        queue.schedule_at(1e5, lambda: fired.append("far"))
        with pytest.raises(SimulationError, match="finite"):
            queue.run_until(end_time)
        # Nothing fired and the clock did not move, so the past stays
        # in the past.
        assert fired == []
        assert queue.now == 0.0
        assert len(queue) == 1

    def test_events_can_schedule_more_events(self):
        queue = EventQueue()
        fired = []

        def chain() -> None:
            fired.append(queue.now)
            if len(fired) < 5:
                queue.schedule_at(queue.now + 1.0, chain)

        queue.schedule_at(0.0, chain)
        queue.run_until(10.0)
        assert fired == [pytest.approx(t) for t in (0.0, 1.0, 2.0, 3.0, 4.0)]

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_len_counts_pending_events(self):
        queue = EventQueue()
        queue.schedule_at(1.0, lambda: None)
        queue.schedule_at(2.0, lambda: None)
        assert len(queue) == 2
        queue.run_until(1.5)
        assert len(queue) == 1

    def test_len_is_constant_time_bookkeeping(self):
        """len() reads the store's size; firing updates it incrementally."""
        queue = EventQueue()
        for index in range(100):
            queue.schedule_at(float(index), lambda: None)
        assert len(queue) == 100
        queue.run_until(29.5)
        assert len(queue) == 70

    def test_many_simultaneous_events_fire_in_scheduling_order(self):
        """Determinism satellite: equal-time events keep insertion order."""
        queue = EventQueue()
        fired: list[int] = []
        for index in range(200):
            queue.schedule_at(1.0, lambda index=index: fired.append(index))
        queue.run_until(2.0)
        assert fired == list(range(200))

    def test_interleaved_ties_fire_in_scheduling_order(self):
        queue = EventQueue()
        fired = []
        # Every event lands on one of only three timestamps.
        for i in range(600):
            queue.schedule_at(float(i % 3), lambda i=i: fired.append(i))
        queue.run_until(10.0)
        expected = ([i for i in range(600) if i % 3 == 0]
                    + [i for i in range(600) if i % 3 == 1]
                    + [i for i in range(600) if i % 3 == 2])
        assert fired == expected

    def test_ties_resolve_on_claimed_sequences(self):
        # The kernel interleaves externally sequenced streams with the
        # control queue; a tie between a scheduled event and a claimed
        # sequence must resolve by sequence number.
        queue = EventQueue()
        fired = []
        first = queue.schedule_at(1.0, lambda: fired.append("first"))
        claimed = queue.claim_sequence()
        second = queue.schedule_at(1.0, lambda: fired.append("second"))
        assert first.sequence < claimed < second.sequence
        assert queue.peek_key() == (1.0, first.sequence)
        assert queue.step()
        assert queue.peek_key() == (1.0, second.sequence)
        assert queue.step()
        assert fired == ["first", "second"]
        assert queue.peek_key() is None

    def test_simultaneous_events_deterministic_across_runs(self):
        def run_once() -> list[int]:
            queue = EventQueue()
            fired: list[int] = []
            for index in range(64):
                queue.schedule_at(0.5, lambda index=index: fired.append(index))
            for _ in range(8):
                queue.schedule_at(0.5, lambda: fired.append(-1))
            queue.run_until(1.0)
            return fired

        assert run_once() == run_once()

    @staticmethod
    def _schedule(queue, ops, offset, scheduled, claimed, fired):
        """Schedule ``ops`` on ``queue``; ``None`` claims a sequence.

        Each fired event appends its ``(time, sequence)`` key to
        ``fired``, so order can be compared with ``sorted(scheduled)``.
        """
        for time in ops:
            if time is None:
                claimed.append(queue.claim_sequence())
                continue
            event = queue.schedule_at(
                time + offset,
                lambda n=len(scheduled): fired.append(scheduled[n]))
            scheduled.append((event.time, event.sequence))

    @given(ops=st.lists(st.one_of(st.none(), _tie_times), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_step_order_matches_sorted_oracle(self, ops):
        """Pop order is ``sorted`` by ``(time, sequence)``.

        ``None`` entries claim a sequence without scheduling, as the
        kernel's own streams do; the small time grid forces ties.
        """
        queue = EventQueue()
        fired: list[tuple[float, int]] = []
        scheduled: list[tuple[float, int]] = []
        claimed: list[int] = []
        self._schedule(queue, ops, 0.0, scheduled, claimed, fired)
        while queue.step():
            pass
        assert fired == sorted(scheduled)
        assert len(queue) == 0
        if scheduled:
            assert queue.now == max(scheduled)[0]
        # Scheduled and claimed sequences come from one counter.
        sequences = sorted([key[1] for key in scheduled] + claimed)
        assert sequences == list(range(len(sequences)))

    @given(
        before=st.lists(st.one_of(st.none(), _tie_times), max_size=40),
        after=st.lists(st.one_of(st.none(), _tie_times), max_size=20),
        horizon=_tie_times,
    )
    @settings(max_examples=80, deadline=None)
    def test_run_until_fires_the_sorted_prefix(self, before, after, horizon):
        """``run_until(horizon)`` fires exactly the sorted prefix.

        The clock then reads ``horizon``, and events scheduled from the
        horizon on join the remainder in ``(time, sequence)`` order.
        """
        queue = EventQueue()
        fired: list[tuple[float, int]] = []
        scheduled: list[tuple[float, int]] = []
        claimed: list[int] = []
        self._schedule(queue, before, 0.0, scheduled, claimed, fired)
        queue.run_until(horizon)
        prefix = [key for key in sorted(scheduled) if key[0] <= horizon]
        assert fired == prefix
        assert queue.now == horizon
        assert len(queue) == len(scheduled) - len(prefix)

        self._schedule(queue, after, horizon, scheduled, claimed, fired)
        while queue.step():
            pass
        assert fired == prefix + sorted(set(scheduled) - set(prefix))
        assert len(queue) == 0


class TestPacket:
    def test_latency_requires_delivery(self):
        packet = Packet(source="a", destination="hub", bits=100.0, created_at=0.0)
        with pytest.raises(SimulationError):
            _ = packet.latency_seconds
        packet.delivered_at = 0.5
        assert packet.latency_seconds == pytest.approx(0.5)

    def test_queueing_delay(self):
        packet = Packet(source="a", destination="hub", bits=1.0, created_at=1.0)
        packet.queued_at = 1.2
        assert packet.queueing_delay_seconds == pytest.approx(0.2)

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            Packet(source="a", destination="b", bits=-1.0, created_at=0.0)


class TestTrafficSources:
    def test_periodic_average_rate(self):
        source = PeriodicSource(period_seconds=0.5, bits_per_packet=1000.0)
        assert source.average_rate_bps() == pytest.approx(2000.0)

    def test_periodic_from_rate_round_trip(self):
        source = PeriodicSource.from_rate(64_000.0, bits_per_packet=8192.0)
        assert source.average_rate_bps() == pytest.approx(64_000.0)

    def test_periodic_deterministic(self, rng):
        source = PeriodicSource(period_seconds=0.25, bits_per_packet=100.0)
        assert source.next_interarrival_seconds(rng) == 0.25
        assert source.packet_bits(rng) == 100.0

    def test_poisson_mean_rate_approximately_correct(self):
        source = PoissonSource(mean_interarrival_seconds=0.1,
                               mean_bits_per_packet=1000.0)
        rng = np.random.default_rng(0)
        intervals = [source.next_interarrival_seconds(rng) for _ in range(5000)]
        assert np.mean(intervals) == pytest.approx(0.1, rel=0.1)

    def test_poisson_packet_sizes_positive(self):
        source = PoissonSource(mean_interarrival_seconds=1.0,
                               mean_bits_per_packet=100.0,
                               size_jitter_fraction=0.5)
        rng = np.random.default_rng(1)
        sizes = [source.packet_bits(rng) for _ in range(1000)]
        assert min(sizes) >= 8.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicSource(period_seconds=0.0, bits_per_packet=1.0)
        with pytest.raises(SimulationError):
            PoissonSource(mean_interarrival_seconds=1.0, mean_bits_per_packet=0.0)
        with pytest.raises(SimulationError):
            PeriodicSource.from_rate(0.0)

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=8.0, max_value=1e6))
    def test_periodic_rate_property(self, period, bits):
        source = PeriodicSource(period_seconds=period, bits_per_packet=bits)
        assert source.average_rate_bps() == pytest.approx(bits / period)
