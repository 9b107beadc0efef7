"""Tests for the explorer's controlled discrete-event scheduler."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import SimulationError
from repro.simulation.explore import ControlledScheduler


def _drain(scheduler: ControlledScheduler) -> int:
    """Fire events on the default policy until none remain; return the count."""
    count = 0
    while scheduler.step():
        count += 1
    return count


def _load(scheduler, fired):
    # A mix of ties, out-of-order insertion and event-scheduled events.
    scheduler.schedule(2.0, lambda: fired.append(("b", scheduler.now)))
    scheduler.schedule(1.0, lambda: fired.append(("a1", scheduler.now)))
    scheduler.schedule(1.0, lambda: fired.append(("a2", scheduler.now)))

    def cascade():
        fired.append(("c", scheduler.now))
        scheduler.schedule(0.5, lambda: fired.append(("d", scheduler.now)))

    scheduler.schedule(3.0, cascade)


class TestDefaultOrder:
    def test_events_fire_in_time_order(self):
        scheduler = ControlledScheduler()
        fired = []
        scheduler.schedule(3.0, lambda: fired.append("c"))
        scheduler.schedule(1.0, lambda: fired.append("a"))
        scheduler.schedule(2.0, lambda: fired.append("b"))
        assert _drain(scheduler) == 3
        assert fired == ["a", "b", "c"]
        assert scheduler.now == 3.0

    def test_ties_break_by_insertion_order(self):
        scheduler = ControlledScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append("first"))
        scheduler.schedule(1.0, lambda: fired.append("second"))
        _drain(scheduler)
        assert fired == ["first", "second"]

    def test_events_can_schedule_more_events(self):
        scheduler = ControlledScheduler()
        fired = []
        _load(scheduler, fired)
        assert _drain(scheduler) == 5
        assert fired == [("a1", 1.0), ("a2", 1.0), ("b", 2.0), ("c", 3.0), ("d", 3.5)]

    def test_delays_count_from_the_firing_event(self):
        scheduler = ControlledScheduler()
        fired = []

        def chain(depth):
            fired.append((depth, scheduler.now))
            if depth < 3:
                scheduler.schedule(1.0, lambda: chain(depth + 1))

        scheduler.schedule(1.0, lambda: chain(0))
        _drain(scheduler)
        assert fired == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]

    def test_step_on_empty_queue(self):
        assert ControlledScheduler().step() is False

    def test_same_seedless_schedule_is_deterministic(self):
        orders = []
        for _ in range(2):
            scheduler = ControlledScheduler()
            fired = []
            _load(scheduler, fired)
            _drain(scheduler)
            orders.append(fired)
        assert orders[0] == orders[1]


class TestChosenOrder:
    def test_enabled_lists_pending_events_in_default_order(self):
        scheduler = ControlledScheduler()
        late = scheduler.schedule(2.0, lambda: None)
        early = scheduler.schedule(1.0, lambda: None)
        assert [event.time for event in scheduler.enabled()] == [early.time, late.time]

    def test_handle_reports_its_firing_time(self):
        scheduler = ControlledScheduler()
        scheduler.schedule(2.0, lambda: None)
        scheduler.step()
        assert scheduler.schedule(0.5, lambda: None).time == 2.5

    def test_enabled_skips_cancelled_events(self):
        scheduler = ControlledScheduler()
        scheduler.schedule(1.0, lambda: None).cancel()
        kept = scheduler.schedule(2.0, lambda: None)
        assert [event.time for event in scheduler.enabled()] == [kept.time]

    def test_step_event_refuses_another_schedulers_event(self):
        other = ControlledScheduler()
        other.schedule(1.0, lambda: None)
        scheduler = ControlledScheduler()
        scheduler.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            scheduler.step_event(other.enabled()[0])
        assert len(scheduler) == 1

    def test_step_event_fires_any_enabled_event_and_time_never_runs_back(self):
        scheduler = ControlledScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append("early"))
        scheduler.schedule(2.0, lambda: fired.append("late"))
        scheduler.step_event(scheduler.enabled()[1])
        assert fired == ["late"]
        assert scheduler.now == 2.0
        scheduler.step_event(scheduler.enabled()[0])
        assert fired == ["late", "early"]
        assert scheduler.now == 2.0

    def test_step_event_refuses_cancelled_and_fired_events(self):
        scheduler = ControlledScheduler()
        handle = scheduler.schedule(1.0, lambda: None)
        event = scheduler.enabled()[0]
        handle.cancel()
        with pytest.raises(SimulationError):
            scheduler.step_event(event)
        scheduler.schedule(1.0, lambda: None)
        fired = scheduler.enabled()[0]
        scheduler.step_event(fired)
        with pytest.raises(SimulationError):
            scheduler.step_event(fired)


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        scheduler = ControlledScheduler()
        fired = []
        handle = scheduler.schedule(1.0, lambda: fired.append("cancelled"))
        scheduler.schedule(2.0, lambda: fired.append("kept"))
        assert len(scheduler) == 2
        handle.cancel()
        assert handle.cancelled
        assert len(scheduler) == 1
        _drain(scheduler)
        assert fired == ["kept"]

    def test_cancellation_during_step_is_honoured(self):
        # An event that cancels a later pending event mid-step: the victim
        # must never fire.
        scheduler = ControlledScheduler()
        fired = []
        victim = scheduler.schedule(2.0, lambda: fired.append("victim"))
        scheduler.schedule(1.0, lambda: victim.cancel())
        scheduler.schedule(3.0, lambda: fired.append("after"))
        assert _drain(scheduler) == 2
        assert fired == ["after"]
        assert victim.cancelled


class TestBadDelays:
    def test_negative_delay_rejected(self):
        scheduler = ControlledScheduler()
        with pytest.raises(SimulationError, match="past"):
            scheduler.schedule(-1.0, lambda: None)
        assert len(scheduler) == 0

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, delay):
        # NaN compares false against everything, so a poisoned entry would
        # silently corrupt the (time, sequence) order.
        scheduler = ControlledScheduler()
        with pytest.raises(SimulationError, match="finite"):
            scheduler.schedule(delay, lambda: None)
        assert len(scheduler) == 0
