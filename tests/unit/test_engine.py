"""Unit tests for the discrete-event engine."""

import pytest

from repro.simnet.engine import Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, engine):
        order = []
        for i in range(10):
            engine.schedule(1.0, lambda i=i: order.append(i))
        engine.run()
        assert order == list(range(10))

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]
        assert engine.now == 1.5

    def test_nested_scheduling_relative_to_now(self, engine):
        times = []

        def first():
            engine.schedule(0.5, lambda: times.append(engine.now))

        engine.schedule(1.0, first)
        engine.run()
        assert times == [1.5]

    def test_schedule_at_absolute_time(self, engine):
        times = []
        engine.schedule_at(4.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [4.0]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: None)

    def test_schedule_in_past_rejected(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_zero_delay_fires(self, engine):
        hits = []
        engine.schedule(0.0, lambda: hits.append(1))
        engine.run()
        assert hits == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        hits = []
        handle = engine.schedule(1.0, lambda: hits.append(1))
        engine.cancel(handle)
        engine.run()
        assert hits == []

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        engine.cancel(handle)
        engine.cancel(handle)
        assert engine.pending_events == 0

    def test_cancel_after_fire_is_harmless(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        engine.cancel(handle)  # no error

    def test_pending_events_excludes_cancelled(self, engine):
        engine.schedule(1.0, lambda: None)
        handle = engine.schedule(2.0, lambda: None)
        engine.cancel(handle)
        assert engine.pending_events == 1


class TestRunControl:
    def test_until_stops_clock_and_keeps_events(self, engine):
        hits = []
        engine.schedule(1.0, lambda: hits.append("a"))
        engine.schedule(5.0, lambda: hits.append("b"))
        engine.run(until=2.0)
        assert hits == ["a"]
        assert engine.now == 2.0
        assert engine.pending_events == 1

    def test_until_advances_clock_even_if_idle(self, engine):
        engine.run(until=3.0)
        assert engine.now == 3.0

    def test_resume_after_until(self, engine):
        hits = []
        engine.schedule(5.0, lambda: hits.append("b"))
        engine.run(until=2.0)
        engine.run()
        assert hits == ["b"]

    def test_max_events_backstop(self, engine):
        def loop():
            engine.schedule(0.1, loop)

        engine.schedule(0.1, loop)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=100)

    def test_stop_halts_mid_run(self, engine):
        hits = []
        engine.schedule(1.0, lambda: (hits.append("a"), engine.stop()))
        engine.schedule(2.0, lambda: hits.append("b"))
        engine.run()
        assert hits == ["a"]
        assert engine.pending_events == 1

    def test_reentrant_run_rejected(self, engine):
        def reenter():
            engine.run()

        engine.schedule(1.0, reenter)
        with pytest.raises(SimulationError, match="re-entrant"):
            engine.run()

    def test_events_fired_counter(self, engine):
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_fired == 5



class TestLaneBookkeeping:
    """The two-lane rewrite keeps its live-event accounting exact."""

    def test_handle_reports_scheduled_time(self, engine):
        engine.schedule(1.0, lambda: None)  # advance seq past zero
        handle = engine.schedule(2.5, lambda: None)
        assert handle[0] == 2.5

    def test_cancel_after_fire_keeps_pending_count(self, engine):
        fired = engine.schedule(1.0, lambda: None)
        engine.schedule(5.0, lambda: None)
        engine.run(until=2.0)
        engine.cancel(fired)  # stale handle: must not corrupt the counter
        assert engine.pending_events == 1
        engine.run()
        assert engine.pending_events == 0

    def test_mass_cancellation_count(self, engine):
        handles = [engine.schedule(float(i), lambda: None) for i in range(100)]
        for handle in handles[::2]:
            engine.cancel(handle)
        assert engine.pending_events == 50
        engine.run()
        assert engine.events_fired == 50
        assert engine.pending_events == 0

    def test_cancelled_entries_are_purged_from_lanes(self, engine):
        handles = [engine.schedule(1.0, lambda: None) for _ in range(10)]
        for handle in handles:
            engine.cancel(handle)
        engine.run()
        assert engine._heap == [] and not engine._fifo and engine._dead == 0

    def test_out_of_order_schedule_lands_in_heap_lane(self, engine):
        order = []
        engine.schedule(3.0, lambda: order.append("fifo"))
        engine.schedule(1.0, lambda: order.append("heap"))  # before tail
        assert len(engine._heap) == 1 and len(engine._fifo) == 1
        engine.run()
        assert order == ["heap", "fifo"]

    def test_schedule_at_nan_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda: None)
