"""Event engine: ordering, cancellation, run-until."""

import pytest

from repro.sim.engine import Event, EventEngine


class TestScheduling:
    def test_runs_in_time_order(self):
        eng = EventEngine()
        out = []
        eng.schedule(5.0, lambda: out.append("late"))
        eng.schedule(1.0, lambda: out.append("early"))
        eng.schedule(3.0, lambda: out.append("mid"))
        eng.run()
        assert out == ["early", "mid", "late"]

    def test_fifo_among_simultaneous_events(self):
        eng = EventEngine()
        out = []
        for i in range(10):
            eng.schedule(2.0, lambda i=i: out.append(i))
        eng.run()
        assert out == list(range(10))

    def test_priority_breaks_ties(self):
        eng = EventEngine()
        out = []
        eng.schedule(1.0, lambda: out.append("low"), priority=5)
        eng.schedule(1.0, lambda: out.append("high"), priority=0)
        eng.run()
        assert out == ["high", "low"]

    def test_now_advances_to_event_time(self):
        eng = EventEngine()
        seen = []
        eng.schedule(7.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [7.5]
        assert eng.now == 7.5

    def test_schedule_in_past_raises(self):
        eng = EventEngine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.schedule(1.0, lambda: None)

    def test_schedule_after_uses_relative_delay(self):
        eng = EventEngine()
        times = []
        eng.schedule(2.0, lambda: eng.schedule_after(3.0, lambda: times.append(eng.now)))
        eng.run()
        assert times == [5.0]

    def test_negative_delay_raises(self):
        eng = EventEngine()
        with pytest.raises(ValueError):
            eng.schedule_after(-1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        eng = EventEngine()
        out = []
        def chain(n):
            out.append(n)
            if n < 5:
                eng.schedule_after(1.0, lambda: chain(n + 1))
        eng.schedule(0.0, lambda: chain(0))
        eng.run()
        assert out == [0, 1, 2, 3, 4, 5]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = EventEngine()
        out = []
        ev = eng.schedule(1.0, lambda: out.append("x"))
        ev.cancel()
        eng.run()
        assert out == []

    def test_len_excludes_cancelled(self):
        eng = EventEngine()
        ev1 = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert len(eng) == 2
        ev1.cancel()
        assert len(eng) == 1

    def test_peek_time_skips_cancelled(self):
        eng = EventEngine()
        ev = eng.schedule(1.0, lambda: None)
        eng.schedule(4.0, lambda: None)
        ev.cancel()
        assert eng.peek_time() == 4.0


class TestLiveCounterIntegrity:
    """Regression: stray cancel() calls must never corrupt len(engine)."""

    def test_cancel_after_fire_does_not_drift_negative(self):
        eng = EventEngine()
        ev = eng.schedule(1.0, lambda: None)
        eng.run()
        assert len(eng) == 0
        ev.cancel()
        assert len(eng) == 0

    def test_cancel_fired_event_does_not_affect_later_events(self):
        eng = EventEngine()
        ev = eng.schedule(1.0, lambda: None)
        eng.run()
        ev.cancel()
        eng.schedule(2.0, lambda: None)
        assert len(eng) == 1

    def test_cancel_orphaned_by_reset_is_noop(self):
        eng = EventEngine()
        ev = eng.schedule(1.0, lambda: None)
        eng.reset()
        ev.cancel()
        assert len(eng) == 0
        eng.schedule(1.0, lambda: None)
        ev.cancel()  # still a no-op against the new population
        assert len(eng) == 1

    def test_double_cancel_decrements_once(self):
        eng = EventEngine()
        ev = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert len(eng) == 1

    def test_cancel_inside_own_callback_is_noop(self):
        eng = EventEngine()
        holder = {}
        holder["ev"] = eng.schedule(1.0, lambda: holder["ev"].cancel())
        eng.schedule(2.0, lambda: None)
        eng.step()
        assert len(eng) == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        eng = EventEngine()
        out = []
        eng.schedule(1.0, lambda: out.append(1))
        eng.schedule(10.0, lambda: out.append(10))
        count = eng.run(until=5.0)
        assert count == 1 and out == [1]
        assert eng.now == 5.0

    def test_run_until_advances_clock_even_with_no_events(self):
        eng = EventEngine()
        eng.run(until=42.0)
        assert eng.now == 42.0

    def test_max_events_bound(self):
        eng = EventEngine()
        out = []
        for i in range(5):
            eng.schedule(float(i), lambda i=i: out.append(i))
        assert eng.run(max_events=3) == 3
        assert out == [0, 1, 2]

    def test_max_events_with_pending_work_does_not_advance_to_until(self):
        # Regression: a run truncated by max_events with events still
        # pending inside [now, until] must not skip ahead to until.
        eng = EventEngine()
        for i in range(1, 8):
            eng.schedule(float(i), lambda: None)
        count = eng.run(until=10.0, max_events=3)
        assert count == 3
        assert eng.now == 3.0

    def test_max_events_advances_to_until_when_interval_drained(self):
        # Regression: budget exhausted exactly on the last event inside
        # the window — the interval is fully simulated, so now == until.
        eng = EventEngine()
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        eng.schedule(20.0, lambda: None)
        count = eng.run(until=10.0, max_events=2)
        assert count == 2
        assert eng.now == 10.0
        assert len(eng) == 1

    def test_truncated_run_resumes_without_skipping_time(self):
        eng = EventEngine()
        fired = []
        for i in range(1, 6):
            eng.schedule(float(i), lambda i=i: fired.append(i))
        eng.run(until=10.0, max_events=2)
        eng.run(until=10.0)
        assert fired == [1, 2, 3, 4, 5]
        assert eng.now == 10.0

    def test_step_returns_false_on_empty(self):
        eng = EventEngine()
        assert eng.step() is False

    def test_reset_clears_state(self):
        eng = EventEngine()
        eng.schedule(1.0, lambda: None)
        eng.run()
        eng.reset()
        assert eng.now == 0.0 and len(eng) == 0
