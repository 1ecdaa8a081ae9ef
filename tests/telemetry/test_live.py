"""Live run-telemetry sink: budget, coalescing, thread-local install."""

import threading

import pytest

from repro.telemetry.live import (
    INTERVAL_S,
    RunTelemetrySink,
    get_run_sink,
    run_telemetry,
    set_run_sink,
)


def make_sink(out, **kwargs):
    return RunTelemetrySink(emit=out.append, **kwargs)


class TestBudget:
    def test_first_sample_always_due(self):
        out = []
        sink = make_sink(out)
        assert sink.next_due_s == 0.0
        sink.emit_sample({"t_s": 0.0})
        assert len(out) == 1

    def test_next_due_advances_by_interval(self):
        out = []
        sink = make_sink(out)
        sink.emit_sample({"t_s": 1.0})
        assert sink.next_due_s == 1.0 + INTERVAL_S

    def test_max_samples_caps_emissions_last_value_wins(self):
        out = []
        sink = make_sink(out, max_samples=3)
        for i in range(10):
            sink.emit_sample({"t_s": float(i), "i": i})
        assert len(out) == 3
        assert sink.coalesced == 7
        sink.close()
        # close() flushes the freshest pending sample: bound is N+1.
        assert len(out) == 4
        assert out[-1]["i"] == 9

    def test_close_is_idempotent_and_seals(self):
        out = []
        sink = make_sink(out)
        sink.emit_sample({"t_s": 0.0})
        sink.close()
        sink.close()
        sink.emit_sample({"t_s": 9.0})
        assert len(out) == 1
        assert sink.next_due_s == float("inf")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RunTelemetrySink(emit=lambda s: None, max_samples=0)


class TestThreadLocalInstall:
    def test_default_is_none(self):
        assert get_run_sink() is None

    def test_context_manager_installs_and_restores(self):
        out = []
        sink = make_sink(out)
        with run_telemetry(sink) as active:
            assert active is sink
            assert get_run_sink() is sink
        assert get_run_sink() is None
        assert sink._closed  # closed on exit

    def test_nesting_restores_previous(self):
        a, b = make_sink([]), make_sink([])
        with run_telemetry(a):
            with run_telemetry(b):
                assert get_run_sink() is b
            assert get_run_sink() is a
        assert get_run_sink() is None

    def test_sinks_do_not_leak_across_threads(self):
        seen = {}
        sink = make_sink([])

        def probe():
            seen["other"] = get_run_sink()

        previous = set_run_sink(sink)
        try:
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        finally:
            set_run_sink(previous)
        assert seen["other"] is None
