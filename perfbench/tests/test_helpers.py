"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# -- tail percentile rule -------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (40, 75.0), (50, 80.0), (99, 80.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert common.tail_percentile(n) == expected


def test_tail_percentile_has_ten_samples_beyond_on_the_data():
    values = list(range(50))
    p = common.tail_percentile(len(values))
    cut = common.percentile(values, p)
    assert sum(v > cut for v in values) >= 10


def test_percentile_interpolates_like_numpy():
    assert common.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert common.percentile([5.0], 90) == 5.0


# -- digest canonicalization ----------------------------------------------------


RESULT = {
    "workload": "dc", "policy": "coolpim-hw", "runtime_s": 0.0042100000001,
    "thermal_warnings": 3, "phase_time_s": {"normal": 0.004, "hot": 0.0002},
}


def test_digest_ignores_timeline_and_host_time():
    noisy = dict(
        RESULT, timeline=[[0.0, 80.0, 1.0, 0.5]], elapsed_s=1.23, ts=1e9,
        finished_unix=1.7e9, wall_s=4.0,
        phase_time_s=dict(RESULT["phase_time_s"], started_unix=5.0),
    )
    assert common.digest(noisy) == common.digest(RESULT)


def test_digest_ignores_last_bits_but_not_values():
    assert common.digest(dict(RESULT, runtime_s=0.0042100000002)) == common.digest(RESULT)
    assert common.digest(dict(RESULT, runtime_s=0.00422)) != common.digest(RESULT)
    assert common.digest(dict(RESULT, thermal_warnings=4)) != common.digest(RESULT)


def test_digest_is_key_order_independent_and_hashes_text():
    reordered = dict(reversed(list(RESULT.items())))
    assert common.digest(reordered) == common.digest(RESULT)
    assert common.digest("fig5\n table\n") == common.digest("fig5\n table")


# -- self time ------------------------------------------------------------------


def span(sid, start, end, parent=None, name="core.run"):
    return Span(name, start, end, sid, parent, None, "measured", {})


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, "a", "gpu.run"),
        span("c", 2.0, 3.0, "b", "thermal.get_propagator"),
        span("d", 6.0, 7.0, "a", "workloads.launch"),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0})
    by_layer = tracing.self_time_by_layer(spans)
    assert by_layer == pytest.approx(
        {"core": 6.0, "gpu": 2.0, "thermal": 1.0, "workloads": 1.0}
    )
    assert sum(by_layer.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # Two pool workers run handlers in parallel under one scheduler span;
    # one handler outlives the span.
    spans = [
        span("s", 0.0, 10.0, name="scheduler.run"),
        span("h1", 1.0, 6.0, "s", "handlers.run"),
        span("h2", 4.0, 8.0, "s", "handlers.run"),
        span("h3", 9.0, 12.0, "s", "handlers.run"),
    ]
    assert tracing.self_times(spans)["s"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_union_length_clips_to_window():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing.union_length([(-5, 1), (9, 20)], 0, 10) == 2
    assert tracing.union_length([], 0, 10) == 0


def test_recorder_nests_spans_and_carries_request_ids():
    recorder = tracing.Recorder()
    inner = recorder.wrap(lambda: 2, "gpu.run")
    outer = recorder.wrap(lambda: inner() + 1, "core.run")
    with recorder.request("op7"):
        assert outer() == 3
    gpu, core = recorder.spans
    assert gpu.parent_id == core.span_id and core.parent_id is None
    assert gpu.request_id == core.request_id == "op7"
    assert core.start <= gpu.start <= gpu.end <= core.end


# -- workload inputs and the benchmark file -------------------------------------


class _FakeSweepClient:
    """Answers ``POST /sweeps`` with the given (workload, policy) runs,
    each completing with a result that matches its reference."""

    def __init__(self, cells):
        self.cells = cells

    def submit_sweep(self, **body):
        return {"runs": [{"name": f"{w}/{p}@ldbc", "run_id": f"{w}/{p}"}
                         for w, p in self.cells]}

    def stream_events(self, run_id):
        yield {"event": "queued", "ts": 1.0}
        yield {"event": "completed", "ts": 2.0, "result": {"cell": run_id}}


def _sweep_refs(cells):
    return {common.sim_key(w, p, "commodity", "sweep"): common.digest({"cell": f"{w}/{p}"})
            for w, p in cells}


def test_sweep_counts_every_reference_key():
    cells = [("dc", "base"), ("dc", "naive"), ("kcore", "base")]
    tally = workloads.Tally()
    workloads.sweep_measure(_FakeSweepClient(cells), OSError, _sweep_refs(cells), 0, tally)
    assert (tally.attempted, tally.ok, tally.unexpected) == (3, 3, 0)


def test_sweep_fails_missing_and_repeated_runs():
    cells = [("dc", "base"), ("dc", "naive"), ("kcore", "base")]
    returned = [("dc", "base"), ("dc", "base"), ("kcore", "base")]
    tally = workloads.Tally()
    workloads.sweep_measure(_FakeSweepClient(returned), OSError, _sweep_refs(cells), 0, tally)
    # dc/base and kcore/base match; the repeat and the missing dc/naive fail.
    assert (tally.attempted, tally.ok, tally.unexpected) == (4, 2, 2)


def test_benchmark_file_matches_the_metrics_produced():
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    layer = [m["name"] for m in bench["per_layer"]]
    assert layer == [n for n, _, _ in tracing.per_layer_names(workloads.EXPERIMENTS)]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.UNIT_SECONDS)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
