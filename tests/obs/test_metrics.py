"""Metrics documents: export/load, report rendering, diffing."""

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA_ID,
    diff_metrics,
    export_metrics,
    flatten_stats,
    load_metrics,
    render_report,
)
from repro.sim.stats import StatRegistry, linear_bounds


def _registry():
    reg = StatRegistry()
    reg.counter("sim.epochs").inc(4)
    h = reg.histogram("sim.dt_ns", linear_bounds(0.0, 100.0, 10))
    for x in (10.0, 20.0, 30.0):
        h.observe(x)
    tw = reg.time_weighted("sim.frac", initial=0.0)
    tw.update(1.0, now=2.0)
    return reg


class TestExportLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        doc = export_metrics(
            _registry().snapshot(structured=True), path, meta={"seed": 3}
        )
        loaded = load_metrics(path)
        assert loaded == doc
        assert loaded["schema"] == METRICS_SCHEMA_ID
        assert loaded["meta"] == {"seed": 3}
        assert loaded["stats"]["sim.epochs"] == {"type": "counter", "value": 4.0}

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="not a metrics document"):
            load_metrics(path)

    def test_stats_keys_sorted(self):
        doc = export_metrics({"b": {"type": "counter", "value": 1},
                              "a": {"type": "counter", "value": 2}})
        assert list(doc["stats"]) == ["a", "b"]


class TestReport:
    def test_flatten_drops_type_field(self):
        flat = flatten_stats({"x": {"type": "counter", "value": 2.0}})
        assert flat == {"x.value": 2.0}

    def test_render_is_deterministic_and_diffable(self):
        doc = export_metrics(_registry().snapshot(structured=True),
                             meta={"run": "a"})
        text = render_report(doc)
        assert text == render_report(doc)
        assert text.startswith(f"# metrics ({METRICS_SCHEMA_ID})")
        assert "# run: a" in text
        assert "sim.epochs.value" in text
        assert text.endswith("\n")

    def test_none_renders_as_dash(self):
        reg = StatRegistry()
        reg.histogram("empty", linear_bounds(0.0, 1.0, 2))
        text = render_report(export_metrics(reg.snapshot(structured=True)))
        assert "empty.p50" in text and "  -" in text


class TestDiff:
    def test_identical_docs_diff_empty(self):
        doc = export_metrics(_registry().snapshot(structured=True))
        assert diff_metrics(doc, doc) == ""

    def test_changed_added_removed(self):
        a = export_metrics({"x": {"type": "counter", "value": 1.0},
                            "gone": {"type": "counter", "value": 5.0}})
        b = export_metrics({"x": {"type": "counter", "value": 2.0},
                            "new": {"type": "counter", "value": 7.0}})
        diff = diff_metrics(a, b)
        assert "~ x.value  1 -> 2" in diff
        assert "- gone.value  5" in diff
        assert "+ new.value  7" in diff
