"""Perf-trend gate: baselines, tolerance bands, exit codes."""

import json
from pathlib import Path

import pytest

from repro.telemetry.trend import (
    BASELINES_SCHEMA_ID,
    TrendError,
    evaluate,
    load_baselines,
    render_trend_report,
    resolve_metric,
    run_trend,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def baselines_doc(metrics):
    return {
        "schema": BASELINES_SCHEMA_ID,
        "benchmarks": {
            "bench": {"source": "BENCH_x.json", "metrics": metrics}
        },
    }


@pytest.fixture
def bench_dir(tmp_path):
    return tmp_path


class TestLoadBaselines:
    def test_valid_document_loads(self, tmp_path):
        p = write_json(
            tmp_path / "b.json",
            baselines_doc({"speed": {"baseline": 2.0, "min_ratio": 0.5}}),
        )
        doc = load_baselines(p)
        assert "bench" in doc["benchmarks"]

    def test_missing_file_is_trend_error(self, tmp_path):
        with pytest.raises(TrendError, match="not found"):
            load_baselines(tmp_path / "nope.json")

    def test_bad_schema_rejected(self, tmp_path):
        p = write_json(tmp_path / "b.json", {"schema": "other/1"})
        with pytest.raises(TrendError, match="schema"):
            load_baselines(p)

    def test_metric_without_band_rejected(self, tmp_path):
        p = write_json(
            tmp_path / "b.json", baselines_doc({"m": {"baseline": 1.0}})
        )
        with pytest.raises(TrendError, match="min_ratio"):
            load_baselines(p)


class TestResolveMetric:
    def test_dotted_lookup(self):
        doc = {"policies": {"coolpim-hw": {"speedup": 4.8}}}
        assert resolve_metric(doc, "policies.coolpim-hw.speedup") == 4.8

    def test_absent_or_non_numeric_is_none(self):
        assert resolve_metric({}, "a.b") is None
        assert resolve_metric({"a": "text"}, "a") is None
        assert resolve_metric({"a": True}, "a") is None


class TestEvaluate:
    def test_within_band_is_ok(self, bench_dir):
        write_json(bench_dir / "BENCH_x.json", {"speed": 1.9})
        rows = evaluate(
            baselines_doc({"speed": {"baseline": 2.0, "min_ratio": 0.5}}),
            bench_dir,
        )
        assert [r.status for r in rows] == ["ok"]

    def test_min_ratio_floor_trips(self, bench_dir):
        write_json(bench_dir / "BENCH_x.json", {"speed": 0.5})
        rows = evaluate(
            baselines_doc({"speed": {"baseline": 2.0, "min_ratio": 0.5}}),
            bench_dir,
        )
        assert rows[0].status == "regression"
        assert "floor" in rows[0].note

    def test_max_ratio_ceiling_trips(self, bench_dir):
        write_json(bench_dir / "BENCH_x.json", {"wall_s": 10.0})
        rows = evaluate(
            baselines_doc({"wall_s": {"baseline": 2.0, "max_ratio": 3.0}}),
            bench_dir,
        )
        assert rows[0].status == "regression"
        assert "ceiling" in rows[0].note

    def test_missing_artifact_marks_all_missing(self, bench_dir):
        rows = evaluate(
            baselines_doc({"speed": {"baseline": 2.0, "min_ratio": 0.5}}),
            bench_dir,
        )
        assert rows[0].status == "missing"

    def test_missing_metric_in_artifact(self, bench_dir):
        write_json(bench_dir / "BENCH_x.json", {"other": 1})
        rows = evaluate(
            baselines_doc({"speed": {"baseline": 2.0, "min_ratio": 0.5}}),
            bench_dir,
        )
        assert rows[0].status == "missing"

    def test_config_mismatch_replaces_the_ratio(self, bench_dir):
        doc = baselines_doc({
            "speed": {"baseline": 2.0, "min_ratio": 0.5},
            "time": {"baseline": 1.0, "max_ratio": 2.0},
        })
        doc["benchmarks"]["bench"]["config"] = {"dataset": "big", "n": 4}
        write_json(bench_dir / "BENCH_x.json", {
            "config": {"dataset": "big", "n": 4, "extra": True},
            "speed": 0.1, "time": 1.0,
        })
        assert [r.status for r in evaluate(doc, bench_dir)] == [
            "regression", "ok",
        ]
        for config in ({"dataset": "small", "n": 4}, {"dataset": "big"}, None):
            write_json(bench_dir / "BENCH_x.json",
                       {"config": config, "speed": 0.1, "time": 1.0})
            rows = evaluate(doc, bench_dir)
            assert [r.status for r in rows] == ["config-mismatch"] * 2
            assert all(r.current is None and r.ratio is None for r in rows)

    def test_config_must_be_a_map(self, tmp_path):
        doc = baselines_doc({"speed": {"baseline": 2.0, "min_ratio": 0.5}})
        doc["benchmarks"]["bench"]["config"] = ["dataset"]
        with pytest.raises(TrendError, match="config"):
            load_baselines(write_json(tmp_path / "b.json", doc))


class TestRunTrend:
    def _setup(self, tmp_path, current, check):
        write_json(tmp_path / "BENCH_x.json", {"speed": current})
        baselines = write_json(
            tmp_path / "baselines.json",
            baselines_doc({"speed": {"baseline": 2.0, "min_ratio": 0.5}}),
        )
        return run_trend(tmp_path, baselines, check=check)

    def test_pass_exits_zero(self, tmp_path):
        code, report = self._setup(tmp_path, 2.1, check=True)
        assert code == 0
        assert "all within tolerance" in report

    def test_regression_with_check_exits_one(self, tmp_path):
        code, report = self._setup(tmp_path, 0.1, check=True)
        assert code == 1
        assert "out of tolerance" in report

    def test_regression_without_check_is_informational(self, tmp_path):
        code, _ = self._setup(tmp_path, 0.1, check=False)
        assert code == 0

    def test_structural_error_exits_two(self, tmp_path):
        code, report = run_trend(tmp_path, tmp_path / "missing.json",
                                 check=True)
        assert code == 2
        assert "error" in report

    def test_report_written_to_file(self, tmp_path):
        write_json(tmp_path / "BENCH_x.json", {"speed": 2.0})
        baselines = write_json(
            tmp_path / "baselines.json",
            baselines_doc({"speed": {"baseline": 2.0, "min_ratio": 0.5}}),
        )
        out = tmp_path / "out" / "trend.txt"
        code, report = run_trend(tmp_path, baselines, report_path=out)
        assert code == 0
        assert out.read_text() == report

    def test_report_renders_ratio_column(self, tmp_path):
        _, report = self._setup(tmp_path, 1.0, check=False)
        assert "0.50x" in report


REPO_BASELINES = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "baselines.json"
)


def artifacts_at_baseline(doc, bench_dir):
    """Write every bench artifact ``doc`` reads, each metric set to its
    committed baseline value (a tree exactly on its baselines)."""
    artifacts = {}
    for entry in doc["benchmarks"].values():
        artifact = artifacts.setdefault(entry["source"], {})
        artifact["config"] = dict(entry.get("config", {}))
        for metric, spec in entry["metrics"].items():
            *parents, leaf = metric.split(".")
            node = artifact
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = spec["baseline"]
    for source, artifact in artifacts.items():
        write_json(bench_dir / source, artifact)
    return artifacts


class TestCommittedBaselines:
    """The committed baselines file, checked against artifacts built from
    its own values; comparing real bench numbers is CI's
    ``repro bench-trend --check`` step."""

    def test_repo_baselines_are_valid_and_cover_bench_artifact(self, tmp_path):
        doc = load_baselines(REPO_BASELINES)
        artifacts_at_baseline(doc, tmp_path)
        rows = evaluate(doc, tmp_path)
        assert rows, "baselines cover no metrics"
        assert len(rows) == sum(
            len(entry["metrics"]) for entry in doc["benchmarks"].values()
        )
        bad = [r for r in rows if r.status != "ok"]
        assert not bad, render_trend_report(rows)

    def test_synthetic_regression_trips_gate(self, tmp_path):
        """Injecting a 10x slowdown into the bench artifact must fail
        the --check gate (the CI criterion)."""
        artifacts = artifacts_at_baseline(load_baselines(REPO_BASELINES),
                                          tmp_path)
        bench = artifacts["BENCH_simulator.json"]
        bench["aggregate_speedup"] = bench["aggregate_speedup"] / 10.0
        write_json(tmp_path / "BENCH_simulator.json", bench)
        code, report = run_trend(tmp_path, REPO_BASELINES, check=True)
        assert code == 1
        assert "regression" in report

    def test_quick_sweep_artifact_reads_config_mismatch(self, tmp_path):
        """A ``REPRO_BENCH_QUICK=1`` sweep (small graph, 2.10x) against
        the full-scale 4.34x baseline is a different measurement, not a
        regression."""
        doc = load_baselines(REPO_BASELINES)
        artifacts_at_baseline(doc, tmp_path)
        write_json(tmp_path / "BENCH_sweep.json", {
            "benchmark": "sweep_trace_memo_vs_per_run",
            "config": {
                "dataset": "ldbc-small",
                "workload_scale": 0.25,
                "policies": ["non-offloading", "naive-offloading",
                             "coolpim-sw", "coolpim-hw", "ideal-thermal"],
                "workloads": ["dc", "bfs-ta", "bfs-dwc", "bfs-ttc",
                              "bfs-twc", "kcore", "pagerank", "sssp-dtc",
                              "sssp-dwc", "sssp-twc"],
                "quick": True,
            },
            "per_run_s": 1.2,
            "trace_memo_s": 0.57,
            "aggregate_speedup": 2.10,
        })
        rows = [r for r in evaluate(doc, tmp_path)
                if r.benchmark == "sweep_trace_memo_vs_per_run"]
        assert [r.status for r in rows] == ["config-mismatch"]
        assert "dataset='ldbc-small'" in rows[0].note
        code, report = run_trend(tmp_path, REPO_BASELINES, check=True)
        assert code == 1
        assert "config-mismatch" in report and "regression" not in report
