"""CLI: argument parsing and command dispatch."""

import json

import pytest

from repro.cli import build_parser, main
from tests.gpu.test_macro_equivalence import POLICY_NAMES


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "pagerank"])
        assert args.policy == "coolpim-hw"
        assert args.dataset == "ldbc"
        assert args.cooling == "commodity"

    def test_run_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "pagerank", "--policy", "nope"])

    def test_experiments_flags(self):
        args = build_parser().parse_args(
            ["experiments", "--quick", "--only", "fig5"]
        )
        assert args.quick and args.only == "fig5"

    def test_experiments_seed_flag(self):
        args = build_parser().parse_args(["experiments", "--seed", "7"])
        assert args.seed == 7

    def test_batch_flags(self):
        args = build_parser().parse_args(
            ["batch", "--quick", "--only", "fig5", "--jobs", "2",
             "--seed", "3", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.command == "batch"
        assert args.quick and args.only == "fig5" and args.jobs == 2
        assert args.seed == 3 and args.cache_dir == "/tmp/c" and args.no_cache

    def test_cache_defaults_to_stats(self):
        args = build_parser().parse_args(["cache"])
        assert args.action == "stats"

    def test_cache_rejects_bad_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "nope"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "kcore"])
        assert args.command == "trace"
        assert args.output == "trace.json"
        assert args.policy == "coolpim-hw" and not args.quick
        assert args.jsonl is None

    def test_trace_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "kcore", "--policy", "nope"])

    def test_report_flags(self):
        args = build_parser().parse_args(
            ["report", "t.json", "--require", "engine,core", "--diff", "b.json"]
        )
        assert args.file == "t.json"
        assert args.require == "engine,core" and args.diff == "b.json"

    def test_cache_json_flag(self):
        args = build_parser().parse_args(["cache", "--json"])
        assert args.json and args.action == "stats"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8177
        assert args.workers == 2 and not args.pool and not args.no_cache
        assert args.tenant_quota == 64
        assert args.journal_max_bytes == 8_000_000
        assert args.drain_timeout == 10.0

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--pool",
             "--cache-dir", "/tmp/c", "--tenant-quota", "8",
             "--drain-timeout", "2.5"]
        )
        assert args.port == 0 and args.workers == 4 and args.pool
        assert args.cache_dir == "/tmp/c" and args.tenant_quota == 8
        assert args.drain_timeout == 2.5

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDispatch:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pagerank" in out and "coolpim-hw" in out

    def test_run_small(self, capsys):
        rc = main(["run", "kcore", "--dataset", "ldbc-tiny",
                   "--policy", "non-offloading"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak DRAM temp" in out

    def test_compare_small(self, capsys):
        rc = main(["compare", "dc", "--dataset", "ldbc-tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ideal-thermal" in out

    def test_compare_json_engines_agree(self, capsys):
        """The engine differential: ``repro compare --json`` of the stepped
        oracle and the macro engine (pagerank, ldbc-small, low-end
        cooling) agree on every field at full precision, but the peak
        temperature, which agrees within 1e-6 °C."""
        docs = {}
        for engine in ("stepped", "macro"):
            rc = main(["compare", "pagerank", "--dataset", "ldbc-small",
                       "--cooling", "low-end", "--engine", engine, "--json"])
            assert rc == 0
            docs[engine] = json.loads(capsys.readouterr().out)
        stepped, macro = docs["stepped"], docs["macro"]
        assert list(stepped) == list(macro) == POLICY_NAMES
        assert sum(r["thermal_warnings"] for r in stepped.values()) > 0
        for policy in POLICY_NAMES:
            s, m = stepped[policy], macro[policy]
            assert s["policy"] == policy
            # Unrounded: the value the run returned, not the table's 2 dp.
            assert isinstance(s["runtime_s"], float)
            assert m.pop("peak_dram_temp_c") == pytest.approx(
                s.pop("peak_dram_temp_c"), abs=1e-6
            )
            assert m == s, policy

    def test_experiments_delegates(self, capsys):
        rc = main(["experiments", "--only", "tables"])
        assert rc == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "--only", "nope"]) == 2


class TestBatchDispatch:
    def test_batch_sweeps_through_pool_and_caches(self, tmp_path, capsys):
        from repro.service.journal import JobJournal

        argv = ["batch", "--quick", "--only", "tables,fig5", "--jobs", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "PIM rate" in out
        assert "2 executed" in out
        # Second invocation is served from the result cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out and "0 failed" in out
        counts = JobJournal.summary(tmp_path / "journal.jsonl")
        assert counts["cache_hit"] == 2 and counts["completed"] == 2

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        main(["batch", "--quick", "--only", "tables", "--jobs", "1",
              "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 1" in out and "journal" in out
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "tables" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_cache_json_machine_readable(self, tmp_path, capsys):
        import json

        main(["batch", "--quick", "--only", "tables", "--jobs", "1",
              "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "--json", "--cache-dir", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 1
        assert doc["cache_dir"] == str(tmp_path)
        assert doc["journal"]["events"]["completed"] == 1

    def test_cache_json_only_valid_for_stats(self, tmp_path, capsys):
        assert main(["cache", "clear", "--json",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "--json" in capsys.readouterr().err


class TestTraceDispatch:
    def test_trace_produces_all_three_artifacts(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", "kcore", "--dataset", "ldbc-tiny", "--quick",
                   "-o", str(out)])
        assert rc == 0
        # Chrome trace with spans from every instrumented layer.
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        for layer in ("engine", "core", "thermal", "scheduler", "sim"):
            assert layer in cats, f"missing {layer} spans"
        # Metrics + manifest written next to the trace.
        metrics = json.loads((tmp_path / "trace.metrics.json").read_text())
        assert any(k.startswith("sim.") for k in metrics["stats"])
        manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert manifest["command"] == "repro trace"

    @pytest.mark.parametrize("engine", ["stepped", "macro"])
    def test_trace_runs_the_requested_engine(self, engine, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "kcore", "--dataset", "ldbc-tiny", "--quick",
                     "--engine", engine, "-o", str(out)]) == 0
        names = {e.get("name") for e in json.loads(out.read_text())["traceEvents"]}
        metrics = json.loads((tmp_path / "trace.metrics.json").read_text())
        macro = engine == "macro"
        assert ("sim.macro_burst" in names) is macro
        assert ("sim.macro_burst_steps" in metrics["stats"]) is macro
        assert metrics["meta"]["engine"] == engine

    def test_report_validates_and_requires_layers(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "kcore", "--dataset", "ldbc-tiny", "--quick",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out),
                     "--require", "engine,core,thermal,scheduler,sim"]) == 0
        assert "events" in capsys.readouterr().out
        # A layer that is never emitted fails the gate.
        assert main(["report", str(out), "--require", "nonexistent"]) == 1

    def test_report_renders_metrics_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "kcore", "--dataset", "ldbc-tiny", "--quick",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "trace.metrics.json")]) == 0
        assert "# metrics" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "trace.manifest.json")]) == 0
        assert "run manifest" in capsys.readouterr().out

    def test_report_diff_of_identical_metrics(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "kcore", "--dataset", "ldbc-tiny", "--quick",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        metrics = str(tmp_path / "trace.metrics.json")
        assert main(["report", metrics, "--diff", metrics]) == 0
        assert "no metric differences" in capsys.readouterr().out

    def test_report_unknown_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"what": "ever"}')
        assert main(["report", str(bad)]) == 1

    def test_report_diff_exit_codes(self, tmp_path, capsys):
        """--diff is scriptable like diff(1): 0 equal, 1 changed, 2 error."""
        import json

        from repro.obs.metrics import export_metrics

        a = tmp_path / "a.metrics.json"
        b = tmp_path / "b.metrics.json"
        export_metrics({"sim.x": {"type": "counter", "value": 1}}, path=a)
        export_metrics({"sim.x": {"type": "counter", "value": 2}}, path=b)
        assert main(["report", str(a), "--diff", str(a)]) == 0
        capsys.readouterr()
        assert main(["report", str(a), "--diff", str(b)]) == 1
        assert "~ sim.x.value" in capsys.readouterr().out
        # Missing / invalid second file → 2, message on stderr.
        assert main(["report", str(a), "--diff",
                     str(tmp_path / "missing.json")]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["report", str(broken), "--diff", str(a)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestBenchTrendDispatch:
    def _write(self, tmp_path, speed):
        import json

        (tmp_path / "BENCH_x.json").write_text(json.dumps({"speed": speed}))
        baselines = tmp_path / "baselines.json"
        baselines.write_text(json.dumps({
            "schema": "repro.bench-baselines/1",
            "benchmarks": {
                "bench": {
                    "source": "BENCH_x.json",
                    "metrics": {
                        "speed": {"baseline": 2.0, "min_ratio": 0.5}
                    },
                }
            },
        }))
        return str(baselines)

    def test_pass_and_report_file(self, tmp_path, capsys):
        baselines = self._write(tmp_path, 2.0)
        report = tmp_path / "trend.txt"
        rc = main(["bench-trend", "--dir", str(tmp_path),
                   "--baselines", baselines, "--check",
                   "--report", str(report)])
        assert rc == 0
        assert "all within tolerance" in capsys.readouterr().out
        assert "all within tolerance" in report.read_text()

    def test_regression_gates_with_check(self, tmp_path, capsys):
        baselines = self._write(tmp_path, 0.1)
        assert main(["bench-trend", "--dir", str(tmp_path),
                     "--baselines", baselines, "--check"]) == 1
        assert "regression" in capsys.readouterr().out
        # Informational mode: report prints but does not gate.
        assert main(["bench-trend", "--dir", str(tmp_path),
                     "--baselines", baselines]) == 0

    def test_structural_error_exits_two(self, tmp_path, capsys):
        assert main(["bench-trend", "--dir", str(tmp_path),
                     "--baselines", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestRunnerArtifacts:
    def test_out_dir_written(self, tmp_path, capsys):
        from repro.experiments import runner

        rc = runner.main(["--only", "tables,fig5", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "tables.txt").exists()
        fig5 = (tmp_path / "fig5.txt").read_text()
        assert "PIM rate" in fig5

    def test_out_dir_gets_manifest(self, tmp_path, capsys):
        from repro.experiments import runner
        from repro.obs.manifest import RunManifest

        rc = runner.main(
            ["--only", "tables", "--out", str(tmp_path), "--seed", "4"]
        )
        assert rc == 0
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert manifest.command == "repro.experiments.runner"
        assert manifest.seed == 4
        assert manifest.config["experiments"] == ["tables"]
        assert manifest.extra == {"ok": True}
        assert str(tmp_path / "tables.txt") in manifest.outputs

    def test_run_experiment_by_id(self):
        from repro.experiments import runner
        from repro.experiments.common import RunScale

        text = runner.run_experiment("fig5", RunScale.quick())
        assert "PIM rate" in text
        with pytest.raises(KeyError):
            runner.run_experiment("nope")

    def test_seed_flows_into_scale(self):
        from repro.experiments.common import RunScale, scaled_workload

        w = scaled_workload("pagerank", RunScale.quick(seed=11))
        assert w.seed == 11
