"""Experiment utilities: table formatting, run scaling, first warnings."""

import pytest

from repro.experiments.common import (
    RunScale,
    format_table,
    run_with_first_warning,
    scaled_workload,
)

from tests.engines import build_sim, hot_launch, run_traced


class TestFormatTable:
    def test_aligns_columns(self):
        out = format_table(["a", "bb"], [["x", 1.5], ["yyyy", 22.0]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "----" in lines[1]
        assert len(lines) == 4

    def test_title_prepended(self):
        out = format_table(["h"], [["v"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456]])
        assert "1.23" in out

    def test_large_numbers_not_scientific(self):
        out = format_table(["x"], [[12345.6]])
        assert "12346" in out

    def test_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out


class TestRunScale:
    def test_full_uses_evaluation_graph(self):
        scale = RunScale.full()
        assert scale.dataset == "ldbc"
        assert scale.workload_scale == 1.0

    def test_quick_shrinks(self):
        scale = RunScale.quick()
        assert scale.dataset == "ldbc-small"
        assert scale.workload_scale < 1.0

    def test_hashable_for_cache_keys(self):
        assert hash(RunScale.full()) == hash(RunScale.full())


class TestScaledWorkload:
    def test_full_scale_keeps_defaults(self):
        w = scaled_workload("bfs-dwc", RunScale.full())
        from repro.workloads.bfs import BfsDwc

        assert w.num_sources == BfsDwc.num_sources

    def test_quick_scale_shrinks_sources(self):
        w = scaled_workload("bfs-dwc", RunScale.quick())
        from repro.workloads.bfs import BfsDwc

        assert w.num_sources < BfsDwc.num_sources
        assert w.num_sources >= 1

    def test_scales_iterations_and_repeats(self):
        pr = scaled_workload("pagerank", RunScale.quick())
        dc = scaled_workload("dc", RunScale.quick())
        from repro.workloads.dc import DegreeCentrality
        from repro.workloads.pagerank import PageRank

        assert pr.iterations < PageRank.iterations
        assert dc.repeats < DegreeCentrality.repeats

    def test_seed_forwarded(self):
        assert scaled_workload("dc", RunScale.quick(), seed=9).seed == 9


class _LaunchSystem:
    """``CoolPimSystem.run``'s signature over a prepared launch."""

    def __init__(self, engine):
        self.engine = engine

    def run(self, launch, _graph, policy):
        return build_sim(self.engine).run(launch, policy)


class TestRunWithFirstWarning:
    @pytest.mark.parametrize(
        "policy", ["naive-offloading", "coolpim-sw", "coolpim-hw"]
    )
    def test_first_warning_is_the_sensors_on_both_engines(self, policy):
        # Twenty hot epochs under the commodity sink first warn mid-run.
        stepped, macro = (
            run_with_first_warning(
                _LaunchSystem(engine), hot_launch(n_epochs=20), None, policy
            )[1]
            for engine in ("stepped", "macro")
        )
        _run, records = run_traced("stepped", hot_launch(n_epochs=20), policy)
        instants = [r["sim_ns"] * 1e-9 for r in records
                    if r["name"] == "sim.thermal_warning"]
        assert 0.0 < instants[0]
        assert stepped == macro == pytest.approx(instants[0], rel=1e-12)
