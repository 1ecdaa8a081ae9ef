"""Integration: full pipeline invariants across subsystems.

These tests wire real workloads, the cache model, the flow model, the RC
thermal network, and the CoolPIM policies together on a small graph and
check the cross-cutting behaviours the paper's contribution depends on.
"""

import pytest

from repro.core import CoolPimSystem
from repro.core.policies import make_policy
from repro.graph import get_dataset
from repro.workloads import get_workload
from repro.workloads.dc import DegreeCentrality
from tests.engines import assert_identical


@pytest.fixture(scope="module")
def graph():
    return get_dataset("ldbc-small")


@pytest.fixture(scope="module")
def hot_results(graph):
    """dc at a length long enough to trip the thermal loop (~10 ms)."""
    system = CoolPimSystem()
    w = DegreeCentrality()
    w.repeats = 900
    return system.run_all_policies(w, graph)


class TestClosedLoop:
    def test_naive_overheats_coolpim_does_not(self, hot_results):
        naive = hot_results["naive-offloading"]
        assert naive.peak_dram_temp_c > 85.0
        for name in ("coolpim-sw", "coolpim-hw"):
            cool = hot_results[name]
            assert cool.peak_dram_temp_c < naive.peak_dram_temp_c

    def test_coolpim_throttles_offloading(self, hot_results):
        naive = hot_results["naive-offloading"]
        for name in ("coolpim-sw", "coolpim-hw"):
            cool = hot_results[name]
            assert cool.offload_fraction < naive.offload_fraction
            assert cool.avg_pim_rate_ops_ns < naive.avg_pim_rate_ops_ns

    def test_naive_spends_time_in_derated_phases(self, hot_results):
        naive = hot_results["naive-offloading"]
        derated = (naive.phase_time_s["EXTENDED"]
                   + naive.phase_time_s["CRITICAL"])
        assert derated > 0.0

    def test_warnings_only_fire_above_threshold(self, hot_results):
        base = hot_results["non-offloading"]
        if base.peak_dram_temp_c < 85.0:
            assert base.thermal_warnings == 0

    def test_everyone_beats_or_matches_thermal_runaway(self, hot_results):
        base = hot_results["non-offloading"]
        for name in ("coolpim-sw", "coolpim-hw"):
            assert hot_results[name].speedup_over(base) >= 1.0

    def test_ideal_bound(self, hot_results):
        base = hot_results["non-offloading"]
        ideal = hot_results["ideal-thermal"].speedup_over(base)
        for name in ("naive-offloading", "coolpim-sw", "coolpim-hw"):
            assert hot_results[name].speedup_over(base) <= ideal + 1e-9


class TestDeterminism:
    def test_same_seed_same_results(self, graph):
        system = CoolPimSystem()
        w1 = get_workload("bfs-dwc", seed=3)
        w1.num_sources = 4
        w2 = get_workload("bfs-dwc", seed=3)
        w2.num_sources = 4
        r1 = system.run(w1, graph, "coolpim-hw")
        r2 = system.run(w2, graph, "coolpim-hw")
        assert_identical(r1, r2)


class TestCrossWorkload:
    @pytest.mark.parametrize("name", ["bfs-twc", "sssp-dwc", "kcore"])
    def test_each_workload_runs_under_each_policy(self, graph, name):
        system = CoolPimSystem()
        w = get_workload(name)
        for attr, val in (("num_sources", 2), ("repeats", 1),
                          ("iterations", 3)):
            if hasattr(w, attr):
                setattr(w, attr, val)
        res = system.run_all_policies(w, graph)
        base = res["non-offloading"]
        assert base.runtime_s > 0
        for r in res.values():
            assert r.total_atomics == base.total_atomics
