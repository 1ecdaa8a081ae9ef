"""CoolPimSystem facade on tiny graphs."""

import pytest

from repro.core import CoolPimSystem
from repro.experiments.common import apply_workload_scale
from repro.graph import get_dataset
from repro.graph.csr import CSRGraph
from repro.workloads import get_workload
from repro.workloads.base import clear_cache, launch_for, trace_key


@pytest.fixture(scope="module")
def system():
    return CoolPimSystem()


@pytest.fixture(scope="module")
def graph():
    return get_dataset("ldbc-tiny")


class TestRun:
    def test_run_by_policy_name(self, system, graph):
        res = system.run(get_workload("pagerank"), graph, "non-offloading")
        assert res.policy == "non-offloading"
        assert res.workload == "pagerank"
        assert res.runtime_s > 0

    def test_run_with_policy_instance(self, system, graph):
        from repro.core.policies import NaiveOffloading

        res = system.run(get_workload("dc"), graph, NaiveOffloading())
        assert res.policy == "naive-offloading"

    def test_launch_cache_reuses_trace(self, system, graph):
        w = get_workload("dc")
        r1 = system.run(w, graph, "non-offloading")
        r2 = system.run(w, graph, "non-offloading")
        assert r1 == r2
        first, second = launch_for(w, graph), launch_for(w, graph)
        assert first.trace is not second.trace
        assert all(a is b for a, b in zip(first.trace, second.trace))

    def test_run_all_policies_keys(self, system, graph):
        res = system.run_all_policies(get_workload("kcore"), graph)
        assert set(res) == {
            "non-offloading", "naive-offloading", "coolpim-sw",
            "coolpim-hw", "ideal-thermal",
        }

    def test_policy_subset(self, system, graph):
        res = system.run_all_policies(
            get_workload("kcore"), graph,
            policies=["non-offloading", "ideal-thermal"],
        )
        assert list(res) == ["non-offloading", "ideal-thermal"]

    def test_offloading_ordering_invariant(self, system, graph):
        """Ideal >= CoolPIM >= non-offloading on a cool (tiny) run."""
        res = system.run_all_policies(get_workload("pagerank"), graph)
        base = res["non-offloading"]
        su_ideal = res["ideal-thermal"].speedup_over(base)
        su_hw = res["coolpim-hw"].speedup_over(base)
        assert su_ideal >= su_hw >= 0.99


def _bfs_ta(scale):
    return apply_workload_scale(get_workload("bfs-ta"), scale)


class TestTraceMemo:
    """Traces are keyed on content, never on a stale per-system entry."""

    @pytest.mark.parametrize("order", [(0.25, 1.0), (1.0, 0.25)])
    def test_scale_change_on_long_lived_system(self, graph, order):
        fresh = {}
        for scale in order:
            clear_cache()
            fresh[scale] = CoolPimSystem().run(_bfs_ta(scale), graph, "coolpim-hw")
        assert fresh[0.25].runtime_s < fresh[1.0].runtime_s
        clear_cache()
        system = CoolPimSystem()
        for scale in order:
            assert system.run(_bfs_ta(scale), graph, "coolpim-hw") == fresh[scale]

    def test_equal_content_graphs_share_a_key(self, graph):
        twin = CSRGraph(graph.indptr.copy(), graph.indices.copy(),
                        None if graph.weights is None else graph.weights.copy())
        assert twin is not graph
        w = get_workload("kcore")
        assert trace_key(w, twin) == trace_key(w, graph)

    def test_different_graphs_do_not_share_a_key(self, graph):
        w = get_workload("kcore")
        other = get_dataset("ldbc-small")
        assert trace_key(w, other) != trace_key(w, graph)
        indices = graph.indices.copy()
        indices[0] = (indices[0] + 1) % graph.num_vertices
        one_edge_moved = CSRGraph(graph.indptr, indices, graph.weights)
        assert trace_key(w, one_edge_moved) != trace_key(w, graph)
