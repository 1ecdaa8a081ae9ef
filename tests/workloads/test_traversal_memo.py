"""Family traversals in the trace memo: one algorithm run per kernel
family, keyed on the graph and the exact source list, and launches equal
to the memo-free :meth:`GraphWorkload.launch` in any request order."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph import get_dataset
from repro.graph.csr import CSRGraph
from repro.obs.tracer import tracing
from repro.telemetry import TelemetryRegistry, set_registry
from repro.workloads import BENCHMARKS, get_workload, list_workloads
from repro.workloads import base
from repro.workloads.base import clear_cache, launch_for

_BASE = get_dataset("ldbc-tiny")

#: Fig. 10 kernels that share a traversal, by family.
FAMILIES = {
    "bfs": ["bfs-ta", "bfs-dwc", "bfs-ttc", "bfs-twc"],
    "sssp-data-driven": ["sssp-dtc", "sssp-dwc"],
}
_FAMILY_MEMBERS = [name for names in FAMILIES.values() for name in names]

ORDERS = {
    "forward": list_workloads(),
    "reversed": list_workloads()[::-1],
    "shuffled": random.Random(20).sample(list_workloads(), len(BENCHMARKS)),
}


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_cache()
    yield
    clear_cache()


def _batches(launch):
    return list(launch.trace)


class TestLaunchesEqualTheMemoFreeLaunch:
    @pytest.fixture(scope="class")
    def direct(self):
        graph = get_dataset("ldbc-small")
        return {name: _batches(get_workload(name).launch(graph))
                for name in list_workloads()}

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_every_fig10_workload_in_any_order(self, direct, order):
        clear_cache()
        graph = get_dataset("ldbc-small")
        for name in ORDERS[order]:
            got = _batches(launch_for(get_workload(name), graph))
            assert got == direct[name], (order, name)

    def test_families_match_their_docstring_grouping(self):
        families = {}
        for name in list_workloads():
            family = get_workload(name).family
            if family is not None:
                families.setdefault(family, []).append(name)
        assert families == FAMILIES


class TestOneTraversalPerFamily:
    def test_ten_workloads_run_six_traversals(self):
        graph = get_dataset("ldbc-tiny")
        registry = TelemetryRegistry()
        previous = set_registry(registry)
        try:
            with tracing() as tr:
                for name in list_workloads():
                    launch_for(get_workload(name), graph)
        finally:
            set_registry(previous)
        spans = {r["args"]["workload"]: r["args"]["traversal"]
                 for r in tr.records if r["name"] == "workloads.trace"}
        assert spans == {
            "dc": "none", "bfs-ta": "miss", "bfs-dwc": "hit",
            "bfs-ttc": "hit", "bfs-twc": "hit", "kcore": "none",
            "pagerank": "none", "sssp-dtc": "miss", "sssp-dwc": "hit",
            "sssp-twc": "none",
        }
        counts = registry.counter(
            "repro_traversal_memo_total", labelnames=("outcome",)
        )
        assert counts.labels(outcome="miss").value == 2
        assert counts.labels(outcome="hit").value == 4

    def test_trace_hit_consults_no_traversal(self):
        graph = get_dataset("ldbc-tiny")
        with tracing() as tr:
            launch_for(get_workload("bfs-ta"), graph)
            launch_for(get_workload("bfs-ta"), graph)
        spans = [r["args"] for r in tr.records if r["name"] == "workloads.trace"]
        assert [(s["memo"], s["traversal"]) for s in spans] == [
            ("miss", "miss"), ("hit", "none"),
        ]

    def test_clear_cache_empties_traversal_entries(self):
        graph = get_dataset("ldbc-tiny")
        launch_for(get_workload("sssp-dwc"), graph)
        key = get_workload("sssp-dtc").traversal_key(graph)
        assert key in base._MEMO
        clear_cache()
        assert key not in base._MEMO
        with tracing() as tr:
            launch_for(get_workload("sssp-dtc"), graph)
        (span,) = [r for r in tr.records if r["name"] == "workloads.trace"]
        assert span["args"]["traversal"] == "miss"

    def test_traversal_entries_share_the_trace_lru(self):
        graph = get_dataset("ldbc-tiny")
        launch_for(get_workload("bfs-ta"), graph)
        key = get_workload("bfs-ta").traversal_key(graph)
        for seed in range(base.TRACE_MEMO_ENTRIES):
            launch_for(get_workload("dc", seed=seed), graph)
        assert key not in base._MEMO
        assert len(base._MEMO) == base.TRACE_MEMO_ENTRIES


def _graph(indices=None, weights=None) -> CSRGraph:
    """A new graph object with ``ldbc-tiny``'s content, optionally
    with its edge targets or weights replaced."""
    return CSRGraph(
        _BASE.indptr.copy(),
        _BASE.indices.copy() if indices is None else indices,
        _BASE.weights.copy() if weights is None else weights,
    )


def _tkey(kernel, graph=None, seed=0, **attrs):
    workload = get_workload(kernel, seed=seed)
    for attr, value in attrs.items():
        setattr(workload, attr, value)
    return workload.traversal_key(graph if graph is not None else _graph())


class TestTraversalKeyProperties:
    """The key changes with every input of the traversal and with
    nothing a variant sets on top of it."""

    @given(st.sampled_from(_FAMILY_MEMBERS), st.integers(0, 2**31 - 1),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_seed(self, name, a, b):
        assume(a != b)
        assert _tkey(name, seed=a) != _tkey(name, seed=b)

    @given(st.sampled_from(_FAMILY_MEMBERS), st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_num_sources(self, name, count):
        assume(count != get_workload(name).num_sources)
        assert _tkey(name, num_sources=count) != _tkey(name)

    @given(st.sampled_from(_FAMILY_MEMBERS),
           st.integers(0, _BASE.num_edges - 1), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_graph_edges(self, name, edge, shift):
        indices = _BASE.indices.copy()
        indices[edge] = (indices[edge] + shift) % _BASE.num_vertices
        assert _tkey(name, graph=_graph(indices=indices)) != _tkey(name)

    @given(st.sampled_from(_FAMILY_MEMBERS),
           st.integers(0, _BASE.num_edges - 1))
    @settings(max_examples=10, deadline=None)
    def test_graph_weights(self, name, edge):
        weights = _BASE.weights.copy()
        weights[edge] += 1.0
        assert _tkey(name, graph=_graph(weights=weights)) != _tkey(name)

    @given(st.sampled_from(sorted(FAMILIES)), st.data())
    @settings(max_examples=25, deadline=None)
    def test_variants_of_a_family_share_a_key(self, family, data):
        a = data.draw(st.sampled_from(FAMILIES[family]))
        b = data.draw(st.sampled_from(FAMILIES[family]))
        seed = data.draw(st.integers(0, 2**31 - 1))
        assert _tkey(a, seed=seed) == _tkey(b, seed=seed)

    @given(st.sampled_from(_FAMILY_MEMBERS), st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_coefficients_do_not_enter(self, name, divergence):
        coeffs = replace(get_workload(name).coeffs, divergence=divergence)
        assert _tkey(name, coeffs=coeffs) == _tkey(name)

    @given(st.sampled_from(_FAMILY_MEMBERS),
           st.sampled_from(list_workloads(include_extras=True)))
    @settings(max_examples=25, deadline=None)
    def test_name_does_not_enter(self, name, other):
        assert _tkey(name, name=other) == _tkey(name)

    @given(st.sampled_from(FAMILIES["bfs"]), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_topological_does_not_enter(self, name, topological):
        assert _tkey(name, topological=topological) == _tkey(name)

    def test_kernels_outside_a_family_have_no_key(self):
        for name in list_workloads(include_extras=True):
            if name not in _FAMILY_MEMBERS:
                assert _tkey(name) is None, name

    def test_bfs_traversal_arrays_are_read_only(self):
        for frontier, edges in get_workload("bfs-ta").traverse(_graph()):
            assert not frontier.flags.writeable
            assert not edges.flags.writeable
            assert frontier.dtype == edges.dtype == np.int64
