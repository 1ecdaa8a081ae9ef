"""Degree centrality and k-core: correctness and trace structure."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.datasets import get_dataset
from repro.graph.generators import ldbc_like_graph, star_graph
from repro.workloads.base import EpochCounts
from repro.workloads.dc import DegreeCentrality, degree_centrality
from repro.workloads.kcore import KCore, kcore_mask


@pytest.fixture(scope="module")
def graph():
    return ldbc_like_graph(scale=8, edge_factor=6, seed=11)


class TestDegreeCentrality:
    def test_matches_manual_count(self, graph):
        dc = degree_centrality(graph)
        src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        manual = np.bincount(src, minlength=graph.num_vertices) + np.bincount(
            graph.indices, minlength=graph.num_vertices
        )
        assert np.array_equal(dc, manual)

    def test_star_graph(self):
        g = star_graph(5)
        dc = degree_centrality(g)
        assert dc[0] == 10  # hub: 5 out + 5 in
        assert dc[1] == 2

    def test_chunked_epochs_cover_all_edges(self, graph):
        w = DegreeCentrality()
        w.repeats = 2
        counts = list(w.epochs(graph))
        total_edges = sum(c.edges_inspected for c in counts)
        assert total_edges == 2 * graph.num_edges

    def test_one_atomic_per_edge(self, graph):
        w = DegreeCentrality()
        w.repeats = 1
        for c in w.epochs(graph):
            assert c.atomics == c.edges_inspected

    def test_chunk_bound(self, graph):
        w = DegreeCentrality()
        w.repeats = 1
        for c in w.epochs(graph):
            assert c.edges_inspected <= w.chunk_edges


class TestKCore:
    def test_matches_networkx_core_number(self, graph):
        k = 8
        mask = kcore_mask(graph.to_undirected(), k)
        G = nx.Graph()
        G.add_nodes_from(range(graph.num_vertices))
        src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        G.add_edges_from(zip(src.tolist(), graph.indices.tolist()))
        core = nx.core_number(G)
        for v in range(graph.num_vertices):
            assert mask[v] == (core[v] >= k), f"vertex {v}"

    def test_k_zero_keeps_everything(self, graph):
        assert kcore_mask(graph, 0).all()

    def test_huge_k_removes_everything(self, graph):
        assert not kcore_mask(graph, 10_000).any()

    def test_rounds_shrink_monotonically_overall(self, graph):
        w = KCore()
        w.repeats = 1
        w.k_values = (16,)
        counts = list(w.epochs(graph))
        assert len(counts) >= 1
        # Total removed across rounds cannot exceed the vertex count.
        assert sum(c.updated_vertices for c in counts) <= graph.num_vertices

    def test_atomics_bound_by_edges(self, graph):
        w = KCore()
        w.repeats = 1
        for c in w.epochs(graph):
            assert c.atomics <= c.edges_inspected

    def test_every_round_scans_all_vertices(self, graph):
        w = KCore()
        w.repeats = 1
        w.k_values = (8,)
        for c in w.epochs(graph):
            assert c.scanned_vertices == graph.num_vertices


def per_repeat_peel_epochs(w, graph):
    """KCore epochs with the whole k-sweep peeled again on every repeat."""
    n = graph.num_vertices
    for rep in range(w.repeats):
        for k in w.k_values:
            deg = np.asarray(graph.out_degree(), dtype=np.int64).copy()
            alive = np.ones(n, dtype=bool)
            rnd = 0
            while True:
                doomed = np.flatnonzero(alive & (deg < k))
                if doomed.size == 0:
                    break
                alive[doomed] = False
                _, targets, _ = graph.expand(doomed)
                live_targets = targets[alive[targets]]
                np.subtract.at(deg, live_targets, 1)
                yield EpochCounts(
                    label=f"rep{rep}-k{k}-round{rnd}",
                    frontier_vertices=int(doomed.size),
                    scanned_vertices=n,
                    edges_inspected=int(targets.size),
                    atomics=int(live_targets.size),
                    updated_vertices=int(doomed.size),
                )
                rnd += 1


class TestKCorePeelReplay:
    """Peeling each k once and replaying it per repeat must yield exactly
    the epochs of a per-repeat peel, labels included."""

    # ldbc-tiny has isolated vertices (41 of 256).
    @pytest.mark.parametrize("dataset", ["ldbc-tiny", "uniform-tiny", "grid-8x8"])
    @pytest.mark.parametrize("repeats", [1, 3, KCore.repeats])
    def test_matches_per_repeat_peel(self, dataset, repeats):
        graph = get_dataset(dataset)
        w = KCore()
        w.repeats = repeats
        fast = list(w.epochs(graph))
        assert fast == list(per_repeat_peel_epochs(w, graph))
        assert len(fast) > repeats

