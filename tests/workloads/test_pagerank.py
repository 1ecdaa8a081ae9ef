"""PageRank: correctness vs networkx, per-iteration trace."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.generators import ldbc_like_graph
from repro.workloads.base import EpochCounts
from repro.workloads.pagerank import DAMPING, PageRank, pagerank_scores


def to_nx(g):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.num_vertices))
    src = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
    G.add_edges_from(zip(src.tolist(), g.indices.tolist()))
    return G


@pytest.fixture(scope="module")
def graph():
    return ldbc_like_graph(scale=8, edge_factor=6, seed=9)


class TestCorrectness:
    def test_scores_sum_to_one(self, graph):
        rank = pagerank_scores(graph, iterations=30)
        assert rank.sum() == pytest.approx(1.0, abs=1e-6)

    def test_matches_networkx(self, graph):
        ours = pagerank_scores(graph, iterations=100)
        theirs = nx.pagerank(to_nx(graph), alpha=DAMPING, max_iter=200,
                             tol=1e-12)
        for v in range(graph.num_vertices):
            assert ours[v] == pytest.approx(theirs[v], rel=1e-3, abs=1e-9)

    def test_high_degree_vertices_rank_higher(self, graph):
        rank = pagerank_scores(graph, iterations=50)
        # In-degree drives rank: the top-ranked vertex has far more
        # in-edges than the median vertex.
        in_deg = np.zeros(graph.num_vertices)
        np.add.at(in_deg, graph.indices, 1)
        assert in_deg[np.argmax(rank)] > np.median(in_deg)


class TestTrace:
    def test_one_epoch_per_iteration(self, graph):
        w = PageRank()
        w.iterations = 7
        counts = list(w.epochs(graph))
        assert len(counts) == 7

    def test_one_atomic_per_edge_per_iteration(self, graph):
        w = PageRank()
        w.iterations = 3
        counts = list(w.epochs(graph))
        assert all(c.atomics == graph.num_edges for c in counts)

    def test_all_vertices_updated(self, graph):
        w = PageRank()
        w.iterations = 1
        c = next(iter(w.epochs(graph)))
        assert c.updated_vertices == graph.num_vertices

    def test_epochs_are_constant_whole_graph_counts(self, graph):
        w = PageRank()
        w.iterations = 6
        n, m = graph.num_vertices, graph.num_edges
        assert list(w.epochs(graph)) == [
            EpochCounts(label=f"iter{i}", frontier_vertices=n,
                        scanned_vertices=n, edges_inspected=m, atomics=m,
                        updated_vertices=n)
            for i in range(6)
        ]

    def test_reference_matches_direct(self, graph):
        w = PageRank()
        w.iterations = 5
        assert np.allclose(w.reference(graph), pagerank_scores(graph, 5))
