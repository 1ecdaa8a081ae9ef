"""CSR graph container: construction, validation, expansion."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph


def small_graph():
    # 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0
    return CSRGraph.from_edges(
        3, np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0])
    )


class TestConstruction:
    def test_basic_counts(self):
        g = small_graph()
        assert g.num_vertices == 3
        assert g.num_edges == 4

    def test_neighbors(self):
        g = small_graph()
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(2)) == [0]

    def test_out_degree(self):
        g = small_graph()
        assert g.out_degree(0) == 2
        assert list(g.out_degree()) == [2, 1, 1]

    def test_dedup_removes_duplicate_edges(self):
        g = CSRGraph.from_edges(2, np.array([0, 0, 0]), np.array([1, 1, 1]))
        assert g.num_edges == 1

    def test_dedup_disabled_keeps_multi_edges(self):
        g = CSRGraph.from_edges(
            2, np.array([0, 0]), np.array([1, 1]), dedup=False
        )
        assert g.num_edges == 2

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.array([0]), np.array([5]))

    def test_indptr_validation(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 0]))

    def test_arrays_are_immutable(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.indices[0] = 0

    def test_empty_graph(self):
        g = CSRGraph(np.array([0, 0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_weights_shape_checked(self):
        with pytest.raises(ValueError):
            CSRGraph(
                np.array([0, 1]), np.array([0]), weights=np.array([1.0, 2.0])
            )


class TestWeights:
    def test_weights_follow_edge_sort(self):
        g = CSRGraph.from_edges(
            2,
            np.array([1, 0]),
            np.array([0, 1]),
            weights=np.array([9.0, 3.0]),
        )
        assert g.weights.tolist() == [3.0, 9.0]

class TestTransforms:
    def test_reversed_flips_edges(self):
        g = small_graph()
        r = g.reversed()
        assert list(r.neighbors(2)) == [0, 1]
        assert r.num_edges == g.num_edges

    def test_to_undirected_symmetrizes(self):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        u = g.to_undirected()
        assert list(u.neighbors(0)) == [1]
        assert list(u.neighbors(1)) == [0]

    def test_degree_stats(self):
        mean, peak = small_graph().degree_stats()
        assert mean == pytest.approx(4 / 3)
        assert peak == 2


class TestExpand:
    def test_expand_matches_neighbors(self):
        g = small_graph()
        src, dst, w = g.expand(np.array([0, 2]))
        assert list(src) == [0, 0, 2]
        assert list(dst) == [1, 2, 0]
        assert w is None

    def test_expand_with_weights(self):
        g = CSRGraph.from_edges(
            2, np.array([0, 0]), np.array([0, 1]),
            weights=np.array([1.5, 2.5]), dedup=False,
        )
        src, dst, w = g.expand(np.array([0]), with_weights=True)
        assert list(w) == [1.5, 2.5]

    def test_expand_empty_frontier(self):
        src, dst, w = small_graph().expand(np.array([], dtype=np.int64))
        assert src.size == 0 and dst.size == 0

    def test_expand_isolated_vertex(self):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        src, dst, _ = g.expand(np.array([2]))
        assert dst.size == 0

    def test_expand_weights_on_unweighted_raises(self):
        with pytest.raises(ValueError):
            small_graph().expand(np.array([0]), with_weights=True)

    def test_expand_equals_per_vertex_concat(self):
        rng = np.random.default_rng(0)
        from repro.graph.generators import rmat_graph

        g = rmat_graph(6, 4, seed=3)
        frontier = rng.choice(g.num_vertices, size=10, replace=False)
        src, dst, _ = g.expand(frontier)
        expected = np.concatenate([g.neighbors(int(v)) for v in frontier])
        assert np.array_equal(dst, expected)
