"""Graph I/O round trips and parsing."""

import io

import numpy as np
import pytest

from repro.graph.generators import grid_graph
from repro.graph.io import load_edge_list, save_edge_list


def graphs_equal(a, b):
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and (
            (a.weights is None and b.weights is None)
            or np.allclose(a.weights, b.weights)
        )
    )


class TestEdgeList:
    def test_parse_unweighted(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n"))
        assert g.num_vertices == 3 and g.num_edges == 3
        assert not g.is_weighted

    def test_parse_weighted_autodetect(self):
        g = load_edge_list(io.StringIO("0 1 2.5\n1 0 4\n"))
        assert g.is_weighted
        assert g.weights[g.indptr[0]] == 2.5

    def test_comments_and_blanks_skipped(self):
        text = "# header\n% konect style\n\n0 1\n"
        assert load_edge_list(io.StringIO(text)).num_edges == 1

    def test_sparse_ids_compacted(self):
        g = load_edge_list(io.StringIO("100 5000\n5000 99\n"))
        assert g.num_vertices == 3

    def test_forced_unweighted_ignores_column(self):
        g = load_edge_list(io.StringIO("0 1 9.9\n"), weighted=False)
        assert not g.is_weighted

    def test_missing_weight_column(self):
        with pytest.raises(ValueError):
            load_edge_list(io.StringIO("0 1 1.0\n1 2\n"), weighted=True)

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            load_edge_list(io.StringIO("7\n"))

    def test_negative_id(self):
        with pytest.raises(ValueError):
            load_edge_list(io.StringIO("-1 2\n"))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            load_edge_list(io.StringIO("# nothing\n"))

    def test_text_roundtrip(self):
        # Grid graphs have no isolated vertices, which an edge list
        # cannot represent (ids are compacted on load).
        g = grid_graph(6, 6, weighted=True, seed=1)
        buf = io.StringIO()
        save_edge_list(buf, g)
        buf.seek(0)
        g2 = load_edge_list(buf)
        assert graphs_equal(g, g2)

    def test_file_roundtrip(self, tmp_path):
        g = grid_graph(4, 7, weighted=True, seed=2)
        path = tmp_path / "graph.txt"
        save_edge_list(path, g)
        assert graphs_equal(g, load_edge_list(path))

    def test_isolated_vertices_compact_away(self):
        # Documented limitation of the text format.
        from repro.graph.csr import CSRGraph
        import numpy as np

        g = CSRGraph.from_edges(5, np.array([0]), np.array([4]))
        buf = io.StringIO()
        save_edge_list(buf, g)
        buf.seek(0)
        g2 = load_edge_list(buf)
        assert g2.num_vertices == 2
