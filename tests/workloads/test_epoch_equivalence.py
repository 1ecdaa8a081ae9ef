"""Fast epoch generators equal their per-source oracles exactly.

BFS runs 64 sources per bit-parallel pass and SSSP reads its frontier off
a mark array; both must yield the same :class:`EpochCounts`, labels
included, as the one-source-at-a-time generators kept as references
(:func:`bfs_epochs_reference`, :func:`sssp_epochs_reference`,
:func:`sssp_sweep_epochs_reference`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import get_dataset
from repro.graph.csr import CSRGraph
from repro.workloads import get_workload, list_workloads
from repro.workloads.bfs import WORD_BITS, bfs_epochs, bfs_epochs_reference
from repro.workloads.sssp import (
    sssp_epochs,
    sssp_epochs_reference,
    sssp_sweep_epochs,
    sssp_sweep_epochs_reference,
)

#: Source counts on both sides of the 64-bit word boundary.
SOURCE_COUNTS = [1, WORD_BITS - 1, WORD_BITS, WORD_BITS + 1, 2 * WORD_BITS + 2]

DATASETS = ["ldbc-tiny", "ldbc-small", "road-small", "grid-8x8", "uniform-tiny"]

#: (fast, oracle, topological) for each engine; ``None`` for the SSSP
#: engines, which take no topological flag.
ENGINES = {
    "bfs-topological": (bfs_epochs, bfs_epochs_reference, True),
    "bfs-data-driven": (bfs_epochs, bfs_epochs_reference, False),
    "sssp-frontier": (sssp_epochs, sssp_epochs_reference, None),
    "sssp-sweep": (sssp_sweep_epochs, sssp_sweep_epochs_reference, None),
}


def hand_built() -> CSRGraph:
    """A small weighted DAG: 0 reaches 3 in two hops and, more cheaply,
    in three; 5, 6, 8 and 9 are unreachable from 0; 7 has no out-edges
    and 9 no edges at all."""
    edges = [
        (0, 1, 1.0), (0, 2, 4.0), (1, 2, 1.0), (1, 4, 0.5), (2, 3, 1.0),
        (1, 3, 5.0), (3, 4, 1.0), (4, 7, 2.0), (5, 6, 1.0), (8, 7, 3.0),
    ]
    src, dst, w = (np.array(col) for col in zip(*edges))
    return CSRGraph.from_edges(10, src, dst, w)


def edgeless() -> CSRGraph:
    """No edges: ``pick_sources`` falls back to vertex 0, which has no
    out-edges."""
    return CSRGraph(np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64),
                    np.empty(0))


def _graph(name: str) -> CSRGraph:
    if name == "hand-built":
        return hand_built()
    if name == "edgeless":
        return edgeless()
    return get_dataset(name)


def _run(engine, graph, sources):
    fast, oracle, topological = ENGINES[engine]
    args = (graph, sources) if topological is None else (
        graph, sources, topological)
    return list(fast(*args)), list(oracle(*args))


class TestEnginesOnHandBuiltGraph:
    """Explicit sources, including ones the workloads never pick."""

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("count", SOURCE_COUNTS)
    def test_source_counts_across_word_boundary(self, engine, count):
        g = hand_built()
        # Cycles through every vertex (sinks and isolated ones included),
        # so groups past the first word repeat sources.
        sources = np.arange(count) % g.num_vertices
        fast, ref = _run(engine, g, sources)
        assert fast == ref
        assert ref[-1].label.startswith(f"q{count - 1}-")

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_source_without_out_edges(self, engine):
        fast, ref = _run(engine, hand_built(), np.array([7, 9, 0]))
        assert fast == ref
        assert ref[0].atomics == 0 and ref[0].updated_vertices == 0

    def test_unreachable_vertices_stay_unvisited(self):
        fast, _ = _run("bfs-data-driven", hand_built(), np.array([0]))
        # Levels {0}, {1, 2}, {3, 4}, {7}: 5, 6, 8 and 9 are never reached.
        assert [e.frontier_vertices for e in fast] == [1, 2, 2, 1]
        assert sum(e.updated_vertices for e in fast) == 5


class TestWorkloads:
    """``list(w.epochs(g)) == list(w.reference_epochs(g))`` for every
    Fig. 10 workload."""

    @pytest.mark.parametrize("name", list_workloads())
    @pytest.mark.parametrize("dataset", ["hand-built", "edgeless"] + DATASETS)
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**16), count=st.sampled_from(SOURCE_COUNTS))
    def test_epochs_equal_reference(self, name, dataset, seed, count):
        g = _graph(dataset)
        w = get_workload(name, seed=seed)
        if hasattr(w, "num_sources"):
            w.num_sources = count
        assert list(w.epochs(g)) == list(w.reference_epochs(g))

    @pytest.mark.parametrize("name", list_workloads())
    def test_default_run_length_on_ldbc_small(self, name):
        g = get_dataset("ldbc-small")
        w = get_workload(name)
        assert list(w.epochs(g)) == list(w.reference_epochs(g))
