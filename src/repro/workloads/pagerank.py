"""PageRank (GraphBIG ``pagerank``).

Push-style power iteration: every edge contributes ``rank[src]/deg[src]``
to its target through a floating-point atomicAdd — the GraphPIM FP_ADD
extension when offloaded. High, steady PIM intensity across the whole run
(one atomic per edge per iteration).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads.base import EpochCounts, GraphWorkload, TrafficCoefficients

DAMPING = 0.85


def pagerank_scores(
    graph: CSRGraph, iterations: int = 20, damping: float = DAMPING
) -> np.ndarray:
    """Reference push-style PageRank (fixed iteration count)."""
    n = graph.num_vertices
    rank = np.full(n, 1.0 / n)
    deg = np.asarray(graph.out_degree(), dtype=np.float64)
    src_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    for _ in range(iterations):
        contrib = np.zeros(n)
        share = np.divide(rank, deg, out=np.zeros_like(rank), where=deg > 0)
        np.add.at(contrib, graph.indices, share[src_all])
        dangling = rank[deg == 0].sum()
        rank = (1.0 - damping) / n + damping * (contrib + dangling / n)
    return rank


class PageRank(GraphWorkload):
    name = "pagerank"
    iterations: int = 80
    coeffs = TrafficCoefficients(
        lines_per_edge=1.672,
        write_lines_per_edge=1.172,
        instrs_per_edge=11.0,
        divergence=0.10,
        read_hit_rate=0.50,
        writes_per_update=1.0 / 16.0,
        atomic_coalescing=0.477,
    )

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        # Every iteration touches the whole graph, so the counts do not
        # depend on the rank values; only :meth:`reference` computes them.
        n = graph.num_vertices
        m = graph.num_edges
        for it in range(self.iterations):
            # Scatter phase: one FP atomicAdd per edge; then the apply
            # phase writes every vertex's new rank.
            yield EpochCounts(
                label=f"iter{it}",
                frontier_vertices=n,
                scanned_vertices=n,
                edges_inspected=m,
                atomics=m,
                updated_vertices=n,
            )

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return pagerank_scores(graph, self.iterations)
