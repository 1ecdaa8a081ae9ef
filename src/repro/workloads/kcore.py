"""k-core decomposition (GraphBIG ``kcore``).

Iterative peeling: every round scans all vertices, removes those whose
residual degree fell below ``k``, and atomically decrements the degrees of
their neighbours. Most of the traffic is the repeated full-vertex scans;
atomics only fire on the (shrinking) removal frontier — so PIM intensity
is low and naïve offloading never trips the thermal limit (Sec. V-B: one
of the two benchmarks where naïve and CoolPIM coincide).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads.base import EpochCounts, GraphWorkload, TrafficCoefficients


def _peel(graph: CSRGraph, k: int) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Peel ``graph`` down to its k-core.

    Returns the k-core's boolean vertex mask and, per peeling round,
    ``(removed vertices, edges inspected, live-neighbour decrements)``.
    """
    deg = np.asarray(graph.out_degree(), dtype=np.int64).copy()
    alive = np.ones(graph.num_vertices, dtype=bool)
    rounds: List[Tuple[int, int, int]] = []
    while True:
        doomed = np.flatnonzero(alive & (deg < k))
        if doomed.size == 0:
            return alive, rounds
        alive[doomed] = False
        _, targets, _ = graph.expand(doomed)
        live_targets = targets[alive[targets]]
        np.subtract.at(deg, live_targets, 1)
        rounds.append((int(doomed.size), int(targets.size), int(live_targets.size)))


def kcore_mask(graph: CSRGraph, k: int) -> np.ndarray:
    """Reference: boolean mask of vertices in the k-core."""
    return _peel(graph, k)[0]


class KCore(GraphWorkload):
    """Sweeps a range of k values (a full coreness profile), peeling the
    graph from scratch for each — GraphBIG's kCore driven as a query
    stream, like the other benchmarks."""

    name = "kcore"
    k: int = 16
    k_values: tuple = (4, 8, 12, 16, 20, 24, 28, 32)
    repeats: int = 10
    coeffs = TrafficCoefficients(
        lines_per_edge=3.0,
        lines_per_scan_vertex=1.0 / 8.0,
        instrs_per_edge=14.0,
        divergence=0.35,
        read_hit_rate=0.35,
        atomic_coalescing=0.48,
        return_fraction=0.5,   # decrements feed the < k check
    )

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        # The peel is deterministic, so every repeat of the k-sweep
        # replays the same rounds; peel each k once.
        n = graph.num_vertices
        peels = [(k, _peel(graph, k)[1]) for k in self.k_values]
        for rep in range(self.repeats):
            for k, rounds in peels:
                for rnd, (removed, edges, atomics) in enumerate(rounds):
                    yield EpochCounts(
                        label=f"rep{rep}-k{k}-round{rnd}",
                        frontier_vertices=removed,
                        scanned_vertices=n,
                        edges_inspected=edges,
                        atomics=atomics,
                        updated_vertices=removed,
                    )

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return kcore_mask(graph, self.k)
