"""Breadth-first search variants (GraphBIG GPU kernels).

All variants compute the same depths; they differ in how work maps to GPU
threads, which changes traffic and divergence:

- ``bfs-ta`` — topology-driven, atomic per inspected edge: every level
  scans all vertices and issues a depth-CAS for every edge of active ones.
- ``bfs-ttc`` — topology-driven thread-centric: one thread per vertex,
  scattered adjacency reads, high divergence.
- ``bfs-twc`` — topology-driven warp-centric: a warp cooperates per
  vertex, coalescing adjacency reads and erasing divergence.
- ``bfs-dwc`` — data-driven (frontier queue) warp-centric: only frontier
  vertices are touched.

Every variant issues one depth-CAS atomic per inspected edge.

Each workload runs ``num_sources`` traversals back to back (the evaluation
drives BFS as a query stream — single-source runs on the LDBC graph are
too short to exercise thermal behaviour, Sec. V).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads.base import EpochCounts, GraphWorkload, TrafficCoefficients


def bfs_depths(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference level-synchronous BFS; -1 marks unreachable vertices."""
    depth = np.full(graph.num_vertices, -1, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        _, targets, _ = graph.expand(frontier)
        unvisited = np.unique(targets[depth[targets] == -1])
        depth[unvisited] = level + 1
        frontier = unvisited
        level += 1
    return depth


def pick_sources(graph: CSRGraph, count: int, seed: int) -> np.ndarray:
    """Deterministic query sources, biased to well-connected vertices."""
    deg = np.asarray(graph.out_degree())
    candidates = np.flatnonzero(deg > 0)
    if candidates.size == 0:
        return np.zeros(min(count, 1), dtype=np.int64)
    rng = np.random.default_rng(seed)
    return rng.choice(candidates, size=min(count, candidates.size), replace=False)


#: Sources one bit-parallel pass carries: bit ``i`` of a vertex's
#: ``uint64`` word says whether the pass's ``i``-th source has reached it.
WORD_BITS = 64


def bfs_epochs(
    graph: CSRGraph, sources: Sequence[int], topological: bool
) -> Iterator[EpochCounts]:
    """Per-source, per-level epoch counts of ``sources``' traversals.

    Equal to :func:`bfs_epochs_reference` but computed for
    :data:`WORD_BITS` sources at a time (multi-source BFS, one bit per
    source): each level costs a few whole-array passes over the union of
    the group's frontiers instead of one round per source. Epochs come out
    in the reference's order — every level of source 0, then source 1, …
    """
    scanned = graph.num_vertices if topological else 0
    for first in range(0, len(sources), WORD_BITS):
        group = sources[first:first + WORD_BITS]
        frontier, edges = _bfs_group_levels(graph, group)
        updated = np.vstack([frontier[1:], np.zeros_like(frontier[:1])])
        depth = np.count_nonzero(frontier, axis=0)
        for i in range(len(group)):
            for level in range(depth[i]):
                yield EpochCounts(
                    label=f"q{first + i}-level{level}",
                    frontier_vertices=int(frontier[level, i]),
                    scanned_vertices=scanned,
                    edges_inspected=int(edges[level, i]),
                    atomics=int(edges[level, i]),
                    updated_vertices=int(updated[level, i]),
                )


def _bfs_group_levels(
    graph: CSRGraph, sources: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(frontier, edges)``, each ``int64[levels, len(sources)]``: the
    frontier size and the out-edges it inspects, per level and source.

    A source's level sets do not depend on the order its vertices are
    visited in, so pushing all sources' frontiers together reaches the
    same sets as one traversal each.
    """
    n, width = graph.num_vertices, len(sources)
    bits = np.left_shift(np.uint64(1), np.arange(width, dtype=np.uint64))
    words = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(words, np.asarray(sources, dtype=np.int64), bits)
    seen = words.copy()
    active = np.flatnonzero(words)
    frontier, edges = [], []
    while active.size:
        front = words[active]
        counts, positions = graph.out_edges(active)
        # Bit columns of the active words, one row per active vertex;
        # [1, deg] @ columns counts each source's frontier and its edges
        # in one float64 product, exact while the sums stay below 2**53.
        columns = np.unpackbits(
            front.astype("<u8").view(np.uint8).reshape(-1, 8),
            axis=1, count=width, bitorder="little",
        )
        per_source = np.vstack([np.ones(active.size), counts]) @ columns
        frontier.append(per_source[0])
        edges.append(per_source[1])
        targets = graph.indices[positions]
        pushed = np.repeat(front, counts) & ~seen[targets]
        live = np.flatnonzero(pushed)
        words = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(words, targets[live], pushed[live])
        seen |= words
        active = np.flatnonzero(words)
    return (np.array(frontier, dtype=np.int64).reshape(-1, width),
            np.array(edges, dtype=np.int64).reshape(-1, width))


def bfs_epochs_reference(
    graph: CSRGraph, sources: Sequence[int], topological: bool
) -> Iterator[EpochCounts]:
    """One traversal per source — the readable specification.

    Retained for the equivalence tests and the trace-generation
    benchmark; :class:`_BfsBase` uses the bit-parallel :func:`bfs_epochs`.
    """
    scanned = graph.num_vertices if topological else 0
    for query, source in enumerate(sources):
        depth = np.full(graph.num_vertices, -1, dtype=np.int64)
        depth[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            _, targets, _ = graph.expand(frontier)
            edges = int(targets.size)
            next_frontier = np.unique(targets[depth[targets] == -1])
            depth[next_frontier] = level + 1
            yield EpochCounts(
                label=f"q{query}-level{level}",
                frontier_vertices=int(frontier.size),
                scanned_vertices=scanned,
                edges_inspected=edges,
                atomics=edges,
                updated_vertices=int(next_frontier.size),
            )
            frontier = next_frontier
            level += 1


class _BfsBase(GraphWorkload):
    """Shared level-synchronous engine; subclasses set the mapping."""

    #: Topology-driven kernels scan the full vertex set every level.
    topological: bool = False
    num_sources: int = 128

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return bfs_epochs(graph, sources, self.topological)

    def reference_epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return bfs_epochs_reference(graph, sources, self.topological)

    def reference(self, graph: CSRGraph) -> np.ndarray:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return bfs_depths(graph, int(sources[0]))


class BfsTa(_BfsBase):
    """Topology-driven, atomic-per-edge (GraphBIG ``bfs_topo_atomic``)."""

    name = "bfs-ta"
    topological = True
    coeffs = TrafficCoefficients(
        lines_per_edge=1.667,
        write_lines_per_edge=1.334,
        instrs_per_edge=14.0,
        divergence=0.40,
        read_hit_rate=0.45,
        atomic_coalescing=0.50,
    )


class BfsTtc(_BfsBase):
    """Topology-driven thread-centric: scattered reads, heavy divergence."""

    name = "bfs-ttc"
    topological = True
    coeffs = TrafficCoefficients(
        lines_per_edge=1.053,
        write_lines_per_edge=0.764,
        instrs_per_edge=16.0,
        divergence=0.50,
        read_hit_rate=0.40,
        atomic_coalescing=0.351,
    )


class BfsTwc(_BfsBase):
    """Topology-driven warp-centric: coalesced reads, low divergence."""

    name = "bfs-twc"
    topological = True
    coeffs = TrafficCoefficients(
        lines_per_edge=0.94,
        write_lines_per_edge=0.44,
        instrs_per_edge=10.0,
        divergence=0.05,
        read_hit_rate=0.50,
        atomic_coalescing=0.289,
    )


class BfsDwc(_BfsBase):
    """Data-driven warp-centric: frontier queue + coalesced expansion."""

    name = "bfs-dwc"
    topological = False
    coeffs = TrafficCoefficients(
        lines_per_edge=0.94,
        write_lines_per_edge=0.44,
        instrs_per_edge=10.0,
        divergence=0.05,
        read_hit_rate=0.50,
        atomic_coalescing=0.289,
    )
