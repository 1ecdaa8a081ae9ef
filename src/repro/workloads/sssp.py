"""Single-source shortest paths variants (GraphBIG GPU kernels).

Distance relaxations are atomicMin operations — PIM's CAS-greater/less
class (Table III). Variants:

- ``sssp-dtc`` — data-driven thread-centric: frontier of improved
  vertices, one thread per vertex, scattered reads and high divergence.
- ``sssp-dwc`` — data-driven warp-centric: same frontier schedule with
  warp-cooperative coalesced expansion.
- ``sssp-twc`` — topology-driven warp-centric: Bellman-Ford sweeps over
  every edge each iteration until no distance changes.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads.base import EpochCounts, GraphWorkload, TrafficCoefficients
from repro.workloads.bfs import pick_sources


def sssp_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference shortest-path distances (Bellman-Ford, vectorized)."""
    if not graph.is_weighted:
        raise ValueError("SSSP requires a weighted graph")
    dist = np.full(graph.num_vertices, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        src, dst, w = graph.expand(frontier, with_weights=True)
        cand = dist[src] + w
        improved = cand < dist[dst]
        if not improved.any():
            break
        # atomicMin semantics: keep the minimum candidate per target.
        np.minimum.at(dist, dst[improved], cand[improved])
        frontier = np.unique(dst[improved])
    return dist


def sssp_epochs(graph: CSRGraph, sources: Sequence[int]) -> Iterator[EpochCounts]:
    """Per-source frontier relaxation counts of ``sources``' searches.

    Equal to :func:`sssp_epochs_reference`. The next frontier is read off
    a reusable boolean mark array (sorted, like ``np.unique``, without a
    sort), and source distances spread over the edges with one
    ``np.repeat``; every float ``+`` and ``min`` sees the reference's
    operands, so the distances and counts are the same.
    """
    if not graph.is_weighted:
        raise ValueError("SSSP requires a weighted graph")
    n = graph.num_vertices
    dist = np.empty(n)
    mark = np.zeros(n, dtype=bool)
    for q, source in enumerate(sources):
        dist.fill(np.inf)
        dist[source] = 0.0
        frontier = np.array([source], dtype=np.int64)
        it = 0
        while frontier.size:
            counts, positions = graph.out_edges(frontier)
            dst = graph.indices[positions]
            cand = np.repeat(dist[frontier], counts) + graph.weights[positions]
            improved = np.flatnonzero(cand < dist[dst])
            tgt = dst[improved]
            np.minimum.at(dist, tgt, cand[improved])
            mark[tgt] = True
            nxt = np.flatnonzero(mark)
            mark[nxt] = False
            # Every inspected edge attempts an atomicMin on its target.
            yield EpochCounts(
                label=f"q{q}-iter{it}",
                frontier_vertices=int(frontier.size),
                edges_inspected=int(dst.size),
                atomics=int(dst.size),
                updated_vertices=int(nxt.size),
            )
            frontier = nxt
            it += 1


def sssp_epochs_reference(
    graph: CSRGraph, sources: Sequence[int]
) -> Iterator[EpochCounts]:
    """Frontier relaxation with ``np.unique`` — the readable specification.

    Retained for the equivalence tests and the trace-generation
    benchmark; :class:`_SsspDataDriven` uses :func:`sssp_epochs`.
    """
    if not graph.is_weighted:
        raise ValueError("SSSP requires a weighted graph")
    for q, source in enumerate(sources):
        dist = np.full(graph.num_vertices, np.inf)
        dist[int(source)] = 0.0
        frontier = np.array([int(source)], dtype=np.int64)
        it = 0
        while frontier.size:
            src, dst, w = graph.expand(frontier, with_weights=True)
            cand = dist[src] + w
            improved = cand < dist[dst]
            # Every inspected edge attempts an atomicMin on the target
            # distance (the kernel cannot know it won't improve until
            # the atomic resolves).
            atomics = int(dst.size)
            np.minimum.at(dist, dst[improved], cand[improved])
            nxt = np.unique(dst[improved])
            yield EpochCounts(
                label=f"q{q}-iter{it}",
                frontier_vertices=int(frontier.size),
                edges_inspected=int(dst.size),
                atomics=atomics,
                updated_vertices=int(nxt.size),
            )
            frontier = nxt
            it += 1


def sssp_sweep_epochs(
    graph: CSRGraph, sources: Sequence[int]
) -> Iterator[EpochCounts]:
    """Per-source Bellman-Ford sweep counts of ``sources``' searches.

    Equal to :func:`sssp_sweep_epochs_reference`. The all-edge expansion
    is built once, and a sweep relaxes every edge: an edge whose source
    distance is infinite yields an infinite candidate, which never
    improves a target, so only the atomics count needs the finite mask —
    taken per vertex, weighted by out-degree.
    """
    if not graph.is_weighted:
        raise ValueError("SSSP requires a weighted graph")
    n = graph.num_vertices
    deg = np.diff(graph.indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    dst, w = graph.indices, graph.weights
    dist = np.empty(n)
    for q, source in enumerate(sources):
        dist.fill(np.inf)
        dist[source] = 0.0
        it = 0
        while True:
            # Relaxations only issue for edges whose source has a finite
            # distance (the kernel checks before the atomic).
            atomics = int(deg[np.isfinite(dist)].sum())
            cand = dist[src] + w
            improved = np.flatnonzero(cand < dist[dst])
            changed = int(improved.size)
            np.minimum.at(dist, dst[improved], cand[improved])
            yield EpochCounts(
                label=f"q{q}-sweep{it}",
                frontier_vertices=n,
                scanned_vertices=n,
                edges_inspected=int(dst.size),
                atomics=atomics,
                updated_vertices=changed,
            )
            it += 1
            if changed == 0:
                break


def sssp_sweep_epochs_reference(
    graph: CSRGraph, sources: Sequence[int]
) -> Iterator[EpochCounts]:
    """Bellman-Ford sweeps re-expanding every vertex — the readable
    specification, retained for the equivalence tests and the
    trace-generation benchmark; :class:`SsspTwc` uses
    :func:`sssp_sweep_epochs`."""
    if not graph.is_weighted:
        raise ValueError("SSSP requires a weighted graph")
    n = graph.num_vertices
    all_vertices = np.arange(n, dtype=np.int64)
    for q, source in enumerate(sources):
        dist = np.full(n, np.inf)
        dist[int(source)] = 0.0
        it = 0
        while True:
            src, dst, w = graph.expand(all_vertices, with_weights=True)
            finite = np.isfinite(dist[src])
            cand = dist[src[finite]] + w[finite]
            tgt = dst[finite]
            improved = cand < dist[tgt]
            # Relaxations only issue for edges whose source has a
            # finite distance (the kernel checks before the atomic).
            atomics = int(finite.sum())
            changed = int(improved.sum())
            np.minimum.at(dist, tgt[improved], cand[improved])
            yield EpochCounts(
                label=f"q{q}-sweep{it}",
                frontier_vertices=n,
                scanned_vertices=n,
                edges_inspected=int(dst.size),
                atomics=atomics,
                updated_vertices=changed,
            )
            it += 1
            if changed == 0:
                break


class _SsspBase(GraphWorkload):
    """Shared query stream and correctness reference."""

    num_sources: int = 32

    def _sources(self, graph: CSRGraph) -> np.ndarray:
        if not graph.is_weighted:
            raise ValueError(f"{self.name} requires a weighted graph")
        return pick_sources(graph, self.num_sources, self.seed)

    def reference(self, graph: CSRGraph) -> np.ndarray:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return sssp_distances(graph, int(sources[0]))


class _SsspDataDriven(_SsspBase):
    """Frontier-based relaxation engine.

    Both data-driven variants relax the same frontiers, so they share one
    traversal: its epoch counts, which neither mapping changes.
    """

    family = "sssp-data-driven"

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        return sssp_epochs(graph, self._sources(graph))

    def traversal_key(self, graph: CSRGraph) -> tuple:
        sources = self._sources(graph)
        return (self.family, graph.fingerprint(), tuple(sources.tolist()))

    def traverse(self, graph: CSRGraph) -> Tuple[EpochCounts, ...]:
        return tuple(sssp_epochs(graph, self._sources(graph)))

    def epochs_from(self, traversal, graph: CSRGraph) -> Iterator[EpochCounts]:
        return iter(traversal)

    def reference_epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        return sssp_epochs_reference(graph, self._sources(graph))


class SsspDtc(_SsspDataDriven):
    """Data-driven thread-centric: scattered, divergent, read-heavy.

    The heavy per-edge read traffic dilutes atomics — this is one of the
    two benchmarks whose naïve PIM rate stays under the thermal threshold
    (Sec. V-B: kcore and sssp-dtc trigger no thermal issue).
    """

    name = "sssp-dtc"
    coeffs = TrafficCoefficients(
        lines_per_edge=3.40,
        instrs_per_edge=18.0,
        divergence=0.50,
        read_hit_rate=0.35,
        atomic_coalescing=0.55,
        return_fraction=0.3,
    )


class SsspDwc(_SsspDataDriven):
    """Data-driven warp-centric: coalesced expansion."""

    name = "sssp-dwc"
    coeffs = TrafficCoefficients(
        lines_per_edge=1.036,
        write_lines_per_edge=0.790,
        instrs_per_edge=12.0,
        divergence=0.08,
        read_hit_rate=0.45,
        atomic_coalescing=0.351,
        return_fraction=0.3,
    )


class SsspTwc(_SsspBase):
    """Topology-driven warp-centric Bellman-Ford sweeps."""

    name = "sssp-twc"
    num_sources: int = 12
    coeffs = TrafficCoefficients(
        lines_per_edge=1.080,
        write_lines_per_edge=0.838,
        instrs_per_edge=12.0,
        divergence=0.08,
        read_hit_rate=0.45,
        atomic_coalescing=0.35,
        return_fraction=0.3,
    )

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        return sssp_sweep_epochs(graph, self._sources(graph))

    def reference_epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        return sssp_sweep_epochs_reference(graph, self._sources(graph))
