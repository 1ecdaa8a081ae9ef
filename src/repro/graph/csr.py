"""Compressed sparse row (CSR) graph container.

Workloads operate on CSR arrays directly (vectorized NumPy), matching how
GraphBIG kernels walk adjacency lists on the GPU. The container is
immutable after construction; algorithms allocate their own property arrays.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np


class CSRGraph:
    """Directed graph in CSR form with optional edge weights.

    Parameters
    ----------
    indptr:
        ``int64[n+1]`` row pointers.
    indices:
        ``int64[m]`` column indices (destination vertices).
    weights:
        Optional ``float64[m]`` edge weights (for SSSP).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(
                f"indptr must start at 0 and end at len(indices)={indices.size}, "
                f"got [{indptr[0]}, {indptr[-1]}]"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge endpoints out of range")
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise ValueError(
                    f"weights shape {weights.shape} != indices shape {indices.shape}"
                )
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        if self.weights is not None:
            self.weights.setflags(write=False)
        self._fingerprint: Optional[str] = None

    # -- basic properties ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def out_degree(self, v: Optional[int] = None) -> np.ndarray | int:
        """Out-degree of vertex ``v``, or the full degree array."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Destination vertices of ``v``'s out-edges (a view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights of ``v``'s out-edges; requires a weighted graph."""
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
        dedup: bool = True,
    ) -> "CSRGraph":
        """Build from parallel edge arrays, sorting (and optionally
        deduplicating) by (src, dst)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have identical shape")
        if src.size and (
            src.min() < 0 or src.max() >= num_vertices
            or dst.min() < 0 or dst.max() >= num_vertices
        ):
            raise ValueError("edge endpoints out of range")
        # One stable sort of the packed (src, dst) key orders edges like a
        # lexsort on (src, dst), keeping equal pairs in input order.
        key = src * num_vertices + dst
        order = np.argsort(key, kind="stable")
        key, dst = key[order], dst[order]
        w = None if weights is None else np.asarray(weights, dtype=np.float64)[order]
        if dedup and key.size:
            keep = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key, dst = key[keep], dst[keep]
            if w is not None:
                w = w[keep]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // num_vertices, minlength=num_vertices),
                  out=indptr[1:])
        return cls(indptr, dst, w)

    def reversed(self) -> "CSRGraph":
        """Graph with all edges reversed (CSC of the original)."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        return CSRGraph.from_edges(n, self.indices, src, self.weights, dedup=False)

    def to_undirected(self) -> "CSRGraph":
        """Symmetrized copy (each edge present in both directions)."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        s = np.concatenate([src, self.indices])
        d = np.concatenate([self.indices, src])
        w = None
        if self.weights is not None:
            w = np.concatenate([self.weights, self.weights])
        return CSRGraph.from_edges(n, s, d, w, dedup=True)

    # -- vectorized frontier expansion ---------------------------------------

    def out_edges(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Out-degrees of ``vertices`` and the positions of their out-edges.

        Returns ``(counts, positions)``: ``counts[i]`` is the out-degree
        of ``vertices[i]`` and ``positions`` indexes ``indices``/``weights``
        with every vertex's edges as one contiguous run, in vertex order.
        Per-vertex values spread over the edges with
        ``np.repeat(values, counts)``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        run_ends = np.cumsum(counts)
        total = int(run_ends[-1]) if run_ends.size else 0
        # Edge j of the run owned by vertex i sits at
        # starts[i] + (j - run_start[i]): one ramp plus one shifted repeat.
        positions = np.arange(total, dtype=np.int64)
        positions += np.repeat(starts - (run_ends - counts), counts)
        return counts, positions

    def expand(
        self, vertices: np.ndarray, with_weights: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Gather all out-edges of ``vertices`` in one vectorized pass.

        Returns ``(sources, targets, weights)`` — parallel arrays with one
        entry per edge; ``sources[i]`` repeats the owning vertex. This is
        the building block of every frontier-based kernel.
        """
        if with_weights and self.weights is None:
            raise ValueError("graph is unweighted")
        vertices = np.asarray(vertices, dtype=np.int64)
        counts, positions = self.out_edges(vertices)
        sources = np.repeat(vertices, counts)
        targets = self.indices[positions]
        weights = self.weights[positions] if with_weights else None
        return sources, targets, weights

    # -- identity -------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content digest of the CSR arrays (blake2b, hex).

        Equal graphs share a fingerprint whatever object holds them, so
        caches keyed on it survive reloads and never alias two graphs the
        way ``id()`` can after garbage collection. The arrays are
        read-only, so the digest is computed once per graph object.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(b"weighted" if self.weights is not None else b"unweighted")
            for arr in (self.indptr, self.indices, self.weights):
                if arr is not None:
                    h.update(np.int64(arr.size).tobytes())
                    h.update(arr.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # -- analysis helpers ---------------------------------------------------

    def degree_stats(self) -> Tuple[float, int]:
        """(mean out-degree, max out-degree)."""
        deg = np.diff(self.indptr)
        if deg.size == 0:
            return 0.0, 0
        return float(deg.mean()), int(deg.max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        w = "weighted" if self.is_weighted else "unweighted"
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, {w})"
