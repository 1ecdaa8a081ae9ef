"""Graph persistence: whitespace edge lists.

Lets users bring their own graphs (SNAP/KONECT-style edge lists) to the
workloads:

    g = load_edge_list("soc-live.txt")

Edge-list format: one ``src dst [weight]`` triple per line; ``#`` or ``%``
lines are comments. Vertex ids may be arbitrary non-negative integers —
they are compacted to a dense range.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Union

import numpy as np

from repro.graph.csr import CSRGraph

PathLike = Union[str, Path, io.TextIOBase]


def load_edge_list(source: PathLike, weighted: bool | None = None) -> CSRGraph:
    """Parse an edge list into a :class:`CSRGraph`.

    ``weighted=None`` auto-detects from the first data line; ``True``
    requires a weight column; ``False`` ignores any third column.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r") as fh:
            return load_edge_list(fh, weighted)

    srcs: list[int] = []
    dsts: list[int] = []
    weights: list[float] = []
    for lineno, raw in enumerate(source, 1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 'src dst [weight]', "
                             f"got {line!r}")
        if weighted is None:
            weighted = len(parts) >= 3
        if weighted and len(parts) < 3:
            raise ValueError(f"line {lineno}: missing weight column")
        s, d = int(parts[0]), int(parts[1])
        if s < 0 or d < 0:
            raise ValueError(f"line {lineno}: negative vertex id")
        srcs.append(s)
        dsts.append(d)
        if weighted:
            weights.append(float(parts[2]))

    if not srcs:
        raise ValueError("edge list contains no edges")

    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    # Compact arbitrary ids to 0..n-1.
    ids = np.unique(np.concatenate([src, dst]))
    remap = {int(v): i for i, v in enumerate(ids)}
    src = np.array([remap[int(v)] for v in src], dtype=np.int64)
    dst = np.array([remap[int(v)] for v in dst], dtype=np.int64)
    w = np.asarray(weights) if weighted else None
    return CSRGraph.from_edges(len(ids), src, dst, w)


def save_edge_list(path: PathLike, graph: CSRGraph) -> None:
    """Write a graph as ``src dst [weight]`` lines."""
    if isinstance(path, (str, Path)):
        with open(path, "w") as fh:
            save_edge_list(fh, graph)
            return
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    path.write(f"# {n} vertices, {graph.num_edges} edges\n")
    if graph.is_weighted:
        for s, d, w in zip(src, graph.indices, graph.weights):
            path.write(f"{s} {d} {w:.6g}\n")
    else:
        for s, d in zip(src, graph.indices):
            path.write(f"{s} {d}\n")
