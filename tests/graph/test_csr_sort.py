"""``CSRGraph.from_edges`` sorts with one packed-key argsort; every
registry dataset must come out exactly as a (src, dst) lexsort builds it."""

from typing import Optional

import numpy as np
import pytest

from repro.graph import datasets
from repro.graph.csr import CSRGraph


def _lexsort_from_edges(
    cls,
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray] = None,
    dedup: bool = True,
) -> CSRGraph:
    """Reference construction: lexsort on (src, dst), keep the first of
    each duplicate pair."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[order]
    if dedup and src.size:
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
        if w is not None:
            w = w[keep]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return cls(indptr, dst, w)


def _same(a: CSRGraph, b: CSRGraph) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    if a.weights is None:
        assert b.weights is None
    else:
        assert np.array_equal(a.weights, b.weights)
    assert a.fingerprint() == b.fingerprint()


@pytest.mark.parametrize("name", datasets.list_datasets())
def test_registry_dataset_matches_lexsort_reference(name, monkeypatch):
    built = datasets._REGISTRY[name]()
    monkeypatch.setattr(CSRGraph, "from_edges", classmethod(_lexsort_from_edges))
    reference = datasets._REGISTRY[name]()
    _same(built, reference)


@pytest.mark.parametrize("dedup", [True, False])
def test_duplicates_keep_their_first_weight(dedup):
    rng = np.random.default_rng(4)
    src = rng.integers(0, 9, 400)
    dst = rng.integers(0, 9, 400)
    w = rng.random(400)
    _same(CSRGraph.from_edges(9, src, dst, w, dedup=dedup),
          _lexsort_from_edges(CSRGraph, 9, src, dst, w, dedup=dedup))


def test_empty_edge_list():
    empty = np.empty(0, dtype=np.int64)
    _same(CSRGraph.from_edges(4, empty, empty),
          _lexsort_from_edges(CSRGraph, 4, empty, empty))
