"""Operation-batch traces.

Workloads in :mod:`repro.workloads` execute real graph algorithms and emit a
sequence of :class:`OpBatch` records — the per-epoch traffic summary that the
interval-style GPU model turns into time. An epoch corresponds to a slice of
GPU work whose instruction/traffic mix is homogeneous (e.g. one chunk of a
BFS frontier).

This keeps the full-system simulation fast (epochs, not individual memory
requests) while retaining the quantities the paper's evaluation depends on:
read/write traffic, the number of offloadable atomics, and warp divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
)


@dataclass(frozen=True)
class OpBatch:
    """Traffic summary for one workload epoch.

    Attributes
    ----------
    reads:
        Number of 64-byte cache-line read requests to memory (post-cache).
    writes:
        Number of 64-byte cache-line write requests to memory (post-cache).
    atomics:
        Number of PIM-offloadable atomic operations (each is a 16-byte
        read-modify-write on offloading-target data).
    atomics_with_return:
        Subset of ``atomics`` whose result is consumed by the program (these
        cost one extra response FLIT when offloaded, Table I).
    compute_cycles:
        GPU-side compute work in SM cycles for the epoch (per-thread work
        aggregated over the launched threads).
    threads:
        Number of GPU threads that execute in this epoch.
    divergent_warp_ratio:
        Fraction of warps whose lanes diverge in this epoch (affects Eq. (1)
        PTP initialization and effective PIM issue rate).
    label:
        Optional tag ("frontier-3", "iteration-12/relax", ...) for debugging.
    """

    reads: int
    writes: int
    atomics: int
    atomics_with_return: int = 0
    compute_cycles: int = 0
    threads: int = 0
    divergent_warp_ratio: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if min(self.reads, self.writes, self.atomics, self.atomics_with_return) < 0:
            raise ValueError(f"negative traffic counts in {self}")
        if self.atomics_with_return > self.atomics:
            raise ValueError(
                f"atomics_with_return ({self.atomics_with_return}) exceeds "
                f"atomics ({self.atomics})"
            )
        if not 0.0 <= self.divergent_warp_ratio <= 1.0:
            raise ValueError(
                f"divergent_warp_ratio out of [0,1]: {self.divergent_warp_ratio}"
            )

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes + self.atomics

    def scaled(self, factor: float) -> "OpBatch":
        """Return a copy with traffic counts scaled (rounded) by ``factor``."""
        if factor < 0:
            raise ValueError(f"negative scale factor: {factor}")
        return replace(
            self,
            reads=int(round(self.reads * factor)),
            writes=int(round(self.writes * factor)),
            atomics=int(round(self.atomics * factor)),
            atomics_with_return=int(round(self.atomics_with_return * factor)),
            compute_cycles=int(round(self.compute_cycles * factor)),
            threads=int(round(self.threads * factor)),
        )


def merge_batches(batches: Sequence[OpBatch], label: str = "") -> OpBatch:
    """Sum a sequence of batches into one (divergence is thread-weighted)."""
    if not batches:
        return OpBatch(0, 0, 0, label=label)
    threads = sum(b.threads for b in batches)
    if threads > 0:
        div = sum(b.divergent_warp_ratio * b.threads for b in batches) / threads
    else:
        div = sum(b.divergent_warp_ratio for b in batches) / len(batches)
    return OpBatch(
        reads=sum(b.reads for b in batches),
        writes=sum(b.writes for b in batches),
        atomics=sum(b.atomics for b in batches),
        atomics_with_return=sum(b.atomics_with_return for b in batches),
        compute_cycles=sum(b.compute_cycles for b in batches),
        threads=threads,
        divergent_warp_ratio=div,
        label=label,
    )


class TraceCursor:
    """Replayable iterator over a workload's epoch trace.

    The GPU simulator pulls epochs one at a time; :meth:`rewind` restarts the
    trace so the same workload can be run under several policies without
    regenerating it, and :meth:`rows` keeps what the simulator derives
    from each epoch for the next run.
    """

    def __init__(
        self,
        batches: Iterable[OpBatch],
        rows: Optional[Dict[tuple, tuple]] = None,
    ) -> None:
        self._batches: List[OpBatch] = list(batches)
        self._pos = 0
        # Per-epoch rows derived from the batches (see rows()); a caller
        # that hands several cursors the same batches may share them.
        self._rows: Dict[tuple, tuple] = {} if rows is None else rows

    def __len__(self) -> int:
        return len(self._batches)

    def __iter__(self) -> Iterator[OpBatch]:
        return iter(self._batches)

    @property
    def position(self) -> int:
        return self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._batches)

    def next(self) -> Optional[OpBatch]:
        """Return the next epoch, or ``None`` at end of trace."""
        if self.exhausted:
            return None
        batch = self._batches[self._pos]
        self._pos += 1
        return batch

    def rewind(self) -> None:
        self._pos = 0

    def seek(self, position: int) -> None:
        """Move the cursor to an absolute epoch index.

        Speculative consumers (the macro-step engine reads ahead, then
        commits only a validated prefix) use this to restore the cursor to
        the last committed epoch.
        """
        if not 0 <= position <= len(self._batches):
            raise ValueError(
                f"position {position} out of range [0, {len(self._batches)}]"
            )
        self._pos = position

    def rows(self, key: tuple, build: Callable[[OpBatch], Any]) -> tuple:
        """``build(batch)`` of every epoch, in trace order, computed once
        per ``key``.

        ``key`` must hold every input of ``build`` besides the batch.
        The rows live with the batches: every cursor
        :func:`repro.workloads.base.launch_for` returns for one memo
        entry shares them. Two threads building one key at once both
        build it; the values are equal, so either serves.
        """
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = tuple(build(b) for b in self._batches)
        return rows

    def totals(self) -> OpBatch:
        """Aggregate over the full trace (ignores cursor position)."""
        return merge_batches(self._batches, label="totals")
