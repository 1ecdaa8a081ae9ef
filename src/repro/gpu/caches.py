"""GPU cache model: filters workload traffic into memory traffic.

The interval model needs post-cache traffic, and the paper leans on two
cache-related effects:

1. Offloading-target data lives in an *uncacheable region* (Sec. II-B,
   following GraphPIM), so atomics never hit in cache — whether executed
   by the host or offloaded.
2. Host-executed atomics are processed at the GPU's L2 ROP units, where
   back-to-back atomics to the same cache line coalesce; the effective
   per-atomic DRAM read+write traffic is reduced by a workload-dependent
   coalescing factor.

Hit rates are supplied by the workload (each GraphBIG kernel knows its
locality profile); this module applies them consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.gpu.config import GpuConfig
from repro.hmc.flow import TrafficDemand
from repro.sim.trace import OpBatch


@dataclass(frozen=True)
class MemoryTraffic:
    """Post-cache transaction counts for one epoch."""

    reads: int
    writes: int
    atomics: int             # offloadable atomics reaching memory
    atomics_with_return: int

    def __post_init__(self) -> None:
        _check_traffic(
            self.reads, self.writes, self.atomics, self.atomics_with_return
        )


def _check_traffic(reads, writes, atomics, atomics_with_return) -> None:
    """:class:`MemoryTraffic`'s guard, shared with the count cores
    :meth:`CacheModel.filter_counts` and :meth:`CacheModel.demand_counts`
    that bypass it."""
    if min(reads, writes, atomics, atomics_with_return) < 0:
        raise ValueError(
            f"negative traffic: MemoryTraffic(reads={reads}, "
            f"writes={writes}, atomics={atomics}, "
            f"atomics_with_return={atomics_with_return})"
        )
    if atomics_with_return > atomics:
        raise ValueError("atomics_with_return exceeds atomics")


class CacheModel:
    """Applies hit rates and atomic coalescing to an :class:`OpBatch`.

    Parameters
    ----------
    read_hit_rate:
        Combined L1+L2 hit fraction for ordinary loads.
    write_hit_rate:
        Combined hit/merge fraction for stores (write-back caches absorb
        and merge most stores).
    host_atomic_coalescing:
        Fraction of host atomics that miss L2's atomic-merge window and
        cost a DRAM read+write (1.0 = every atomic pays full RMW traffic).
    coherence_mode:
        How offloaded PIM data stays coherent with the caches (Sec. II-B):
        ``"bypass"`` (GraphPIM, the paper's choice) keeps offloading
        targets in an uncacheable region — no coherence traffic;
        ``"writeback"`` (PEI) lets the data be cached and invalidates /
        writes back the blocks each PIM instruction touches — every
        offloaded op that hits a dirty line pays a 64 B writeback.
    pei_dirty_fraction:
        In writeback mode: fraction of offloaded ops hitting a dirty
        cached copy.
    """

    def __init__(
        self,
        config: GpuConfig,
        read_hit_rate: float = 0.5,
        write_hit_rate: float = 0.5,
        host_atomic_coalescing: float = 0.6,
        coherence_mode: str = "bypass",
        pei_dirty_fraction: float = 0.3,
    ) -> None:
        for name, v in (
            ("read_hit_rate", read_hit_rate),
            ("write_hit_rate", write_hit_rate),
            ("host_atomic_coalescing", host_atomic_coalescing),
            ("pei_dirty_fraction", pei_dirty_fraction),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if coherence_mode not in ("bypass", "writeback"):
            raise ValueError(
                f"coherence_mode must be 'bypass' or 'writeback', "
                f"got {coherence_mode!r}"
            )
        self.config = config
        self.read_hit_rate = read_hit_rate
        self.write_hit_rate = write_hit_rate
        self.host_atomic_coalescing = host_atomic_coalescing
        self.coherence_mode = coherence_mode
        self.pei_dirty_fraction = pei_dirty_fraction

    def filter(self, batch: OpBatch) -> MemoryTraffic:
        """Memory-level transactions produced by one epoch's accesses."""
        return MemoryTraffic(*self.filter_counts(batch))

    def filter_counts(self, batch: OpBatch) -> Tuple[int, int, int, int]:
        """:meth:`filter` as :class:`MemoryTraffic`'s counts ``(reads,
        writes, atomics, atomics_with_return)``, under its guard."""
        reads = int(round(batch.reads * (1.0 - self.read_hit_rate)))
        writes = int(round(batch.writes * (1.0 - self.write_hit_rate)))
        atomics = batch.atomics
        atomics_with_return = batch.atomics_with_return
        _check_traffic(reads, writes, atomics, atomics_with_return)
        return reads, writes, atomics, atomics_with_return

    def writebacks(self, pim_ops: int, carry: float = 0.0) -> Tuple[int, float]:
        """64 B writebacks that ``pim_ops`` offloaded ops cause, and the
        rounding remainder to carry into the next call.

        PEI-style coherence (``"writeback"``): an offloaded op that hits
        a dirty cached copy writes it back before the PIM instruction
        may execute. ``carry`` is the remainder an earlier call returned:
        rounding ``pim_ops * pei_dirty_fraction + carry`` keeps a chain
        of calls at the rounded total instead of drifting by one
        rounding per call. None, and no carry, in ``"bypass"`` mode.
        """
        if self.coherence_mode != "writeback":
            return 0, 0.0
        exact = pim_ops * self.pei_dirty_fraction + carry
        count = int(round(exact))
        return count, exact - count

    def demand(self, traffic: MemoryTraffic, pim_fraction: float) -> TrafficDemand:
        """:meth:`demand_counts` of ``traffic`` as a :class:`TrafficDemand`."""
        return TrafficDemand(*self.demand_counts(
            traffic.reads, traffic.writes, traffic.atomics,
            traffic.atomics_with_return, pim_fraction,
        ))

    def demand_counts(
        self, reads: int, writes: int, atomics: int,
        atomics_with_return: int, pim_fraction: float,
    ) -> Tuple[int, int, int, int, int]:
        """Split atomics between PIM offload and host execution.

        Takes :class:`MemoryTraffic`'s counts (and its guard) and returns
        the :class:`TrafficDemand` counts ``(reads, writes, host_atomics,
        pim_ops, pim_ops_ret)``, each non-negative by construction.
        ``pim_fraction`` ∈ [0, 1] is the share of atomics issued as PIM
        instructions (set by the throttling policy). Host-executed atomics
        pay the coalesced read+write cost; offloaded ones pay Table I PIM
        packet costs (cache is bypassed either way — uncacheable region),
        plus their PEI writebacks in ``"writeback"`` mode.
        """
        _check_traffic(reads, writes, atomics, atomics_with_return)
        if not 0.0 <= pim_fraction <= 1.0:
            raise ValueError(f"pim_fraction must be in [0,1], got {pim_fraction}")
        pim_total = int(round(atomics * pim_fraction))
        pim_ret = min(
            pim_total, int(round(atomics_with_return * pim_fraction))
        )
        host = atomics - pim_total
        return (
            reads,
            writes + self.writebacks(pim_total)[0],
            int(round(host * self.host_atomic_coalescing)),
            pim_total - pim_ret,
            pim_ret,
        )
