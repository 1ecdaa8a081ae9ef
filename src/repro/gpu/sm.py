"""SM compute-time model.

Graph kernels on GPUs are dominated by memory traffic, but the SMs impose
a compute floor: an epoch cannot retire faster than its instructions can
issue. Divergent warps serialize their branch paths, reducing effective
issue throughput — warp-centric kernels keep divergence near zero while
topological thread-centric ones diverge heavily (Sec. IV-B).
"""

from __future__ import annotations

from repro.gpu.config import GpuConfig
from repro.sim.trace import OpBatch

#: Issue-slot cost of one divergent warp relative to a convergent one.
DIVERGENCE_SERIALIZATION = 2.0


class SmArray:
    """Aggregate compute model of all SMs."""

    def __init__(self, config: GpuConfig) -> None:
        self.config = config

    def compute_time_ns(self, batch: OpBatch) -> float:
        """Lower bound on the epoch's duration from instruction issue.

        ``batch.compute_cycles`` counts warp-instructions; divergence
        inflates them by serializing branch paths.
        """
        return self.issue_time_ns(
            batch.compute_cycles, batch.divergent_warp_ratio
        )

    def issue_time_ns(
        self, compute_cycles: int, divergent_warp_ratio: float
    ) -> float:
        """:meth:`compute_time_ns` of ``compute_cycles`` warp-instructions
        with ``divergent_warp_ratio`` of the warps divergent."""
        if compute_cycles <= 0:
            return 0.0
        div = divergent_warp_ratio
        inflation = 1.0 + (DIVERGENCE_SERIALIZATION - 1.0) * div
        instructions = compute_cycles * inflation
        return instructions / self.config.peak_warp_instructions_per_ns

    def occupancy_limit(self, active_blocks: int) -> float:
        """Fraction of peak throughput usable with ``active_blocks``
        resident (fewer blocks than the GPU can host → underutilization)."""
        if active_blocks < 0:
            raise ValueError(f"negative block count: {active_blocks}")
        cap = self.config.max_concurrent_blocks
        return min(1.0, active_blocks / cap) if cap else 0.0
