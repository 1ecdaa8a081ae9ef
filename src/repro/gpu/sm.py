"""SM compute-time model.

Graph kernels on GPUs are dominated by memory traffic, but the SMs impose
a compute floor: an epoch cannot retire faster than its instructions can
issue. Divergent warps serialize their branch paths, reducing effective
issue throughput — warp-centric kernels keep divergence near zero while
topological thread-centric ones diverge heavily (Sec. IV-B).
"""

from __future__ import annotations

from repro.gpu.config import GpuConfig

#: Issue-slot cost of one divergent warp relative to a convergent one.
DIVERGENCE_SERIALIZATION = 2.0


class SmArray:
    """Aggregate compute model of all SMs."""

    def __init__(self, config: GpuConfig) -> None:
        self.config = config

    def issue_time_ns(
        self, compute_cycles: int, divergent_warp_ratio: float
    ) -> float:
        """Lower bound on an epoch's duration from instruction issue:
        ``compute_cycles`` warp-instructions with ``divergent_warp_ratio``
        of the warps divergent, whose branch paths serialize."""
        if compute_cycles <= 0:
            return 0.0
        div = divergent_warp_ratio
        inflation = 1.0 + (DIVERGENCE_SERIALIZATION - 1.0) * div
        instructions = compute_cycles * inflation
        return instructions / self.config.peak_warp_instructions_per_ns
