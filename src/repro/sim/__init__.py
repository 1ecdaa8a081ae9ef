"""Simulation kernel: statistics and operation traces.

This subpackage provides the substrate shared by the transaction-level
HMC co-simulation (:mod:`repro.gpu.detailed`) and the time-stepped
full-system co-simulation (:mod:`repro.gpu.simulator`). Both advance time
by closed-form arithmetic on the control quantum:

- :class:`~repro.sim.stats.StatRegistry` — hierarchical per-run counters,
  histograms, and time-weighted averages on the metrics core.
- :mod:`~repro.sim.trace` — operation-batch records emitted by workloads and
  consumed by the GPU interval model.
"""

from repro.sim.stats import Counter, Histogram, StatRegistry, TimeWeightedStat
from repro.sim.trace import OpBatch, TraceCursor, merge_batches

__all__ = [
    "Counter",
    "Histogram",
    "OpBatch",
    "StatRegistry",
    "TimeWeightedStat",
    "TraceCursor",
    "merge_batches",
]
