"""Simulation kernel: discrete-event engine, clocks, statistics, and traces.

This subpackage provides the substrate shared by the event-level HMC cube
model (:mod:`repro.hmc.cube`) and the time-stepped full-system co-simulation
(:mod:`repro.gpu.simulator`):

- :class:`~repro.sim.engine.EventEngine` — a priority-queue discrete-event
  scheduler with deterministic tie-breaking.
- :class:`~repro.sim.clock.Clock` — a frequency-aware cycle/time converter.
- :class:`~repro.sim.stats.StatRegistry` — hierarchical per-run counters,
  histograms, and time-weighted averages on the metrics core.
- :mod:`~repro.sim.trace` — operation-batch records emitted by workloads and
  consumed by the GPU interval model.
"""

from repro.sim.clock import Clock
from repro.sim.engine import Event, EventEngine
from repro.sim.stats import Counter, Histogram, StatRegistry, TimeWeightedStat
from repro.sim.trace import OpBatch, TraceCursor, merge_batches

__all__ = [
    "Clock",
    "Counter",
    "Event",
    "EventEngine",
    "Histogram",
    "OpBatch",
    "StatRegistry",
    "TimeWeightedStat",
    "TraceCursor",
    "merge_batches",
]
