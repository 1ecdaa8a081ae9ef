"""Live per-run telemetry: bounded in-flight samples from the engines.

CoolPIM's story is a time series — DRAM temperature marching toward the
85 °C line while throttling trades bandwidth for headroom — so a
follower of ``GET /runs/{id}/events`` should watch thermals move
*in-flight*, not learn everything from the terminal snapshot. Both
engines emit through one :class:`RunTelemetrySink`:

- the **stepped** engine checks the sink every control step,
- the **macro** engine checks it only at burst-commit boundaries (and
  scalar fallback steps) — committed state only, so the speculative
  arithmetic and the bit-equality contract are untouched.

The engine-facing contract mirrors the tracer's NULL_SPAN discipline:
the sink is resolved **once** per run (:func:`get_run_sink`); when none
is installed the per-step cost is a single ``is not None`` test. When
one is installed, the engine compares ``now_s`` against the sink's
``next_due_s`` attribute inline and only builds a sample dict when one
is actually due.

Sample flow control (the downsampling budget):

- :data:`INTERVAL_S` — sim-time spacing between samples (the
  engine-side gate via ``next_due_s``), the result timeline's grid.
- ``max_samples`` — hard budget per run; once spent, later samples only
  replace the pending one, **last value wins**, so the event log stays
  bounded at ``max_samples + 1`` (``close()`` flushes the final pending
  sample).

Sinks are installed **thread-local** (:func:`run_telemetry`): the API
service executes each job in its own executor thread, so concurrent
runs never cross streams, and code that never installs a sink pays
nothing.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, Iterator, Optional
from contextlib import contextmanager

#: Default per-run sample budget (the service event-log bound).
DEFAULT_MAX_SAMPLES = 64

#: Sim-time spacing between samples (the timeline grid).
INTERVAL_S = 250e-6


class RunTelemetrySink:
    """Bounded collector for one run's in-flight telemetry samples."""

    def __init__(
        self,
        emit: Callable[[Dict[str, Any]], None],
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1: {max_samples}")
        self._emit = emit
        self.max_samples = max_samples
        #: Sim-time the engines compare against inline; the first sample
        #: is due immediately so even sub-millisecond runs emit one.
        self.next_due_s = 0.0
        self.emitted = 0
        self.coalesced = 0
        self._pending: Optional[Dict[str, Any]] = None
        self._closed = False

    def emit_sample(self, sample: Dict[str, Any]) -> None:
        """Offer one sample (engine-side, sim-time gated by the caller)."""
        if self._closed:
            return
        self.next_due_s = float(sample.get("t_s", 0.0)) + INTERVAL_S
        if self.emitted >= self.max_samples:
            # Budget spent: keep the freshest sample, drop the rest.
            self._pending = sample
            self.coalesced += 1
            return
        self.emitted += 1
        self._emit(sample)

    def close(self) -> None:
        """Flush the pending (coalesced) sample, if any, and seal."""
        if self._closed:
            return
        self._closed = True
        self.next_due_s = math.inf
        if self._pending is not None:
            sample = self._pending
            self._pending = None
            self.emitted += 1
            self._emit(sample)


_STATE = threading.local()


def get_run_sink() -> Optional[RunTelemetrySink]:
    """The sink installed on this thread, or None (the fast path)."""
    return getattr(_STATE, "sink", None)


def set_run_sink(
    sink: Optional[RunTelemetrySink],
) -> Optional[RunTelemetrySink]:
    """Install ``sink`` thread-local; returns the previous one."""
    previous = getattr(_STATE, "sink", None)
    _STATE.sink = sink
    return previous


@contextmanager
def run_telemetry(sink: RunTelemetrySink) -> Iterator[RunTelemetrySink]:
    """Install ``sink`` for the duration of a run; close it on exit."""
    previous = set_run_sink(sink)
    try:
        yield sink
    finally:
        set_run_sink(previous)
        sink.close()
