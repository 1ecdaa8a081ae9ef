"""repro.telemetry — the live telemetry plane.

Four modules, one package:

- :mod:`repro.telemetry.registry` — the metrics core (one counter,
  gauge and histogram, shared with the per-run
  :class:`~repro.sim.stats.StatRegistry`) and its label-aware
  process-wide families, with a worker→parent delta pipe for forked
  job pools.
- :mod:`repro.telemetry.exposition` — Prometheus text exposition
  encoder + validating parser (the ``GET /metrics`` scrape format).
- :mod:`repro.telemetry.live` — bounded in-flight run telemetry: the
  engines emit periodic samples through a thread-local
  :class:`RunTelemetrySink` into the API service's per-run event log.
- :mod:`repro.telemetry.trend` — the perf-regression gate behind
  ``repro bench-trend``.
"""

from repro.telemetry.exposition import (
    CONTENT_TYPE,
    ExpositionError,
    parse_exposition,
    render_exposition,
)
from repro.telemetry.live import (
    RunTelemetrySink,
    get_run_sink,
    run_telemetry,
    set_run_sink,
)
from repro.telemetry.registry import (
    DELTA_SCHEMA_ID,
    TelemetryRegistry,
    get_registry,
    set_registry,
)

__all__ = [
    "CONTENT_TYPE",
    "DELTA_SCHEMA_ID",
    "ExpositionError",
    "RunTelemetrySink",
    "TelemetryRegistry",
    "get_registry",
    "get_run_sink",
    "parse_exposition",
    "render_exposition",
    "run_telemetry",
    "set_registry",
    "set_run_sink",
]
