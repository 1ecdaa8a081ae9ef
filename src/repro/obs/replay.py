"""Turn a finished run's sampled timeline into sim-clock counter tracks.

The simulators advance time with closed-form arithmetic and sample a
timeline as they go (``SimulationResult.timeline`` — ``(time_s, temp_c,
pim_rate, pim_fraction)`` tuples). ``repro trace`` and the API's trace
artifact emit that timeline, row by row, as temperature / PIM-rate /
offload-fraction counters on the **sim clock** lane, timestamped in
simulated microseconds.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.obs.tracer import Tracer, get_tracer

TimelineRow = Tuple[float, float, float, float]


def replay_timeline(
    timeline: Sequence[TimelineRow],
    tracer: Optional[Tracer] = None,
) -> Dict[str, float]:
    """Emit each timeline row as three sim-clock counters.

    Returns ``{"events": n, "sim_span_s": t}``: the rows emitted and the
    latest sample time. With tracing enabled, each row leaves one
    ``sim.temp_c``, ``sim.pim_rate_ops_ns`` and ``sim.pim_fraction``
    sample, in timeline order.
    """
    # Explicit None check: Tracer defines __len__, so an empty tracer is
    # falsy and ``tracer or get_tracer()`` would silently drop it.
    tr = tracer if tracer is not None else get_tracer()
    last_ns = 0.0
    for time_s, temp_c, pim_rate, fraction in timeline:
        sim_ns = time_s * 1e9
        last_ns = max(last_ns, sim_ns)
        tr.counter("sim.temp_c", temp_c, cat="sim", sim_time_ns=sim_ns, clock="sim")
        tr.counter(
            "sim.pim_rate_ops_ns", pim_rate, cat="sim", sim_time_ns=sim_ns, clock="sim"
        )
        tr.counter(
            "sim.pim_fraction", fraction, cat="sim", sim_time_ns=sim_ns, clock="sim"
        )
    return {"events": float(len(timeline)), "sim_span_s": last_ns / 1e9}
