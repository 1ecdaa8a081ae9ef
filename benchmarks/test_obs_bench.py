"""Observability overhead guard.

The tracer instrumentation added to :meth:`EventEngine.run` must be
effectively free when tracing is disabled (the default for every
production run). This benchmark times the instrumented engine against a
``_SeedRunEngine`` whose ``run()`` reproduces the pre-instrumentation
loop verbatim, and pins the disabled-tracer overhead below 5 %.

Both variants drain the same events in adjacent, order-alternated pairs
with the cyclic GC off, and the gate reads the median of the paired
ratios: a busy spell on a shared host slows both runs of a pair, where it
can skew a min-vs-min comparison by several percent either way. Each
drain is long enough (~0.2-0.4 s on a 2-vCPU host) that sub-100 ms
jitter stays small against it: at 20,000 events the paired ratios'
interquartile range was 0.88-1.06, at 60,000 it was 0.985-1.032.
"""

import gc
import statistics
import time

import pytest

from repro.obs.tracer import get_tracer
from repro.sim.engine import EventEngine

EVENTS_PER_RUN = 60_000
ROUNDS = 15
OVERHEAD_LIMIT = 0.05


class _SeedRunEngine(EventEngine):
    """EventEngine with the seed's uninstrumented run() loop."""

    def run(self, until=None, max_events=None):
        count = 0
        while True:
            if max_events is not None and count >= max_events:
                break
            t = self.peek_time()
            if t is None:
                break
            if until is not None and t > until:
                break
            self.step()
            count += 1
        if until is not None and until > self._now:
            t = self.peek_time()
            if t is None or t > until:
                self._now = until
        return count


def _nop():
    pass


def _drain_once(engine_cls):
    engine = engine_cls()
    for i in range(EVENTS_PER_RUN):
        engine.schedule(float(i), _nop)
    # No cyclic GC pass inside the timed region (see _sim_once below).
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        processed = engine.run()
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    assert processed == EVENTS_PER_RUN
    return elapsed


def test_disabled_tracer_overhead_below_5_percent():
    assert not get_tracer().enabled, "benchmark requires tracing off"
    instrumented, baseline = [], []
    _drain_once(EventEngine)  # warm-up
    _drain_once(_SeedRunEngine)
    for i in range(ROUNDS):
        # Alternate which variant runs first, as the telemetry guard does.
        if i % 2:
            baseline.append(_drain_once(_SeedRunEngine))
        instrumented.append(_drain_once(EventEngine))
        if not i % 2:
            baseline.append(_drain_once(_SeedRunEngine))
    overhead = statistics.median(
        ins / base for ins, base in zip(instrumented, baseline)
    ) - 1.0
    print(
        f"\n  engine.run drain of {EVENTS_PER_RUN} events: "
        f"instrumented {statistics.median(instrumented) * 1e3:.2f} ms, "
        f"seed {statistics.median(baseline) * 1e3:.2f} ms, "
        f"paired overhead {overhead * 100:+.2f}%"
    )
    assert overhead < OVERHEAD_LIMIT, (
        f"disabled-tracer overhead {overhead * 100:.1f}% exceeds "
        f"{OVERHEAD_LIMIT * 100:.0f}% budget"
    )


# --- live-telemetry control-loop overhead --------------------------------
#
# The shared run driver checks for a run sink after every loop
# iteration (stepped: every control step; macro: every scalar step or
# burst commit). With a sink attached the per-step cost is one attribute
# comparison; detached it is one `is not None` test. Either way the
# control loop must stay within 5% of the telemetry-disabled time on
# BOTH engines. A small absolute epsilon absorbs timer granularity; each
# engine's launch is sized so its telemetry-off run takes >= 50 ms on a
# 2-vCPU host, which keeps the epsilon under 4 % of the run so the 5 %
# bound can fail. Host load on
# a shared machine shifts for seconds at a time, so the gate reads the
# median over rounds of each adjacent (on, off) pair's excess: a busy
# spell slows both runs of a pair, where it can skew a min-vs-min
# comparison by 20 % or more.

TELEMETRY_ROUNDS = 11
TELEMETRY_ABS_EPS_S = 0.002
#: Epochs per launch, per engine: bursts make a macro epoch ~50x cheaper.
TELEMETRY_EPOCHS = {"stepped": 64, "macro": 3072}


def _sim_once(engine, sink):
    from repro.core.policies import make_policy
    from repro.gpu.kernel import KernelLaunch
    from repro.gpu.simulator import SystemSimulator
    from repro.hmc.config import HMC_2_0
    from repro.hmc.flow import HmcFlowModel
    from repro.sim.trace import OpBatch, TraceCursor
    from repro.telemetry.live import run_telemetry
    from repro.thermal.cooling import COMMODITY_SERVER
    from repro.thermal.model import HmcThermalModel
    from repro.thermal.sensor import ThermalSensor

    launch = KernelLaunch(
        name="telemetry-bench",
        trace=TraceCursor([
            OpBatch(reads=120_000, writes=60_000, atomics=250_000,
                    compute_cycles=15_000, threads=4096, label=f"e{i}")
            for i in range(TELEMETRY_EPOCHS[engine])
        ]),
        total_threads=4096,
    )
    sim = SystemSimulator(
        flow=HmcFlowModel(HMC_2_0),
        thermal=HmcThermalModel(HMC_2_0, cooling=COMMODITY_SERVER),
        sensor=ThermalSensor(),
        engine=engine,
    )
    policy = make_policy("coolpim-hw")
    # As timeit does: no cyclic GC pass inside the timed region, where a
    # full collection would add ~15 ms to whichever variant it lands in.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        if sink is not None:
            with run_telemetry(sink):
                sim.run(launch, policy)
        else:
            sim.run(launch, policy)
        return time.perf_counter() - t0
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ["stepped", "macro"])
def test_telemetry_enabled_overhead_below_5_percent(engine):
    from repro.telemetry.live import RunTelemetrySink

    def make_sink():
        return RunTelemetrySink(emit=lambda s: None, max_samples=64)

    _sim_once(engine, None)  # warm-up
    _sim_once(engine, make_sink())
    enabled, disabled = [], []
    for i in range(TELEMETRY_ROUNDS):
        # Alternate which variant runs first, so neither systematically
        # inherits the other's cache or scheduler state.
        if i % 2:
            disabled.append(_sim_once(engine, None))
        enabled.append(_sim_once(engine, make_sink()))
        if not i % 2:
            disabled.append(_sim_once(engine, None))
    pairs = list(zip(enabled, disabled))
    overhead = statistics.median(on / off for on, off in pairs) - 1.0
    excess = statistics.median(
        on - off * (1 + OVERHEAD_LIMIT) for on, off in pairs
    )
    print(
        f"\n  {engine}: telemetry on {statistics.median(enabled) * 1e3:.2f} ms, "
        f"off {statistics.median(disabled) * 1e3:.2f} ms, "
        f"paired overhead {overhead * 100:+.2f}%"
    )
    assert excess < TELEMETRY_ABS_EPS_S, (
        f"{engine}: telemetry-enabled control loop is "
        f"{overhead * 100:.1f}% slower than disabled "
        f"(budget {OVERHEAD_LIMIT * 100:.0f}%)"
    )
