"""Live-telemetry overhead guard.

A run sink attached to the control loop must cost the simulation engines
less than 5 % of their telemetry-disabled time. (The disabled tracer's
cost, one ``enabled`` test per emit and a shared ``NULL_SPAN``, is pinned
by ``tests/obs/test_tracer.py::TestDisabledTracer``.)
"""

import gc
import statistics
import time

import pytest

OVERHEAD_LIMIT = 0.05


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
    from repro.sim.trace import OpBatch
    from repro.telemetry.live import run_telemetry
    from tests.engines import build_sim, make_launch

    launch = make_launch([
        OpBatch(reads=120_000, writes=60_000, atomics=250_000,
                compute_cycles=15_000, threads=4096, label=f"e{i}")
        for i in range(TELEMETRY_EPOCHS[engine])
    ], name="telemetry-bench")
    sim = build_sim(engine)
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
