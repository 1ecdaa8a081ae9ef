"""Drift guard: per-run ``sim.*`` counters and their ``/metrics`` series.

Every per-run ``sim.<name>`` counter is summed into
``repro_sim_<name>_total{engine}`` under one naming rule
(:func:`repro.telemetry.registry.counter_series`). After several runs
in one process, and again after a pooled sweep whose workers ship their
series back through the scheduler's delta pipe, each series must equal
the sum of the runs' counters, and the exposition must parse.
"""

import multiprocessing

import pytest

from repro.gpu.simulator import RUN_COUNTERS
from repro.service import JobScheduler, simulation_spec
from repro.telemetry import parse_exposition, render_exposition
from repro.telemetry.registry import (
    TelemetryRegistry,
    counter_series,
    set_registry,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the delta pipe runs on a forked pool",
)

RUNS = [
    ("kcore", "non-offloading", "stepped"),
    ("kcore", "coolpim-hw", "macro"),
    ("dc", "naive-offloading", "macro"),
    ("dc", "coolpim-sw", "stepped"),
]


@pytest.fixture
def registry():
    reg = TelemetryRegistry()
    previous = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)


def _specs(seed):
    return [
        simulation_spec(workload, dataset="ldbc-tiny", policy=policy,
                        engine=engine, seed=seed, workload_scale=0.25)
        for workload, policy, engine in RUNS
    ]


def _expected(sweeps):
    """Series → summed per-run counters, from the runs' own payloads."""
    want = {}
    for specs, report in sweeps:
        for spec in specs:
            engine = spec.params.get("engine", "macro")
            runs = ("repro_sim_runs_total", engine)
            want[runs] = want.get(runs, 0.0) + 1.0
            for name, stat in report.result_for(spec).payload["metrics"].items():
                if stat["type"] == "counter":
                    key = (counter_series(name), engine)
                    want[key] = want.get(key, 0.0) + stat["value"]
    return want


def _scraped(reg):
    doc = parse_exposition(render_exposition(reg))
    return {
        (name, labels["engine"]): value
        for name, labels, value in doc["samples"]
        if name.startswith("repro_sim_") and name.endswith("_total")
    }


def _assert_no_drift(reg, sweeps):
    want = _expected(sweeps)
    assert {counter_series(f"sim.{n}") for n in RUN_COUNTERS} <= {
        series for series, _ in want
    }
    assert _scraped(reg) == want


class TestSimSeries:
    def test_in_process_runs(self, registry):
        sweeps = []
        for seed in (0, 1):
            specs = _specs(seed)
            report = JobScheduler(serial=True).run(specs)
            assert report.ok
            sweeps.append((specs, report))
        _assert_no_drift(registry, sweeps)

    @needs_fork
    def test_pooled_sweep_after_in_process_runs(self, registry):
        serial_specs = _specs(0)
        serial = JobScheduler(serial=True).run(serial_specs)
        pooled_specs = _specs(1)
        pooled = JobScheduler(max_workers=2).run(pooled_specs)
        assert serial.ok and pooled.ok
        _assert_no_drift(
            registry, [(serial_specs, serial), (pooled_specs, pooled)]
        )
