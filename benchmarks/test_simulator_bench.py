"""System co-simulator throughput: macro engine vs the stepped oracle.

Guards the tentpole win of the macro-stepping engine
(:mod:`repro.gpu.macro`) on a Fig. 10-style configuration — the pagerank
workload on the LDBC graph swept across the paper's policy matrix:

- ``test_macro_engine_speedup`` pins the macro engine at >=5x the stepped
  oracle across the policy sweep (interleaved best-of-N minima, so
  machine speed cancels), while holding every timed pair of runs to the
  engine contract (``tests.engines.assert_engines_agree``).
- ``test_macro_steps_per_second_budget`` holds an absolute control-steps
  per second floor so the fast path cannot silently regress toward the
  oracle's throughput even if both get slower together.

Each run's measurements are appended to ``BENCH_simulator.json`` (written
to the working directory), giving CI a machine-readable trajectory of the
per-policy speedups. The artifact also records, ungated, the layers of
the macro engine's control loop: ``serve_quantum_us``, the median
microseconds of one ``SteppedEngine._serve_quantum`` call (one step-memo
miss) over a fixed key set; and, over one macro sweep of the launch,
``step_memo_hit_ratio``, the share of speculated quanta served from the
memo, ``burst_us``, the median microseconds of one
``MacroEngine._try_burst`` call, and ``epoch_rows_built``, the epoch rows
that sweep built (0: the launch's earlier runs built them all). Over one
macro run of a throttling configuration (full-scale ``bfs-twc`` under
``coolpim-hw``, where HW-DynT's warnings force scalar steps) it records
``exact_solves``, the ``HmcThermalModel.step`` calls (sparse LU solves)
of the run, and ``march_us_per_substep``, the microseconds of
``ReducedPropagator.march`` per marched thermal substep.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.core.coolpim import CoolPimSystem
from repro.core.policies import make_policy
from repro.experiments.common import RunScale, scaled_workload
from repro.gpu.config import GPU_DEFAULT
from repro.gpu import simulator
from repro.gpu.macro import MacroEngine
from repro.gpu.simulator import SteppedEngine, SystemSimulator
from repro.graph.datasets import get_dataset
from repro.hmc.config import HMC_2_0
from repro.hmc.flow import HmcFlowModel
from repro.thermal.model import HmcThermalModel
from repro.thermal.propagator import ReducedPropagator
from repro.thermal.sensor import ThermalSensor
from repro.workloads.registry import get_workload
from tests.engines import Run, assert_engines_agree

#: The Fig. 10 policy matrix (thermally active configs carry the guard;
#: ideal-thermal runs too few quanta to time meaningfully).
POLICIES = [
    "non-offloading",
    "naive-offloading",
    "coolpim-sw",
    "coolpim-hw",
]

SPEEDUP_FLOOR = 5.0

#: Absolute budget: committed control quanta per wall-clock second across
#: the sweep. The stepped oracle manages ~2k/s on a development machine;
#: the macro engine ~15k/s. The floor leaves ~3x headroom for slow CI
#: hosts while still catching a fast path that decays toward the oracle.
MACRO_STEPS_PER_S_FLOOR = 5_000.0

ARTIFACT = Path("BENCH_simulator.json")


@pytest.fixture(scope="module")
def fig10_setup():
    """Prebuilt launch + warmed thermal caches, shared by every run.

    Trace generation and the one-time thermal operator/propagator
    assembly would otherwise dominate the short macro runs and hide the
    engine ratio being guarded.
    """
    graph = get_dataset("ldbc")
    workload = get_workload("pagerank", seed=0)
    launch = workload.launch(graph, GPU_DEFAULT)
    thermal = HmcThermalModel(HMC_2_0)
    cache = workload.cache_model(GPU_DEFAULT)

    def build(engine):
        return SystemSimulator(
            cache=cache,
            flow=HmcFlowModel(HMC_2_0),
            thermal=thermal,
            sensor=ThermalSensor(),
            engine=engine,
        )

    # Warm-up: populates the shared step-LU and reduced-propagator caches.
    build("macro").run(launch, make_policy("naive-offloading"))
    return launch, build


def _timed_run(build, launch, engine, policy):
    sim = build(engine)
    t0 = time.perf_counter()
    result = sim.run(launch, make_policy(policy))
    elapsed = time.perf_counter() - t0
    steps = sim.stats.snapshot()["sim.control_steps"]
    return elapsed, Run(result, sim), steps


def _sweep(build, launch, reps=3):
    """Interleaved best-of-``reps`` sweep; returns per-policy rows."""
    rows = {
        p: {"stepped_s": [], "macro_s": [], "steps": 0.0} for p in POLICIES
    }
    for _ in range(reps):
        for policy in POLICIES:
            row = rows[policy]
            t_s, r_s, _ = _timed_run(build, launch, "stepped", policy)
            t_m, r_m, steps = _timed_run(build, launch, "macro", policy)
            row["stepped_s"].append(t_s)
            row["macro_s"].append(t_m)
            row["steps"] = steps
            assert_engines_agree(r_s, r_m)
    return {
        p: {
            "stepped_s": min(v["stepped_s"]),
            "macro_s": min(v["macro_s"]),
            "speedup": min(v["stepped_s"]) / min(v["macro_s"]),
            "control_steps": v["steps"],
        }
        for p, v in rows.items()
    }


#: The fixed key set of ``serve_quantum_us``: each of the first
#: ``SERVE_EPOCHS`` epochs of the launch, fresh, at these offload
#: fractions, at nominal capacities and energy scale.
SERVE_EPOCHS = 64
SERVE_FRACTIONS = (0.0, 0.5, 1.0)
SERVE_REPS = 30


def _serve_quantum_us(build, launch):
    """Median microseconds per ``_serve_quantum`` call (one memo miss)."""
    engine = SteppedEngine(build("stepped"))
    sim = engine.sim
    caps = sim.flow.capacities()
    keys = []
    for batch in list(launch.trace)[:SERVE_EPOCHS]:
        (*fluid, (reads, writes, atomics, _), mlp,
         divergence) = engine._row_of(batch)
        for fraction in SERVE_FRACTIONS:
            keys.append((
                *fluid, reads, writes, atomics, 0.0,
                mlp, divergence, fraction, *caps, 1.0,
            ))
    serve = engine._serve_quantum
    per_call = []
    for _ in range(SERVE_REPS):
        t0 = time.perf_counter()
        for key in keys:
            serve(key)
        per_call.append((time.perf_counter() - t0) / len(keys) * 1e6)
    return statistics.median(per_call)


def _macro_layers(build, launch, monkeypatch):
    """One macro sweep of :data:`POLICIES`: the step-memo hit ratio, the
    median microseconds per ``_try_burst`` and the epoch rows built."""
    tally = {"hits": 0, "speculated": 0, "rows": 0}
    burst_us = []
    speculate = MacroEngine._speculate
    try_burst = MacroEngine._try_burst
    epoch_row = simulator.epoch_row

    def counted(self, b):
        speculate(self, b)
        tally["hits"] += b.memo_hits
        tally["speculated"] += len(b.steps)

    def timed(self):
        t0 = time.perf_counter()
        committed = try_burst(self)
        burst_us.append((time.perf_counter() - t0) * 1e6)
        return committed

    def row(*args):
        tally["rows"] += 1
        return epoch_row(*args)

    with monkeypatch.context() as m:
        m.setattr(MacroEngine, "_speculate", counted)
        m.setattr(MacroEngine, "_try_burst", timed)
        m.setattr(simulator, "epoch_row", row)
        for policy in POLICIES:
            _timed_run(build, launch, "macro", policy)
    return {
        "step_memo_hit_ratio": tally["hits"] / max(1, tally["speculated"]),
        "burst_us": statistics.median(burst_us),
        "epoch_rows_built": tally["rows"],
    }


#: The throttling run of the thermal-layer values.
THROTTLE_RUN = ("bfs-twc", "coolpim-hw")


def _thermal_layers(monkeypatch):
    """Exact thermal solves and march microseconds per substep in one
    macro run of :data:`THROTTLE_RUN` (after a warm-up run that builds
    its trace, operators and propagator)."""
    name, policy = THROTTLE_RUN
    scale = RunScale.full()
    graph = get_dataset(scale.dataset)
    workload = scaled_workload(name, scale)
    system = CoolPimSystem()
    system.run(workload, graph, policy)
    tally = {"solves": 0, "march_s": 0.0, "substeps": 0}
    step = HmcThermalModel.step
    march = ReducedPropagator.march

    def counted(self, *args, **kwargs):
        tally["solves"] += 1
        return step(self, *args, **kwargs)

    def timed(self, z0, coeffs):
        t0 = time.perf_counter()
        Z = march(self, z0, coeffs)
        tally["march_s"] += time.perf_counter() - t0
        tally["substeps"] += coeffs.shape[1]
        return Z

    with monkeypatch.context() as m:
        m.setattr(HmcThermalModel, "step", counted)
        m.setattr(ReducedPropagator, "march", timed)
        system.run(workload, graph, policy)
    return {
        "exact_solves": tally["solves"],
        "march_us_per_substep": (
            tally["march_s"] / max(1, tally["substeps"]) * 1e6
        ),
    }


def _emit(rows, aggregate_speedup, macro_steps_per_s, serve_us, layers):
    payload = {
        "benchmark": "simulator_macro_vs_stepped",
        "config": {"workload": "pagerank", "dataset": "ldbc",
                   "policies": POLICIES},
        "aggregate_speedup": aggregate_speedup,
        "macro_steps_per_s": macro_steps_per_s,
        "serve_quantum_us": serve_us,
        **layers,
        "policies": rows,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def test_macro_engine_speedup(benchmark, fig10_setup, monkeypatch):
    """Macro >=5x the stepped oracle across the Fig. 10 policy sweep."""
    launch, build = fig10_setup
    rows = _sweep(build, launch)

    stepped_total = sum(r["stepped_s"] for r in rows.values())
    macro_total = sum(r["macro_s"] for r in rows.values())
    aggregate = stepped_total / macro_total
    total_steps = sum(r["control_steps"] for r in rows.values())
    steps_per_s = total_steps / macro_total
    _emit(rows, aggregate, steps_per_s, _serve_quantum_us(build, launch),
          {**_macro_layers(build, launch, monkeypatch),
           **_thermal_layers(monkeypatch)})

    # Anchor the pytest-benchmark table to the macro sweep itself.
    benchmark(lambda: [
        _timed_run(build, launch, "macro", p) for p in POLICIES
    ])

    per_policy = ", ".join(
        f"{p}={r['speedup']:.1f}x" for p, r in rows.items()
    )
    assert aggregate >= SPEEDUP_FLOOR, (
        f"macro engine only {aggregate:.1f}x faster over the Fig. 10 sweep "
        f"({per_policy})"
    )
    # Every thermally-coupled policy must individually benefit; the
    # warning-band configs commit shorter bursts, so their floor is lower.
    for policy, row in rows.items():
        assert row["speedup"] >= 2.0, (
            f"{policy}: macro only {row['speedup']:.1f}x"
        )


def test_macro_steps_per_second_budget(fig10_setup):
    """Absolute throughput floor for the macro engine."""
    launch, build = fig10_setup
    best = {p: 1e9 for p in POLICIES}
    steps = {}
    for _ in range(3):
        for policy in POLICIES:
            t_m, _, n = _timed_run(build, launch, "macro", policy)
            best[policy] = min(best[policy], t_m)
            steps[policy] = n
    rate = sum(steps.values()) / sum(best.values())
    assert rate >= MACRO_STEPS_PER_S_FLOOR, (
        f"macro engine at {rate:.0f} control steps/s "
        f"(floor {MACRO_STEPS_PER_S_FLOOR:.0f})"
    )
