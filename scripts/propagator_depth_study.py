#!/usr/bin/env python
"""Krylov chain-depth study for the reduced thermal propagator.

For each candidate ``CHAIN_DEPTH`` of :mod:`repro.thermal.propagator`
this script rebuilds every propagator from scratch and reports:

- ``rank`` and ``build_s`` — the median seconds of one 25 µs-quantum
  propagator build over the four Table II coolings (network and step LU
  prewarmed, so only the basis build is timed);
- basis extensions (calls of ``ReducedPropagator._extend``) over
  in-process replicas of the benchmark workloads: the control loop
  (dc/kcore/pagerank × 5 policies × 4 coolings × full+quick on
  ``ldbc``), the quick experiment sweep (all 17 experiments), the
  Fig. 10 sweep (10 workloads × 5 policies, ``ldbc``, scale 0.1) and the
  two scenario smoke runs (macro and stepped engines);
- the control loop's control-step count and steps per second of run
  wall time;
- the largest |macro − stepped| °C over the hot launches of the engine
  equivalence suite (peak and every timeline sample), and the largest
  change of the macro temperatures against the deepest chain studied —
  the part of the deviation the depth itself accounts for.

The depth the module ships with is the smallest one with zero
extensions and a deviation no larger than the deepest chain's, up to
the spread the rounding floor shows across depths; results must also
match the committed benchmark digests, which this script does not check
(run ``perfbench/run.py`` against a copy of the tree with the constant
changed).

Usage: PYTHONPATH=src python scripts/propagator_depth_study.py \\
           [--depths 12,16,24,32,48] [--seed 1]
"""

import argparse
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import statistics  # noqa: E402
import time  # noqa: E402

from repro.core.coolpim import CoolPimSystem  # noqa: E402
from repro.core.policies import make_policy  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.experiments.common import RunScale, apply_workload_scale  # noqa: E402
from repro.gpu.kernel import KernelLaunch  # noqa: E402
from repro.gpu.simulator import SystemSimulator  # noqa: E402
from repro.graph.datasets import get_dataset  # noqa: E402
from repro.hmc.config import HMC_2_0  # noqa: E402
from repro.hmc.dram_timing import TemperaturePhasePolicy  # noqa: E402
from repro.hmc.flow import HmcFlowModel  # noqa: E402
from repro.scenarios import make_scenario  # noqa: E402
from repro.service.handlers import run_simulation_job, simulation_spec  # noqa: E402
from repro.sim.trace import OpBatch, TraceCursor  # noqa: E402
from repro.thermal import operators, propagator  # noqa: E402
from repro.thermal.cooling import (  # noqa: E402
    COOLING_SOLUTIONS,
    LOW_END_ACTIVE,
    PASSIVE,
)
from repro.thermal.model import HmcThermalModel  # noqa: E402
from repro.thermal.sensor import ThermalSensor  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

CONTROL_WORKLOADS = ("dc", "kcore", "pagerank")
FIG10_WORKLOADS = (
    "dc", "bfs-ta", "bfs-dwc", "bfs-ttc", "bfs-twc", "kcore", "pagerank",
    "sssp-dtc", "sssp-dwc", "sssp-twc",
)
POLICIES = (
    "non-offloading", "naive-offloading", "coolpim-sw", "coolpim-hw",
    "ideal-thermal",
)
COOLINGS = ("passive", "low-end", "commodity", "high-end")
LENGTHS = (1.0, 0.25)


class ExtensionCounter:
    """Counts ``ReducedPropagator._extend`` calls while installed."""

    def __init__(self):
        self.calls = 0
        extend = propagator.ReducedPropagator._extend
        counter = self

        def counted(prop, x):
            counter.calls += 1
            return extend(prop, x)

        propagator.ReducedPropagator._extend = counted

    def take(self) -> int:
        calls, self.calls = self.calls, 0
        return calls


def build_seconds(reps: int = 3):
    times, rank = [], None
    for _ in range(reps):
        for name in COOLINGS:
            model = HmcThermalModel(cooling=COOLING_SOLUTIONS[name])
            model._basis()
            ops = operators.get_operators(model.config, model.cooling)
            ops.step_lu()
            ops.propagators.clear()
            t0 = time.perf_counter()
            prop = model.propagator()
            times.append(time.perf_counter() - t0)
            rank = prop.rank
    return statistics.median(times), rank


def control_loop(seed: int):
    graph = get_dataset("ldbc")
    systems = {c: CoolPimSystem(cooling=COOLING_SOLUTIONS[c]) for c in COOLINGS}
    for system in systems.values():
        for w in CONTROL_WORKLOADS:
            system.run(get_workload(w, seed=seed), graph, "non-offloading")
    steps, busy = 0, 0.0
    for w in CONTROL_WORKLOADS:
        for p in POLICIES:
            for c in COOLINGS:
                for length in LENGTHS:
                    workload = apply_workload_scale(
                        get_workload(w, seed=seed), length
                    )
                    t0 = time.perf_counter()
                    systems[c].run(workload, graph, p)
                    busy += time.perf_counter() - t0
                    steps += systems[c].last_stats.scoped("sim").counter(
                        "control_steps"
                    ).value
    return steps, steps / busy


def quick_experiments(seed: int) -> None:
    scale = RunScale.quick(seed=seed)
    for name in runner.experiment_catalog(scale):
        runner.run_experiment(name, scale)


def fig10_sweep(seed: int) -> None:
    for w in FIG10_WORKLOADS:
        for p in POLICIES:
            run_simulation_job(simulation_spec(
                w, policy=p, dataset="ldbc", workload_scale=0.1, seed=seed,
            ))


def scenario_runs() -> None:
    graph = get_dataset("ldbc-tiny")
    for engine in ("macro", "stepped"):
        system = CoolPimSystem(
            cooling=COOLING_SOLUTIONS["low-end"], engine=engine
        )
        for policy, scenario in (
            ("naive-offloading", "degraded-cooling"),
            ("coolpim-hw", "sensor-dropout"),
        ):
            system.run(get_workload("kcore", seed=0), graph, policy,
                       scenario=make_scenario(scenario, seed=0))


def hot_launch_temps(engine: str):
    """Peak and timeline temperatures (°C) of the equivalence suite's hot
    launches (warning band, shutdown/recovery, conservative shutdown)."""

    def hot_launch(n_epochs):
        return KernelLaunch(name="eq", total_threads=4096, trace=TraceCursor([
            OpBatch(reads=150_000, writes=80_000, atomics=400_000,
                    compute_cycles=20_000, threads=4096, label=f"e{i}")
            for i in range(n_epochs)
        ]))

    cases = [
        ("coolpim-sw", LOW_END_ACTIVE, 10, None),
        ("coolpim-hw", LOW_END_ACTIVE, 10, None),
        ("naive-offloading", PASSIVE, 6, None),
        ("coolpim-sw", PASSIVE, 6, None),
        ("naive-offloading", PASSIVE, 6,
         TemperaturePhasePolicy(conservative_shutdown=True)),
    ]
    temps = []
    for policy, cooling, n_epochs, phase_policy in cases:
        sim = SystemSimulator(
            flow=HmcFlowModel(HMC_2_0, phase_policy=phase_policy),
            thermal=HmcThermalModel(HMC_2_0, cooling=cooling),
            sensor=ThermalSensor(),
            engine=engine,
        )
        result = sim.run(hot_launch(n_epochs), make_policy(policy))
        temps.append(result.peak_dram_temp_c)
        temps.extend(point[1] for point in result.timeline)
    return temps


def max_gap(a, b) -> float:
    if len(a) != len(b):
        raise RuntimeError("runs disagree on the timeline grid")
    return max(abs(x - y) for x, y in zip(a, b))


def set_depth(depth: int) -> None:
    propagator.CHAIN_DEPTH = depth
    operators.clear_cache()


def study(depth: int, seed: int, counter: ExtensionCounter,
          stepped, reference) -> dict:
    set_depth(depth)
    row = {"depth": depth}
    row["build_s"], row["rank"] = build_seconds()
    counter.take()
    for name, run in (
        ("control", lambda: control_loop(seed)),
        ("batch", lambda: quick_experiments(seed)),
        ("sweep", lambda: fig10_sweep(seed)),
        ("scenario", scenario_runs),
    ):
        operators.clear_cache()
        out = run()
        if name == "control":
            row["sim_steps"], row["steps_per_s"] = out
        row[f"ext_{name}"] = counter.take()
    operators.clear_cache()
    macro = hot_launch_temps("macro")
    row["deviation_c"] = max_gap(macro, stepped)
    row["drift_c"] = max_gap(macro, reference)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--depths", default="12,16,24,32,48")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    depths = [int(d) for d in args.depths.split(",")]
    counter = ExtensionCounter()
    stepped = hot_launch_temps("stepped")
    set_depth(max(depths))
    reference = hot_launch_temps("macro")
    print("| depth | rank | build s | ext. control | ext. batch | ext. sweep "
          "| ext. scenario | control steps | steps/s "
          "| max macro−stepped °C | max macro−macro@deepest °C |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for depth in depths:
        r = study(depth, args.seed, counter, stepped, reference)
        print(f"| {r['depth']} | {r['rank']} | {r['build_s']:.3f} "
              f"| {r['ext_control']} | {r['ext_batch']} | {r['ext_sweep']} "
              f"| {r['ext_scenario']} | {int(r['sim_steps'])} "
              f"| {r['steps_per_s']:,.0f} | {r['deviation_c']:.2e} "
              f"| {r['drift_c']:.1e} |",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
