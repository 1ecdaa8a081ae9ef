"""Reduced thermal propagator build time, in absolute seconds.

Every process that simulates a control loop builds one
:class:`~repro.thermal.propagator.ReducedPropagator` per cooling
solution: the block-Krylov basis growth (sparse LU solves and
orthonormalization) and the reduced eigendecomposition. This benchmark
times that build for the 25 µs control quantum under each Table II
cooling solution, with the operators (network, step LU) and the power
basis prewarmed so only the basis build is measured, and takes the
median of ``REPEATS`` builds per cooling.

``test_propagator_build_time`` writes ``BENCH_thermal_build.json`` (in the
working directory) with per-cooling seconds and ranks;
``benchmarks/baselines.json`` registers the absolute ``build_s`` (the
median over coolings) for the ``repro bench-trend`` gate.
"""

import json
import statistics
import time
from pathlib import Path

from repro.thermal import operators
from repro.thermal.cooling import COOLING_SOLUTIONS
from repro.thermal.model import HmcThermalModel
from repro.thermal.operators import CONTROL_DT_S
from repro.thermal.propagator import CHAIN_DEPTH

REPEATS = 3

ARTIFACT = Path("BENCH_thermal_build.json")


def test_propagator_build_time():
    rows = {}
    for name, cooling in COOLING_SOLUTIONS.items():
        model = HmcThermalModel(cooling=cooling)
        model._basis()
        ops = operators.prewarm(model.config, cooling)
        times = []
        for _ in range(REPEATS):
            ops.propagators.clear()
            t0 = time.perf_counter()
            prop = model.propagator()
            times.append(time.perf_counter() - t0)
        assert prop.healthy, name
        rows[name] = {"build_s": statistics.median(times), "rank": prop.rank}

    build_s = statistics.median(r["build_s"] for r in rows.values())
    ARTIFACT.write_text(json.dumps({
        "benchmark": "thermal_build",
        "config": {"control_dt_s": CONTROL_DT_S, "chain_depth": CHAIN_DEPTH,
                   "repeats": REPEATS},
        "build_s": build_s,
        "coolings": rows,
    }, indent=2) + "\n")
    # Seven seeds per chain block: six forcing inputs and the uniform
    # temperature direction.
    for name, row in rows.items():
        assert 0 < row["rank"] <= 7 * CHAIN_DEPTH, (name, row)
