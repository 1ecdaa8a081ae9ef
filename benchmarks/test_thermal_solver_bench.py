"""Thermal solver performance: the co-simulation's inner loop.

Also guards the tentpole wins of the vectorized assembly rewrite:
``test_network_assembly_vectorized_speedup`` asserts the numpy assembly
beats the per-cell loop reference by >=5x, and the shared-operator
benchmarks show warm model construction skipping assembly entirely.
"""

import time

import numpy as np

from repro.hmc.config import HMC_2_0
from repro.thermal import operators
from repro.thermal.floorplan import Floorplan
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint
from repro.thermal.rc_network import build_network, build_network_reference
from repro.thermal.stack import build_stack


def test_steady_solve_speed(benchmark):
    model = HmcThermalModel()
    t = TrafficPoint.streaming(320.0)
    temp = benchmark(model.steady_peak_dram_c, t)
    assert 80.0 < temp < 82.0


def test_transient_step_speed(benchmark):
    """One 25 µs control-quantum step — executed hundreds of times per
    simulated run; must stay well under a millisecond of wall time."""
    model = HmcThermalModel()
    model.warm_start(TrafficPoint.streaming(240.0))
    t = TrafficPoint.pim_saturated(3.0)

    result = benchmark(model.step, t)
    assert np.isfinite(result)


def test_network_assembly_speed(benchmark):
    """Cold vectorized assembly of the full HMC 2.0 network."""
    stack = build_stack(HMC_2_0)
    fp = Floorplan.for_config(HMC_2_0, sub=2)
    net = benchmark(build_network, stack, fp, 0.5)
    assert net.num_nodes > 0


def test_network_assembly_vectorized_speedup(benchmark):
    """The vectorized assembly must beat the loop reference by >=5x."""
    stack = build_stack(HMC_2_0)
    fp = Floorplan.for_config(HMC_2_0, sub=4)
    reps = 3

    def best_of(fn) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(stack, fp, 0.5)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_ref = best_of(build_network_reference)
    t_vec = benchmark(best_of, build_network)
    speedup = t_ref / t_vec
    assert speedup >= 5.0, f"vectorized assembly only {speedup:.1f}x faster"


def test_warm_model_construction_speed(benchmark):
    """Model construction with a warm operator cache: no assembly, no LU.

    This is what every job after the first pays inside a sweep worker —
    it must be orders of magnitude cheaper than the cold build.
    """
    operators.clear_cache()
    HmcThermalModel()  # populate the cache

    model = benchmark(HmcThermalModel)
    assert model.network.num_nodes > 0
    assert operators.cache_stats()["misses"] == 1
