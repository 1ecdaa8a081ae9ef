"""Thermal solvers: steady-state physics, transient convergence."""

import numpy as np
import pytest

from repro.hmc.config import HMC_2_0
from repro.thermal.floorplan import Floorplan
from repro.thermal.rc_network import build_network
from repro.thermal.solver import (
    StepLuCache,
    SteadySolver,
    TransientSolver,
    _dt_key,
)
from repro.thermal.stack import build_stack


@pytest.fixture(scope="module")
def network():
    return build_network(
        build_stack(HMC_2_0), Floorplan.for_config(HMC_2_0, sub=2),
        sink_resistance_c_w=0.5,
    )


class TestSteady:
    def test_zero_power_is_ambient(self, network):
        solver = SteadySolver(network, ambient_c=25.0)
        T = solver.solve(np.zeros(network.num_nodes))
        assert np.allclose(T, 25.0)

    def test_power_raises_temperature(self, network):
        solver = SteadySolver(network)
        P = np.zeros(network.num_nodes)
        P[network.node(0, 0, 0)] = 5.0
        T = solver.solve(P)
        assert T.min() > 25.0
        assert T[network.node(0, 0, 0)] == T.max()

    def test_linearity_in_power(self, network):
        solver = SteadySolver(network, ambient_c=0.0)
        P = np.random.default_rng(0).random(network.num_nodes)
        T1 = solver.solve(P)
        T2 = solver.solve(2 * P)
        assert np.allclose(T2, 2 * T1)

    def test_heat_flows_toward_sink(self, network):
        # Power at the bottom: temperature decreases monotonically upward.
        solver = SteadySolver(network)
        P = np.zeros(network.num_nodes)
        sl = network.layer_slice(0)
        P[sl] = 10.0 / network.cells_per_layer
        T = solver.solve(P)
        layer_means = [
            network.layer_temps(T, l).mean() for l in range(network.stack.num_layers)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(layer_means, layer_means[1:]))

    def test_shape_checked(self, network):
        solver = SteadySolver(network)
        with pytest.raises(ValueError):
            solver.solve(np.zeros(3))


class TestTransient:
    def test_converges_to_steady_state(self, network):
        P = np.zeros(network.num_nodes)
        P[network.layer_slice(0)] = 20.0 / network.cells_per_layer
        steady = SteadySolver(network).solve(P)
        trans = TransientSolver(network)
        trans.run(P, duration_s=0.5, dt_s=1e-3)
        assert np.allclose(trans.T, steady, atol=0.5)

    def test_monotone_warmup(self, network):
        P = np.full(network.num_nodes, 0.01)
        trans = TransientSolver(network)
        peaks = []
        for _ in range(10):
            trans.step(P, 1e-3)
            peaks.append(trans.T.max())
        assert all(a <= b + 1e-9 for a, b in zip(peaks, peaks[1:]))

    def test_cooldown_returns_to_ambient(self, network):
        trans = TransientSolver(network, ambient_c=25.0, initial_c=90.0)
        trans.run(np.zeros(network.num_nodes), duration_s=1.0, dt_s=1e-3)
        assert np.allclose(trans.T, 25.0, atol=0.5)

    def test_stability_with_large_steps(self, network):
        # Implicit Euler must not blow up even with dt >> tau.
        P = np.full(network.num_nodes, 0.05)
        trans = TransientSolver(network)
        trans.run(P, duration_s=10.0, dt_s=1.0)
        assert np.isfinite(trans.T).all()
        assert trans.T.max() < 500.0

    def test_lu_cache_reused(self, network):
        trans = TransientSolver(network)
        P = np.zeros(network.num_nodes)
        trans.step(P, 1e-3)
        trans.step(P, 1e-3)
        trans.step(P, 2e-3)
        assert len(trans._lus) == 2

    def test_run_matches_stepping(self, network):
        P = np.zeros(network.num_nodes)
        P[network.layer_slice(0)] = 20.0 / network.cells_per_layer
        a = TransientSolver(network)
        b = TransientSolver(network)
        a.run(P, duration_s=0.02, dt_s=1e-3)
        for _ in range(20):
            b.step(P, 1e-3)
        assert np.allclose(a.T, b.T, rtol=0, atol=1e-9)

    def test_run_to_steady_converges_and_reports_steps(self, network):
        P = np.zeros(network.num_nodes)
        P[network.layer_slice(0)] = 20.0 / network.cells_per_layer
        steady = SteadySolver(network).solve(P)
        trans = TransientSolver(network)
        T, steps = trans.run_to_steady(P, dt_s=1e-3, tol_c=1e-6)
        assert 0 < steps < 100_000
        assert np.allclose(T, steady, atol=0.05)
        # Already settled: one confirming step suffices.
        _, steps2 = trans.run_to_steady(P, dt_s=1e-3, tol_c=1e-6)
        assert steps2 == 1

    def test_run_to_steady_validates_tol(self, network):
        trans = TransientSolver(network)
        with pytest.raises(ValueError):
            trans.run_to_steady(np.zeros(network.num_nodes), 1e-3, tol_c=0.0)

    def test_set_state_shape_checked(self, network):
        trans = TransientSolver(network)
        with pytest.raises(ValueError):
            trans.set_state(np.zeros(3))

    def test_dt_validation(self, network):
        trans = TransientSolver(network)
        with pytest.raises(ValueError):
            trans.step(np.zeros(network.num_nodes), 0.0)

    def test_dominant_time_constant_ms_scale(self, network):
        # Calibrated to the paper's millisecond feedback dynamics.
        tau = TransientSolver(network).dominant_time_constant_s()
        assert 1e-4 < tau < 0.2


class TestStepLuCache:
    def test_quantized_keys_collapse_float_noise(self, network):
        # Regression: adaptive stepping with dt values differing by float
        # noise used to leak one full LU factorization per distinct float.
        trans = TransientSolver(network)
        P = np.zeros(network.num_nodes)
        base = 1e-3
        for i in range(50):
            trans.step(P, base * (1.0 + i * 1e-13))
        assert len(trans._lus) == 1

    def test_cache_is_bounded(self, network):
        # Regression: the per-dt cache was unbounded.
        cache = StepLuCache(network, max_entries=4)
        trans = TransientSolver(network, lu_cache=cache)
        P = np.zeros(network.num_nodes)
        for i in range(1, 21):
            trans.step(P, i * 1e-3)
        assert len(cache) == 4
        assert cache.misses == 20

    def test_lru_eviction_keeps_recent(self, network):
        cache = StepLuCache(network, max_entries=2)
        cache.get(1e-3)
        cache.get(2e-3)
        cache.get(1e-3)      # refresh 1e-3
        cache.get(3e-3)      # evicts 2e-3
        hits_before = cache.hits
        cache.get(1e-3)
        assert cache.hits == hits_before + 1

    def test_shared_cache_requires_same_network(self, network):
        other = build_network(
            build_stack(HMC_2_0), Floorplan.for_config(HMC_2_0, sub=1),
            sink_resistance_c_w=0.5,
        )
        cache = StepLuCache(other)
        with pytest.raises(ValueError):
            TransientSolver(network, lu_cache=cache)

    def test_shared_cache_factorizes_once_across_solvers(self, network):
        cache = StepLuCache(network)
        a = TransientSolver(network, lu_cache=cache)
        b = TransientSolver(network, lu_cache=cache)
        P = np.zeros(network.num_nodes)
        a.step(P, 1e-3)
        b.step(P, 1e-3)
        assert cache.misses == 1 and cache.hits == 1

    # Keys keep 9 significant digits, so a key bin is 1e-9 (leading
    # digit 9) to 1e-8 (leading digit 1) of the step size wide.
    SIZES = (1e-7, 2.5e-6, 25e-6, 3.3e-5, 1e-3, 9.7e-3, 0.1)

    @pytest.mark.parametrize("dt_s", SIZES)
    def test_sizes_beyond_one_key_bin_get_distinct_lus(self, network, dt_s):
        cache = StepLuCache(network)
        lu = cache.get(dt_s)
        for rel in (1.01e-8, 1e-6, 1e-3):
            assert cache.get(dt_s * (1 + rel)) is not lu
            assert cache.get(dt_s * (1 - rel)) is not lu

    @pytest.mark.parametrize("dt_s", SIZES)
    def test_sizes_within_half_a_bin_share_one_lu(self, network, dt_s):
        cache = StepLuCache(network)
        lu = cache.get(_dt_key(dt_s))
        for rel in (1e-15, 1e-12, 4.9e-10):
            assert cache.get(dt_s * (1 + rel)) is lu
            assert cache.get(dt_s * (1 - rel)) is lu
        assert cache.misses == 1

    def test_shared_lu_is_factorized_within_5e_9_of_every_size(self):
        rng = np.random.default_rng(3)
        for dt_s in 10.0 ** rng.uniform(-7, -1, 2000):
            assert abs(_dt_key(dt_s) - dt_s) <= 5e-9 * dt_s

    def test_max_entries_validated(self, network):
        with pytest.raises(ValueError):
            StepLuCache(network, max_entries=0)
