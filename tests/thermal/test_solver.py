"""Thermal solvers: steady-state physics, transient convergence."""

import numpy as np
import pytest

from repro.hmc.config import HMC_2_0
from repro.thermal import operators
from repro.thermal.cooling import COMMODITY_SERVER
from repro.thermal.floorplan import Floorplan
from repro.thermal.rc_network import build_network
from repro.thermal.solver import SteadySolver, TransientSolver, factorize_step
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
        P[sl] = 10.0 / network.floorplan.num_cells
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
        P[network.layer_slice(0)] = 20.0 / network.floorplan.num_cells
        steady = SteadySolver(network).solve(P)
        trans = TransientSolver(network, 1e-3)
        for _ in range(500):
            trans.step(P)
        assert np.allclose(trans.T, steady, atol=0.5)

    def test_monotone_warmup(self, network):
        P = np.full(network.num_nodes, 0.01)
        trans = TransientSolver(network, 1e-3)
        peaks = []
        for _ in range(10):
            trans.step(P)
            peaks.append(trans.T.max())
        assert all(a <= b + 1e-9 for a, b in zip(peaks, peaks[1:]))

    def test_cooldown_returns_to_ambient(self, network):
        trans = TransientSolver(network, 1e-3, ambient_c=25.0, initial_c=90.0)
        P = np.zeros(network.num_nodes)
        for _ in range(1000):
            trans.step(P)
        assert np.allclose(trans.T, 25.0, atol=0.5)

    def test_stability_with_large_steps(self, network):
        # Implicit Euler must not blow up even with dt >> tau.
        P = np.full(network.num_nodes, 0.05)
        trans = TransientSolver(network, 1.0)
        for _ in range(10):
            trans.step(P)
        assert np.isfinite(trans.T).all()
        assert trans.T.max() < 500.0

    def test_lu_cache_reused(self, network):
        # One factorization, built on the first step and reused after.
        built = []

        def factorize():
            built.append(factorize_step(network, 1e-3))
            return built[-1]

        trans = TransientSolver(network, 1e-3, lu=factorize)
        assert built == []
        P = np.zeros(network.num_nodes)
        for _ in range(3):
            trans.step(P)
        assert len(built) == 1

    def test_set_state_shape_checked(self, network):
        trans = TransientSolver(network, 1e-3)
        with pytest.raises(ValueError):
            trans.set_state(np.zeros(3))

    def test_step_shape_checked(self, network):
        trans = TransientSolver(network, 1e-3)
        with pytest.raises(ValueError):
            trans.step(np.zeros(3))

    def test_dt_validation(self, network):
        for dt_s in (0.0, -1e-3):
            with pytest.raises(ValueError):
                TransientSolver(network, dt_s)


class TestStepLuCache:
    """The operator bundle's step LU: one factorization of the control
    quantum, built on first use and shared by every solver over the
    package."""

    @pytest.fixture
    def ops(self, monkeypatch):
        operators.clear_cache()
        ops = operators.get_operators(HMC_2_0, COMMODITY_SERVER)
        ops.factorizations = 0

        def counted(network, dt_s):
            ops.factorizations += 1
            return factorize_step(network, dt_s)

        monkeypatch.setattr(operators, "factorize_step", counted)
        yield ops
        operators.clear_cache()

    def _solver(self, ops):
        return TransientSolver(ops.network, operators.CONTROL_DT_S,
                               lu=ops.step_lu)

    def test_shared_cache_factorizes_once_across_solvers(self, ops):
        a, b = self._solver(ops), self._solver(ops)
        P = np.zeros(ops.network.num_nodes)
        a.step(P)
        b.step(P)
        assert ops.factorizations == 1
        assert a._lu is b._lu

    def test_cache_is_bounded(self, ops):
        # A bundle holds one LU however many solvers step on it.
        P = np.zeros(ops.network.num_nodes)
        for _ in range(20):
            self._solver(ops).step(P)
        assert ops.factorizations == 1
        assert operators.cache_stats()["step_lus"] == 1

    def test_shared_cache_requires_same_network(self, network):
        other = build_network(
            build_stack(HMC_2_0), Floorplan.for_config(HMC_2_0, sub=1),
            sink_resistance_c_w=0.5,
        )
        trans = TransientSolver(network, 1e-3,
                                lu=lambda: factorize_step(other, 1e-3))
        with pytest.raises(ValueError):
            trans.step(np.zeros(network.num_nodes))
