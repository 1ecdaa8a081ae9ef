"""The symmetric LU path of the thermal solvers: its preconditions, a
differential check against SuperLU's default factorization, and a fill
guard that fails if the ordering silently falls back."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.hmc.config import HMC_2_0
from repro.thermal.cooling import COMMODITY_SERVER, COOLING_SOLUTIONS
from repro.thermal.floorplan import Floorplan
from repro.thermal.operators import CONTROL_DT_S
from repro.thermal.rc_network import build_network
from repro.thermal.solver import SteadySolver, TransientSolver, factorize_step
from repro.thermal.stack import build_stack

#: L+U nonzeros of the HMC 2.0 ``sub=2`` factorizations are 227,292 with
#: the symmetric ordering and 424,936 with SuperLU's default COLAMD.
MAX_FILL = 250_000

STEP_SIZES = (CONTROL_DT_S, 1e-3)


def _network(cooling, sub):
    return build_network(
        build_stack(HMC_2_0), Floorplan.for_config(HMC_2_0, sub=sub),
        sink_resistance_c_w=cooling.thermal_resistance_c_w,
    )


def _step_matrix(network, dt_s):
    return sp.csc_matrix(sp.diags(network.C / dt_s) + network.G)


@pytest.fixture(scope="module")
def network():
    return _network(COMMODITY_SERVER, 2)


def _power(network):
    rng = np.random.default_rng(7)
    return rng.uniform(0.0, 0.01, network.num_nodes)


class TestPreconditions:
    """``SymmetricMode`` with a zero pivot threshold pivots on the
    diagonal of a symmetric ordering: exact for these matrices only
    because they are exactly symmetric and diagonally dominant."""

    @pytest.mark.parametrize("sub", [2, 4])
    @pytest.mark.parametrize("cooling", sorted(COOLING_SOLUTIONS))
    def test_matrices_are_exactly_symmetric_and_dominant(self, cooling, sub):
        net = _network(COOLING_SOLUTIONS[cooling], sub)
        for A in (sp.csc_matrix(net.G),
                  *(_step_matrix(net, dt) for dt in STEP_SIZES)):
            assert (A != A.T).nnz == 0
            diag = A.diagonal()
            off = abs(A).sum(axis=1).A1 - np.abs(diag)
            assert np.all(diag > 0)
            assert np.all(diag >= off * (1 - 1e-12))


class TestAgreesWithDefaultFactorization:
    def test_steady(self, network):
        P = _power(network)
        default = spla.splu(sp.csc_matrix(network.G)).solve(
            P + network.B * 25.0
        )
        T = SteadySolver(network, ambient_c=25.0).solve(P)
        assert np.max(np.abs(T - default)) < 1e-9

    @pytest.mark.parametrize("dt_s", STEP_SIZES)
    def test_step(self, network, dt_s):
        P = _power(network)
        solver = TransientSolver(network, dt_s, initial_c=60.0)
        default = spla.splu(_step_matrix(network, dt_s))
        T = solver.T.copy()
        for _ in range(5):
            T = default.solve(network.C / dt_s * T + P + network.B * 25.0)
            solver.step(P)
            assert np.max(np.abs(solver.T - T)) < 1e-9


class TestFill:
    def test_steady_fill(self, network):
        lu = SteadySolver(network)._lu
        assert lu.L.nnz + lu.U.nnz <= MAX_FILL

    def test_step_fill(self, network):
        lu = factorize_step(network, CONTROL_DT_S)
        assert lu.L.nnz + lu.U.nnz <= MAX_FILL
