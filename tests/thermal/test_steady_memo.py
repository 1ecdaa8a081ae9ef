"""Steady-solve memo: exact-bytes key, read-only shared results, and a
warm start from a memo hit that leaves a run bit-identical."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.coolpim import CoolPimSystem
from repro.graph import get_dataset
from repro.hmc.config import HMC_2_0
from repro.thermal import operators
from repro.thermal.cooling import COMMODITY_SERVER
from repro.thermal.floorplan import Floorplan
from repro.thermal.rc_network import build_network
from repro.thermal.solver import SPLU_OPTIONS, STEADY_MEMO_ENTRIES, SteadySolver
from repro.thermal.stack import build_stack
from repro.workloads import get_workload
from repro.workloads.base import clear_cache


@pytest.fixture(scope="module")
def network():
    return build_network(
        build_stack(HMC_2_0), Floorplan.for_config(HMC_2_0, sub=2),
        sink_resistance_c_w=0.5,
    )


def _power(network, watts):
    P = np.zeros(network.num_nodes)
    P[network.node(0, 0, 0)] = watts
    return P


class TestSolveMemo:
    def test_hit_returns_the_same_read_only_array(self, network):
        solver = SteadySolver(network)
        first = solver.solve(_power(network, 3.0))
        again = solver.solve(_power(network, 3.0))
        assert again is first
        assert not again.flags.writeable
        with pytest.raises(ValueError):
            again[0] = 0.0

    def test_value_equals_a_direct_factorized_solve(self, network):
        P = _power(network, 2.5)
        # The program's own factorization, so this checks the memo and
        # not the choice of ordering.
        direct = spla.splu(
            sp.csc_matrix(network.G), **SPLU_OPTIONS
        ).solve(P + network.B * 40.0)
        solver = SteadySolver(network, ambient_c=40.0)
        solver.solve(P)
        assert np.array_equal(solver.solve(P), direct)

    def test_any_bit_of_p_changes_the_key(self, network):
        solver = SteadySolver(network)
        P = _power(network, 1.0)
        base = solver.solve(P)
        nudged = P.copy()
        nudged[-1] = np.nextafter(0.0, 1.0)
        assert solver.solve(nudged) is not base

    def test_bounded_lru(self, network):
        solver = SteadySolver(network)
        first = solver.solve(_power(network, 1.0))
        for watts in range(2, STEADY_MEMO_ENTRIES + 2):
            solver.solve(_power(network, float(watts)))
        # The oldest entry was evicted; its value is recomputed exactly.
        recomputed = solver.solve(_power(network, 1.0))
        assert recomputed is not first
        assert np.array_equal(recomputed, first)


class TestWarmStartFromHit:
    """The warm start's steady solution is shared by every run on the
    shared operators; a run that reads it from the memo must equal one
    whose solver had to compute it."""

    def _run(self, system):
        return system.run(
            get_workload("pagerank", seed=1), get_dataset("ldbc-tiny"),
            "coolpim-hw",
        ).to_dict()

    def test_run_on_a_hit_equals_a_run_on_a_fresh_solver(self):
        clear_cache()
        operators.clear_cache()
        fresh = self._run(CoolPimSystem(cooling=COMMODITY_SERVER))
        steady = operators.get_operators(HMC_2_0, COMMODITY_SERVER).steady
        memo_before = dict(steady._memo)
        assert memo_before  # the warm start filled the memo
        hit = self._run(CoolPimSystem(cooling=COMMODITY_SERVER))
        # The second run's warm start was served from the memo.
        assert all(steady._memo[k] is v for k, v in memo_before.items())
        assert hit == fresh
        operators.clear_cache()
