"""Process-level shared thermal operators: reuse, isolation, keying."""

import dataclasses

import numpy as np
import pytest

from repro.hmc.config import HMC_1_1, HMC_2_0
from repro.service.handlers import run_simulation_job, simulation_spec
from repro.thermal import operators
from repro.thermal.cooling import COMMODITY_SERVER, PASSIVE
from repro.thermal.model import HmcThermalModel
from repro.thermal.rc_network import BOARD_RESISTANCE_C_W, DEFAULT_INTERFACE_SCALE
from repro.thermal.power import TrafficPoint


@pytest.fixture(autouse=True)
def fresh_cache():
    operators.clear_cache()
    yield
    operators.clear_cache()


class TestOperatorCache:
    def test_same_key_returns_same_bundle(self):
        a = operators.get_operators(HMC_2_0, COMMODITY_SERVER)
        b = operators.get_operators(HMC_2_0, COMMODITY_SERVER)
        assert a is b
        stats = operators.cache_stats()
        assert stats == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "step_lu_entries": 0,
            "step_lu_hits": 0,
            "step_lu_misses": 0,
            "propagators": 0,
            "propagator_extensions": 0,
        }

    def test_distinct_keys_get_distinct_bundles(self):
        a = operators.get_operators(HMC_2_0, COMMODITY_SERVER)
        assert operators.get_operators(HMC_2_0, PASSIVE) is not a
        assert operators.get_operators(HMC_1_1, COMMODITY_SERVER) is not a
        assert operators.get_operators(HMC_2_0, COMMODITY_SERVER, sub=3) is not a
        assert (
            operators.get_operators(HMC_2_0, COMMODITY_SERVER, interface_scale=1.0)
            is not a
        )
        assert (
            operators.get_operators(HMC_2_0, COMMODITY_SERVER, ambient_c=30.0)
            is not a
        )
        assert operators.cache_stats()["entries"] == 6

    def test_prewarm_populates_step_lu(self):
        ops = operators.prewarm(HMC_2_0, COMMODITY_SERVER, control_dt_s=25e-6)
        assert len(ops.step_lus) == 1
        # A model over the same package hits the warmed factorization.
        model = HmcThermalModel()
        model.step(TrafficPoint.streaming(100.0), 25e-6)
        assert ops.step_lus.misses == 1
        assert ops.step_lus.hits >= 1


def _uniform_steady(ops):
    """Steady temperatures of the bundle under 10 W spread over all nodes."""
    n = ops.network.num_nodes
    return ops.steady.solve(np.full(n, 10.0 / n))


class TestOperatorKeyAudit:
    """Every input of the bundle is in its key: changing any one of them
    gives a distinct bundle whose steady solution differs."""

    BASE = dict(config=HMC_2_0, cooling=COMMODITY_SERVER, sub=2,
                interface_scale=DEFAULT_INTERFACE_SCALE, ambient_c=25.0,
                board_resistance_c_w=BOARD_RESISTANCE_C_W)
    CHANGED = {
        "config": HMC_1_1,
        # Same name, different sink: the whole solution is in the key.
        "cooling": dataclasses.replace(COMMODITY_SERVER,
                                       thermal_resistance_c_w=0.6),
        "sub": 3,
        "interface_scale": 1.0,
        "ambient_c": 30.0,
        "board_resistance_c_w": 50.0,
    }

    def test_base_is_the_default_bundle(self):
        assert operators.get_operators(**self.BASE) is operators.get_operators(
            HMC_2_0, COMMODITY_SERVER
        )

    @pytest.mark.parametrize("field", sorted(CHANGED))
    def test_each_input_changes_bundle_and_solution(self, field):
        base = operators.get_operators(**self.BASE)
        changed = operators.get_operators(
            **dict(self.BASE, **{field: self.CHANGED[field]})
        )
        assert changed is not base
        a, b = _uniform_steady(base), _uniform_steady(changed)
        assert a.shape != b.shape or not np.array_equal(a, b)
        assert operators.cache_stats()["entries"] == 2


class TestModelSharing:
    def test_models_share_network_and_solvers(self):
        a = HmcThermalModel()
        b = HmcThermalModel()
        assert a.network is b.network
        assert a._steady is b._steady
        assert a._transient is not b._transient
        assert a._transient._lus is b._transient._lus

    def test_transient_state_is_isolated(self):
        a = HmcThermalModel()
        b = HmcThermalModel()
        a.step(TrafficPoint.streaming(320.0), 25e-6)
        assert np.allclose(b.state, b.ambient_c)
        assert a.state.max() > b.state.max()

    def test_share_operators_false_builds_private_copies(self):
        shared = HmcThermalModel()
        private = HmcThermalModel(share_operators=False)
        assert private.network is not shared.network
        assert operators.cache_stats()["entries"] == 1

    def test_shared_and_private_agree(self):
        t = TrafficPoint.streaming(320.0)
        shared = HmcThermalModel().steady_peak_dram_c(t)
        private = HmcThermalModel(share_operators=False).steady_peak_dram_c(t)
        assert shared == pytest.approx(private, abs=1e-9)

    def test_settle_matches_steady_state(self):
        model = HmcThermalModel()
        t = TrafficPoint.streaming(240.0)
        settled = model.settle(t, dt_s=1e-3, tol_c=1e-6)
        assert settled == pytest.approx(model.steady_peak_dram_c(t), abs=0.1)


def _simulate(workload, policy, cooling):
    return run_simulation_job(simulation_spec(
        workload, dataset="ldbc-tiny", policy=policy, cooling=cooling,
        workload_scale=0.25,
    ))


class TestPropagatorReuse:
    """A run's result must not depend on what earlier runs did to the
    shared propagator (basis extensions, cached projections): the
    reduced basis is part of the value, so reuse is only safe if it is
    bit-identical to a fresh build."""

    TARGETS = [
        ("pagerank", "coolpim-hw", "commodity"),
        ("kcore", "coolpim-sw", "passive"),
    ]
    #: Other workload×policy pairs that use the same two bundles first.
    WARMERS = [
        ("dc", "naive-offloading", "commodity"),
        ("kcore", "coolpim-hw", "commodity"),
        ("pagerank", "naive-offloading", "passive"),
        ("dc", "coolpim-sw", "passive"),
    ]

    def test_result_identical_on_fresh_and_used_propagators(self):
        fresh = {}
        for target in self.TARGETS:
            operators.clear_cache()
            fresh[target] = _simulate(*target)

        operators.clear_cache()
        for warmer in self.WARMERS:
            _simulate(*warmer)
        built = operators.cache_stats()["propagators"]
        assert built == 2  # one per cooling bundle
        for target in self.TARGETS:
            assert _simulate(*target) == fresh[target], target
        # The targets ran on the warmers' propagators, not new ones.
        assert operators.cache_stats()["propagators"] == built
