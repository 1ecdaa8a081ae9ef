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
from repro.thermal.solver import factorize_step


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
            "step_lus": 0,
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
        ops = operators.prewarm(HMC_2_0, COMMODITY_SERVER)
        lu = ops.step_lu()
        assert operators.cache_stats()["step_lus"] == 1
        # A model over the same package steps on the warmed factorization.
        model = HmcThermalModel()
        model.step(TrafficPoint.streaming(100.0))
        assert model._transient._lu is lu
        assert operators.cache_stats()["step_lus"] == 1


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
        a.step(TrafficPoint.idle())
        b.step(TrafficPoint.idle())
        assert a._transient._lu is b._transient._lu

    def test_transient_state_is_isolated(self):
        a = HmcThermalModel()
        b = HmcThermalModel()
        a.step(TrafficPoint.streaming(320.0))
        assert np.allclose(b.state, b.ambient_c)
        assert a.state.max() > b.state.max()


@pytest.fixture
def factorizations(monkeypatch):
    """Every step factorization the operator bundles make, in order."""
    made = []

    def counted(network, dt_s):
        made.append((network, dt_s))
        return factorize_step(network, dt_s)

    monkeypatch.setattr(operators, "factorize_step", counted)
    return made


class TestOneStepLu:
    """The control quantum is the only step size: a bundle factorizes at
    most one step LU, and only when a transient first needs it."""

    def test_control_loop_runs_factorize_one_lu_per_bundle(
        self, factorizations
    ):
        for engine in ("stepped", "macro"):
            for policy in ("coolpim-hw", "naive-offloading"):
                run_simulation_job(simulation_spec(
                    "pagerank", dataset="ldbc-tiny", policy=policy,
                    cooling="passive", workload_scale=0.25, engine=engine,
                ))
        ops = operators.get_operators(HMC_2_0, PASSIVE)
        assert factorizations == [(ops.network, operators.CONTROL_DT_S)]
        assert operators.cache_stats()["step_lus"] == 1

    def test_steady_only_bundle_factorizes_none(self, factorizations):
        model = HmcThermalModel(sub=3)
        t = TrafficPoint.streaming(320.0)
        model.steady_peak_dram_c(t)
        model.steady_surface_c(t)
        model.warm_start(t)
        model.heatmap("logic")
        assert factorizations == []
        assert operators.cache_stats()["step_lus"] == 0


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
