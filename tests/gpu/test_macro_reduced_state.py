"""The macro engine's reduced-state cache (``MacroEngine._z``).

A committed burst leaves the thermal state in reduced (eigenbasis)
coordinates and installs it into the node-temperature model only when
something needs it. The invariant that makes this safe: the exact
solver never runs while ``_z`` holds a state, because the scalar-step
path materializes (and clears) it first, and nothing sets it but a
burst commit. These tests watch every exact-solver call in runs that
mix bursts, scalar steps and shutdown recoveries.
"""

import pytest

from repro.core.policies import make_policy
from repro.gpu.macro import MacroEngine
from repro.thermal.cooling import LOW_END_ACTIVE, PASSIVE
from repro.thermal.model import HmcThermalModel
from tests.engines import build_sim, hot_launch


@pytest.mark.parametrize("policy,cooling,n_epochs", [
    ("coolpim-hw", LOW_END_ACTIVE, 10),
    ("coolpim-sw", LOW_END_ACTIVE, 10),
    ("naive-offloading", PASSIVE, 6),
    ("coolpim-sw", PASSIVE, 6),
], ids=["hw-low-end", "sw-low-end", "naive-passive", "sw-passive"])
def test_exact_solver_never_sees_a_cached_state(monkeypatch, policy,
                                                cooling, n_epochs):
    engine = MacroEngine(build_sim("macro", cooling=cooling))
    calls = []
    installs = []

    def watch(name):
        original = getattr(HmcThermalModel, name)

        def wrapper(self, *args, **kwargs):
            calls.append((name, engine._z is None))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(HmcThermalModel, name, wrapper)

    watch("step")
    watch("warm_start")
    set_state = HmcThermalModel.set_transient_state

    def install(self, T):
        installs.append(engine._z is not None)
        return set_state(self, T)

    monkeypatch.setattr(HmcThermalModel, "set_transient_state", install)

    result = engine.run(hot_launch(n_epochs), make_policy(policy))

    bursts = engine.burst_hist.count
    burst_steps = engine.burst_hist.sum
    assert bursts > 0
    assert engine.control_steps > burst_steps  # scalar steps too
    assert any(name == "step" for name, _ in calls)
    # Cached states were live between bursts and got materialized.
    assert any(installs)
    if cooling is PASSIVE:
        assert result.shutdowns >= 1
        assert [name for name, _ in calls].count("warm_start") >= 2
    stale = [name for name, cleared in calls if not cleared]
    assert stale == []
    assert engine._z is None
