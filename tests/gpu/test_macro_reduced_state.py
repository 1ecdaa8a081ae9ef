"""The macro engine's reduced-state cache (``MacroEngine._z``).

A committed burst leaves the thermal state in reduced (eigenbasis)
coordinates, and a scalar step advances it there too when its
temperature is decisive: at least ``MARGIN_C`` from every decision
threshold and not in the SHUTDOWN phase. The invariant that makes this
safe: the exact solver (and the shutdown recovery's ``warm_start``)
never runs while ``_z`` holds a state, because the scalar step's exact
path installs (and clears) it first. These tests watch every
exact-solver call in runs that mix bursts, scalar steps and shutdown
recoveries, and put a forced scalar step's temperature next to each
threshold to see it take the exact path.

The engine itself takes a scalar step only where a burst cannot start
or its first quantum is ambiguous, and such a step is mostly exact. The
run tests therefore also force one scalar step every
:data:`FORCED_EVERY` advances (:func:`force_scalar_steps`), so each run
mixes decisive scalar steps, which stay reduced, between its bursts.
"""

import numpy as np
import pytest

from repro.core.policies import make_policy
from repro.gpu.macro import MARGIN_C, MacroEngine, power_weights
from repro.gpu.simulator import SystemSimulator
from repro.hmc.config import HMC_2_0
from repro.hmc.dram_timing import TemperaturePhasePolicy
from repro.hmc.flow import HmcFlowModel
from repro.scenarios import make_scenario
from repro.thermal.cooling import LOW_END_ACTIVE, PASSIVE
from repro.thermal.model import HmcThermalModel
from repro.thermal.operators import CONTROL_DT_S
from repro.thermal.power import TrafficPoint
from repro.thermal.sensor import ThermalSensor
from tests.engines import build_sim, hot_launch


def watch_thermal(monkeypatch, engine):
    """Record every exact-solver and warm-start call as ``(name, _z is
    None)``, and every state install as ``_z is not None``."""
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
    return calls, installs


#: Every how many advances :func:`force_scalar_steps` skips the burst.
FORCED_EVERY = 2


def force_scalar_steps(monkeypatch):
    """Make every :data:`FORCED_EVERY`-th advance a scalar step: its
    burst attempt returns 0 without speculating."""
    original = MacroEngine._try_burst
    advances = iter(range(1, 1 << 62))

    def try_burst(self):
        if next(advances) % FORCED_EVERY == 0:
            return 0
        return original(self)

    monkeypatch.setattr(MacroEngine, "_try_burst", try_burst)


def watch_quanta(monkeypatch):
    """Record every scalar step's thermal quantum as ``(sensor perturbed,
    reduced)``: reduced when it left a cached state behind."""
    quanta = []
    original = MacroEngine._thermal_quantum

    def wrapper(self, *args):
        temp_c = original(self, *args)
        scen = self.scen
        quanta.append((scen is not None and scen.sensor_perturbed(),
                       self._z is not None))
        return temp_c

    monkeypatch.setattr(MacroEngine, "_thermal_quantum", wrapper)
    return quanta


@pytest.mark.parametrize("policy,cooling,n_epochs", [
    ("coolpim-hw", LOW_END_ACTIVE, 10),
    ("coolpim-sw", LOW_END_ACTIVE, 10),
    ("naive-offloading", PASSIVE, 6),
    ("coolpim-sw", PASSIVE, 6),
], ids=["hw-low-end", "sw-low-end", "naive-passive", "sw-passive"])
def test_exact_solver_never_sees_a_cached_state(monkeypatch, policy,
                                                cooling, n_epochs):
    engine = MacroEngine(build_sim("macro", cooling=cooling))
    calls, installs = watch_thermal(monkeypatch, engine)
    quanta = watch_quanta(monkeypatch)
    force_scalar_steps(monkeypatch)

    result = engine.run(hot_launch(n_epochs), make_policy(policy))

    bursts = engine.burst_hist.count
    burst_steps = engine.burst_hist.sum
    assert bursts > 0
    assert engine.control_steps > burst_steps  # scalar steps too
    assert any(reduced for _, reduced in quanta)
    # Cached states were live between bursts and got materialized.
    assert any(installs)
    names = [name for name, _ in calls]
    if cooling is PASSIVE:
        assert result.shutdowns >= 1
        # Every shutdown recovers from an exact step: each warm start
        # but the run's first follows the exact solve that crossed.
        starts = [i for i, name in enumerate(names) if name == "warm_start"]
        assert len(starts) == 1 + result.shutdowns
        assert all(names[i - 1] == "step" for i in starts[1:])
    stale = [name for name, cleared in calls if not cleared]
    assert stale == []
    assert engine._z is None


def test_sensor_noise_window_never_takes_the_reduced_path(monkeypatch):
    """Inside a perturbed-sensor window every thermal quantum is exact,
    so each noisy sample is taken on the oracle's state."""
    sim = build_sim("macro", cooling=LOW_END_ACTIVE,
                    scenario=make_scenario("sensor-noise", seed=0))
    engine = MacroEngine(sim)
    calls, _ = watch_thermal(monkeypatch, engine)
    quanta = watch_quanta(monkeypatch)

    # HW-DynT keeps this run out of shutdown, so it runs on into the
    # first noise window (from 1.6 ms at this seed).
    engine.run(hot_launch(10), make_policy("coolpim-hw"))

    in_window = [reduced for perturbed, reduced in quanta if perturbed]
    outside = [reduced for perturbed, reduced in quanta if not perturbed]
    assert len(in_window) > 10
    assert not any(in_window)
    assert any(outside)
    assert [name for name, cleared in calls if not cleared] == []


TRAFFIC = TrafficPoint(external_gbs=160.0, internal_dram_gbs=240.0,
                       pim_rate_ops_ns=1.0)


def primed_engine(phase_policy=None, warn_c=200.0, clear_c=190.0,
                  cached=True):
    """A macro engine between scalar steps, thermal state warm at
    :data:`TRAFFIC` and cached in reduced coordinates (``cached``) or
    only in the node state."""
    sim = SystemSimulator(
        flow=HmcFlowModel(HMC_2_0, phase_policy=phase_policy),
        thermal=HmcThermalModel(HMC_2_0, cooling=LOW_END_ACTIVE),
        sensor=ThermalSensor(warn_threshold_c=warn_c,
                             clear_threshold_c=clear_c),
    )
    engine = MacroEngine(sim)
    engine.scen = None
    engine.thermal_debt_s = 0.0
    engine.thermal_solver_steps = 0
    sim.thermal.warm_start(TRAFFIC)
    engine._prop = sim.thermal.propagator()
    engine._reader = engine._prop.peak_reader()
    if cached:
        engine._z, _ = engine._prop.project(sim.thermal.state)
        engine._z_peak = sim.thermal.peak_dram_c()
    return engine


def exact_quantum():
    """A thermal model after one exact quantum from
    :func:`primed_engine`'s state."""
    model = HmcThermalModel(HMC_2_0, cooling=LOW_END_ACTIVE)
    model.warm_start(TRAFFIC)
    model.step(TRAFFIC)
    return model


def marched_quantum_c():
    """The reduced quantum's peak from :func:`primed_engine`'s state."""
    engine = primed_engine()
    prop = engine._prop
    Z = prop.march(engine._z, power_weights(
        1.0, engine.sim.thermal.effective_ambient_c, (1,),
        (TRAFFIC.external_gbs,), (TRAFFIC.internal_dram_gbs,),
        (TRAFFIC.pim_rate_ops_ns,),
    ))
    return float(prop.dram_peaks(Z)[-1])


def near_threshold(case, temp_c):
    """:func:`primed_engine` kwargs putting one decision threshold
    within ``MARGIN_C`` of ``temp_c``, the rest far from it (for
    ``shutdown``: ``temp_c`` decisively past t2)."""
    near = temp_c + 0.4 * MARGIN_C
    phases = {
        "t0": (near, temp_c + 10.0, temp_c + 20.0),
        "t1": (temp_c - 10.0, near, temp_c + 10.0),
        "t2": (temp_c - 20.0, temp_c - 10.0, near),
        "shutdown": (temp_c - 30.0, temp_c - 20.0, temp_c - 10.0),
    }
    if case in phases:
        return {"phase_policy": TemperaturePhasePolicy(
            thresholds_c=phases[case])}
    if case == "kill-switch":
        return {"phase_policy": TemperaturePhasePolicy(
            conservative_shutdown=True, conservative_shutdown_c=near)}
    if case == "warn":
        return {"warn_c": near, "clear_c": temp_c - 10.0}
    assert case == "clear"
    return {"warn_c": temp_c + 10.0, "clear_c": temp_c - 0.4 * MARGIN_C}


@pytest.mark.parametrize("case", [
    "t0", "t1", "t2", "kill-switch", "warn", "clear", "shutdown",
])
def test_indecisive_quantum_takes_the_exact_path(monkeypatch, case):
    temp_c = marched_quantum_c()
    engine = primed_engine(**near_threshold(case, temp_c))
    calls, installs = watch_thermal(monkeypatch, engine)

    got = engine._thermal_quantum(CONTROL_DT_S, TRAFFIC, 1.0)

    assert calls == [("step", True)]
    assert installs == [True]
    assert engine._z is None
    assert abs(got - exact_quantum().peak_dram_c()) < 1e-9
    assert engine.thermal_solver_steps == 1


@pytest.mark.parametrize("cached", [True, False],
                         ids=["cached", "projected"])
def test_decisive_quantum_stays_reduced(monkeypatch, cached):
    """Far from every threshold the quantum is marched, from the cached
    state or from a projection of the exact one, and lands within the
    engine contract of the exact solve."""
    engine = primed_engine(cached=cached)
    calls, installs = watch_thermal(monkeypatch, engine)

    got = engine._thermal_quantum(CONTROL_DT_S, TRAFFIC, 1.0)

    assert calls == [] and installs == []
    assert engine._z is not None and engine._z_peak == got
    assert engine.thermal_solver_steps == 1
    assert engine.thermal_debt_s == 0.0
    exact = exact_quantum()
    assert abs(got - exact.peak_dram_c()) < 1e-9
    T = engine._prop.reconstruct(engine._z)
    assert float(np.abs(T - exact.state).max()) < 1e-9
