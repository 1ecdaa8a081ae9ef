"""The engine contracts the tests share, and the runs they check.

:func:`assert_engines_agree` holds the macro engine to the stepped
oracle; :func:`assert_identical` holds two runs that must not differ at
all (an adapter, an observer, a replay) to each other. Both take
:class:`Run` pairs, whose stats are compared too, results or ``to_dict``
documents (``repro compare --json`` output).
"""

import math
from typing import NamedTuple

from repro.core.policies import make_policy
from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import TIMELINE_DT_S, SimulationResult, SystemSimulator
from repro.hmc.config import HMC_2_0
from repro.hmc.flow import HmcFlowModel
from repro.obs.tracer import tracing
from repro.sim.trace import OpBatch, TraceCursor
from repro.thermal.cooling import COMMODITY_SERVER
from repro.thermal.model import HmcThermalModel
from repro.thermal.sensor import ThermalSensor

#: The stepped-vs-macro temperature contract (°C); the largest gaps
#: measured, under 8e-10 °C, are the reduced-basis march's rounding.
TEMP_TOL_C = 1e-9


class Run(NamedTuple):
    """One run: its result and the simulator that produced it."""

    result: SimulationResult
    sim: SystemSimulator


def make_launch(batches, name="eq"):
    return KernelLaunch(
        name=name, trace=TraceCursor(batches), total_threads=4096
    )


def hot_launch(n_epochs=10, atomics=400_000):
    """A sustained trace that heats the stack under weak cooling."""
    return make_launch([
        OpBatch(reads=150_000, writes=80_000, atomics=atomics,
                compute_cycles=20_000, threads=4096, label=f"e{i}")
        for i in range(n_epochs)
    ])


def build_sim(engine, cooling=COMMODITY_SERVER, phase_policy=None,
              cache=None, scenario=None):
    return SystemSimulator(
        cache=cache,
        flow=HmcFlowModel(HMC_2_0, phase_policy=phase_policy),
        thermal=HmcThermalModel(HMC_2_0, cooling=cooling),
        sensor=ThermalSensor(),
        engine=engine,
        scenario=scenario,
    )


def run_one(engine, launch, policy, **sim_kwargs):
    """Run ``launch`` under ``policy`` (a name, or a factory of fresh
    instances); ``sim_kwargs`` go to :func:`build_sim`."""
    sim = build_sim(engine, **sim_kwargs)
    pol = make_policy(policy) if isinstance(policy, str) else policy()
    return Run(sim.run(launch, pol), sim)


def run_both(launch, policy, **sim_kwargs):
    """The stepped and the macro :class:`Run` of ``launch``."""
    return tuple(run_one(engine, launch, policy, **sim_kwargs)
                 for engine in ("stepped", "macro"))


def run_traced(engine, launch, policy, **sim_kwargs):
    """One traced :class:`Run` and the tracer's records."""
    with tracing() as tracer:
        run = run_one(engine, launch, policy, **sim_kwargs)
    return run, tracer.records


def _parts(run):
    """``run``'s ``to_dict(include_timeline=True)`` document and its
    structured stats (None without a simulator)."""
    if isinstance(run, Run):
        return (run.result.to_dict(include_timeline=True),
                run.sim.stats.snapshot(structured=True))
    if isinstance(run, SimulationResult):
        return run.to_dict(include_timeline=True), None
    return run, None


def _assert_repr_equal(a, b):
    assert list(b) == list(a)
    for key, value in a.items():
        assert repr(b[key]) == repr(value), key


def _split_temps(doc):
    """``doc`` without its temperatures, and those temperatures: the
    peak, then the timeline's temperature column."""
    rest = dict(doc)
    temps = [rest.pop("peak_dram_temp_c")]
    if "timeline" in rest:
        temps += [temp for _t, temp, _rate, _frac in rest["timeline"]]
        rest["timeline"] = [
            [t, rate, frac] for t, _temp, rate, frac in rest["timeline"]
        ]
    return rest, temps


def assert_engines_agree(stepped, macro):
    """The macro run reproduces the stepped oracle's: temperatures (the
    peak and the timeline's) within :data:`TEMP_TOL_C`, every other
    output ``repr``-equal, and so are the stats but the macro-only burst
    histogram."""
    doc_s, stats_s = _parts(stepped)
    doc_m, stats_m = _parts(macro)
    rest_s, temps_s = _split_temps(doc_s)
    rest_m, temps_m = _split_temps(doc_m)
    _assert_repr_equal(rest_s, rest_m)
    gaps = [abs(m - s) for s, m in zip(temps_s, temps_m)]
    assert all(gap <= TEMP_TOL_C for gap in gaps), max(gaps)

    assert (stats_s is None) == (stats_m is None)
    if stats_s is not None:
        del stats_m["sim.macro_burst_steps"]
        _assert_repr_equal(stats_s, stats_m)
        # Work conservation (the counts are equal on both engines): every
        # atomic is either offloaded or assigned to the host pipeline.
        assigned = stats_s["sim.host_atomics_assigned"]["value"]
        assert doc_s["pim_ops"] + assigned == doc_s["total_atomics"]

    # Fixed-grid timeline (its times are equal on both engines): each
    # sample is the first step-end at or past its grid point, so
    # consecutive samples occupy strictly later cells.
    times = [t for t, *_ in doc_s.get("timeline", [])]
    for t_prev, t_next in zip(times, times[1:]):
        cell_end = (math.floor(t_prev / TIMELINE_DT_S) + 1.0) * TIMELINE_DT_S
        assert t_next >= cell_end - 1e-12


def assert_identical(a, b):
    """``a`` and ``b`` are the same run: results, and the stats where
    they carry them, ``repr``-equal."""
    doc_a, stats_a = _parts(a)
    doc_b, stats_b = _parts(b)
    _assert_repr_equal(doc_a, doc_b)
    assert repr(stats_b) == repr(stats_a)
