"""Engine equivalence: the macro fast path must reproduce the stepped oracle.

Every policy, run on the same trace through both engines, must produce
the same ``SimulationResult`` — integer aggregates, event counts, event
instants, phase-time breakdowns, and timelines exactly; temperatures to
the documented 1e-6 °C tolerance. The suite covers cold runs (randomized
traces via hypothesis), warning-band oscillation on the sensor
hysteresis, temperature-phase walks, and the forced shutdown/recovery
path under both the three-phase and the conservative-shutdown overheat
policies.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import StaticFraction, make_policy
from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT
from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import SystemSimulator
from repro.hmc.config import HMC_2_0
from repro.hmc.dram_timing import TemperaturePhasePolicy
from repro.hmc.flow import HmcFlowModel
from repro.sim.trace import OpBatch, TraceCursor
from repro.thermal.cooling import COMMODITY_SERVER, LOW_END_ACTIVE, PASSIVE
from repro.thermal.model import HmcThermalModel
from repro.thermal.sensor import ThermalSensor

POLICY_NAMES = [
    "non-offloading",
    "naive-offloading",
    "coolpim-sw",
    "coolpim-hw",
    "ideal-thermal",
]

#: SimulationResult fields the engines must agree on bit-for-bit.
EXACT_FIELDS = [
    "runtime_s",
    "link_bytes",
    "data_bytes",
    "pim_ops",
    "host_atomics",
    "total_atomics",
    "thermal_warnings",
    "shutdowns",
    "phase_time_s",
    "package_energy_j",
    "fan_energy_j",
]

#: sim.* counters the engines must agree on bit-for-bit.
EXACT_COUNTERS = [
    "sim.epochs",
    "sim.control_steps",
    "sim.thermal_solver_steps",
    "sim.thermal_warnings",
    "sim.shutdowns",
    "sim.pim_ops",
    "sim.host_atomics",
    "sim.host_atomics_assigned",
]


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
              cache=None):
    return SystemSimulator(
        cache=cache,
        flow=HmcFlowModel(HMC_2_0, phase_policy=phase_policy),
        thermal=HmcThermalModel(HMC_2_0, cooling=cooling),
        sensor=ThermalSensor(),
        engine=engine,
    )


def run_both(launch, policy, cooling=COMMODITY_SERVER, phase_policy=None,
             cache=None):
    """Run ``launch`` through both engines; returns {engine: (result, stats)}.

    ``policy`` is a factory (name string or callable) so each engine gets
    a fresh, independent policy instance. ``cache`` (a stateless
    :class:`CacheModel`) defaults to the simulator's bypass model.
    """
    out = {}
    for engine in ("stepped", "macro"):
        sim = build_sim(engine, cooling=cooling, phase_policy=phase_policy,
                        cache=cache)
        pol = make_policy(policy) if isinstance(policy, str) else policy()
        result = sim.run(launch, pol)
        out[engine] = (result, sim.stats.snapshot(), sim)
    return out


def assert_equivalent(out):
    rs, ss, sim_s = out["stepped"]
    rm, sm, sim_m = out["macro"]
    for field in EXACT_FIELDS:
        assert getattr(rm, field) == getattr(rs, field), field
    assert rm.peak_dram_temp_c == pytest.approx(
        rs.peak_dram_temp_c, abs=1e-6
    )
    for key in EXACT_COUNTERS:
        assert sm.get(key) == ss.get(key), key
    # The metrics documents are equal too, but for the macro-only burst
    # histogram: counters, control-step histogram (sum included) and the
    # time-weighted PIM fraction.
    doc_s = sim_s.stats.snapshot(structured=True)
    doc_m = sim_m.stats.snapshot(structured=True)
    del doc_m["sim.macro_burst_steps"]
    assert doc_m == doc_s

    # Timelines: same grid points, identical rates/fractions, temps
    # within tolerance.
    assert len(rm.timeline) == len(rs.timeline)
    for (ts, cs, prs, fs), (tm, cm, prm, fm) in zip(rs.timeline, rm.timeline):
        assert tm == ts
        assert prm == prs
        assert fm == fs
        assert cm == pytest.approx(cs, abs=1e-6)

    # Work conservation: every atomic is either offloaded or assigned to
    # the host pipeline (the satellite ledger closes the sub-0.5 residual
    # leak the drained check used to drop).
    for res, stats in ((rs, ss), (rm, sm)):
        assert res.pim_ops + stats["sim.host_atomics_assigned"] == (
            res.total_atomics
        )

    # Fixed-grid timeline: each sample is the first step-end at or past
    # its grid point, so consecutive samples occupy strictly later cells.
    tl_dt = sim_s.timeline_dt_s
    for res in (rs, rm):
        for (t_prev, *_), (t_next, *_) in zip(res.timeline, res.timeline[1:]):
            cell_end = (math.floor(t_prev / tl_dt) + 1.0) * tl_dt
            assert t_next >= cell_end - 1e-12


random_batches = st.lists(
    st.builds(
        OpBatch,
        reads=st.integers(0, 60_000),
        writes=st.integers(0, 40_000),
        atomics=st.integers(0, 60_000),
        compute_cycles=st.integers(0, 10_000),
        threads=st.just(4096),
        divergent_warp_ratio=st.floats(0.0, 0.9),
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=10, deadline=None)
@given(batches=random_batches)
def test_engines_agree_on_random_traces(policy, batches):
    assert_equivalent(run_both(make_launch(batches), policy))


@settings(max_examples=10, deadline=None)
@given(batches=random_batches, fraction=st.floats(0.0, 1.0))
def test_engines_agree_for_static_fraction(batches, fraction):
    assert_equivalent(
        run_both(make_launch(batches), lambda: StaticFraction(fraction))
    )


#: PEI-style coherence: every other offloaded op writes back a dirty
#: line, so the writeback remainder (``wb_carry``) is live across quanta.
PEI_WRITEBACK = CacheModel(
    GPU_DEFAULT, coherence_mode="writeback", pei_dirty_fraction=0.5
)


@pytest.mark.parametrize("policy", ["naive-offloading", "coolpim-hw"])
@settings(max_examples=10, deadline=None)
@given(batches=random_batches)
def test_engines_agree_in_pei_writeback_mode(policy, batches):
    """The writeback remainder is part of the epoch state the macro
    engine restores after a burst commit and resets at each epoch it
    opens: both engines must agree on every writeback."""
    assert_equivalent(
        run_both(make_launch(batches), policy, cache=PEI_WRITEBACK)
    )


class TestHotPaths:
    """Warning oscillation, phase walks, and shutdown/recovery."""

    @pytest.mark.parametrize("policy", ["coolpim-sw", "coolpim-hw"])
    def test_warning_band_oscillation(self, policy):
        """Low-end cooling rides the 85/83 °C hysteresis band: dozens of
        warning deliveries, sensor flips, and NORMAL↔EXTENDED↔CRITICAL
        phase crossings."""
        out = run_both(hot_launch(), policy, cooling=LOW_END_ACTIVE)
        assert out["stepped"][0].thermal_warnings > 10
        assert_equivalent(out)

    def test_warning_band_in_pei_writeback_mode(self):
        """Validation- and phase-truncated bursts with a live writeback
        remainder at every commit."""
        out = run_both(hot_launch(), "coolpim-hw", cooling=LOW_END_ACTIVE,
                       cache=PEI_WRITEBACK)
        assert out["stepped"][0].thermal_warnings > 10
        assert_equivalent(out)

    @pytest.mark.parametrize("policy", ["naive-offloading", "coolpim-sw"])
    def test_shutdown_and_recovery(self, policy):
        """Passive cooling drives the die past 105 °C: the run must take
        the shutdown branch, cool down, and finish the trace after
        recovery — identically in both engines."""
        out = run_both(hot_launch(n_epochs=6), policy, cooling=PASSIVE)
        assert out["stepped"][0].shutdowns >= 1
        assert_equivalent(out)

    def test_conservative_shutdown_policy(self):
        """The Sec. III-C all-or-nothing prototype policy: full speed to
        the 95 °C kill switch, then a hard stop."""
        out = run_both(
            hot_launch(n_epochs=6),
            "naive-offloading",
            cooling=PASSIVE,
            phase_policy=TemperaturePhasePolicy(conservative_shutdown=True),
        )
        assert out["stepped"][0].shutdowns >= 1
        assert_equivalent(out)

    def test_equivalence_survives_live_telemetry(self):
        """Bit-equality with a telemetry sink attached to both engines:
        the macro engine emits only at commit boundaries, so observation
        must not perturb a single aggregate — and both engines must
        actually produce samples."""
        from repro.telemetry.live import RunTelemetrySink, run_telemetry

        out = {}
        samples = {}
        for engine in ("stepped", "macro"):
            collected = []
            sink = RunTelemetrySink(emit=collected.append, max_samples=32)
            sim = build_sim(engine, cooling=LOW_END_ACTIVE)
            with run_telemetry(sink):
                result = sim.run(hot_launch(), make_policy("coolpim-hw"))
            out[engine] = (result, sim.stats.snapshot(), sim)
            samples[engine] = collected
        assert_equivalent(out)
        for engine, collected in samples.items():
            assert collected, f"{engine} emitted no telemetry"
            assert all(s["engine"] == engine for s in collected)
            times = [s["t_s"] for s in collected]
            assert times == sorted(times)
            assert all(0.0 <= s["progress"] <= 1.0 for s in collected)

    def test_results_identical_with_and_without_sink(self):
        """The observer effect check: attaching a sink must not change
        the stepped oracle's own results either."""
        from repro.telemetry.live import RunTelemetrySink, run_telemetry

        plain = build_sim("stepped", cooling=LOW_END_ACTIVE)
        r_plain = plain.run(hot_launch(), make_policy("coolpim-sw"))
        observed = build_sim("stepped", cooling=LOW_END_ACTIVE)
        sink = RunTelemetrySink(emit=lambda s: None, max_samples=16)
        with run_telemetry(sink):
            r_obs = observed.run(hot_launch(), make_policy("coolpim-sw"))
        for field in EXACT_FIELDS:
            assert getattr(r_obs, field) == getattr(r_plain, field), field
        assert r_obs.peak_dram_temp_c == r_plain.peak_dram_temp_c
        assert r_obs.timeline == r_plain.timeline

    def test_warnings_fire_at_identical_instants(self):
        """Beyond equal counts: the traced warning instants must match
        step-for-step (the sensor only flips at its 100 µs samples)."""
        from repro.obs.tracer import Tracer, set_tracer

        events = {}
        for engine in ("stepped", "macro"):
            previous = set_tracer(Tracer(enabled=True))
            try:
                sim = build_sim(engine, cooling=LOW_END_ACTIVE)
                sim.run(hot_launch(), make_policy("coolpim-hw"))
                events[engine] = [
                    r["ts"]
                    for r in set_tracer(previous).records
                    if r["name"] == "sim.thermal_warning"
                ]
            finally:
                set_tracer(previous)
        assert events["macro"] == events["stepped"]
        assert len(events["macro"]) > 10
