"""Fault injection: deterministic streams, engine agreement, clean state.

Three contracts are locked here. (1) Presets compile deterministically:
the same ``(name, seed)`` always yields the same event stream, in any
process. (2) Injected runs are engine-equivalent: the macro fast path
reproduces the stepped oracle bit-for-bit across injection boundaries —
events are commit boundaries, sensor-fault windows run on the scalar
path. (3) The driver leaves shared models clean: a run after an injected
run on the same system sees nominal knobs.
"""

import pytest

from repro.core.policies import make_policy
from repro.scenarios import (
    SCENARIO_NAMES,
    Scenario,
    ScenarioDriver,
    ScenarioEvent,
    is_scenario_name,
    make_scenario,
)
from repro.scenarios.events import EVENT_KINDS
from repro.gpu.simulator import SystemSimulator
from repro.hmc.config import HMC_2_0
from repro.hmc.flow import HmcFlowModel
from repro.thermal.cooling import COMMODITY_SERVER, LOW_END_ACTIVE
from repro.thermal.model import HmcThermalModel
from repro.thermal.sensor import ThermalSensor

from tests.gpu.test_macro_equivalence import (
    EXACT_FIELDS,
    assert_equivalent,
    hot_launch,
)


def build_sim(engine, scenario=None, cooling=COMMODITY_SERVER):
    return SystemSimulator(
        flow=HmcFlowModel(HMC_2_0),
        thermal=HmcThermalModel(HMC_2_0, cooling=cooling),
        sensor=ThermalSensor(),
        engine=engine,
        scenario=scenario,
    )


def run_both(launch, policy_name, scenario, cooling=COMMODITY_SERVER):
    out = {}
    for engine in ("stepped", "macro"):
        sim = build_sim(engine, scenario=scenario, cooling=cooling)
        result = sim.run(launch, make_policy(policy_name))
        out[engine] = (result, sim.stats.snapshot(), sim)
    return out


class TestPresets:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_compile_is_deterministic(self, name):
        a = make_scenario(name, seed=3)
        b = make_scenario(name, seed=3)
        assert a.events == b.events
        assert a.name == name and a.seed == 3

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_seeds_vary_the_stream(self, name):
        assert make_scenario(name, seed=0).events != make_scenario(
            name, seed=1
        ).events

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_events_sorted_and_typed(self, name):
        scenario = make_scenario(name)
        assert scenario.events  # never empty
        times = [e.t_s for e in scenario.events]
        assert times == sorted(times)
        for event in scenario.events:
            assert event.kind in EVENT_KINDS
            assert event.t_s >= 0.0

    def test_unknown_name_and_bad_seed(self):
        with pytest.raises(KeyError):
            make_scenario("meteor-strike")
        with pytest.raises(ValueError):
            make_scenario("heatwave", seed=-1)
        assert is_scenario_name("chaos")
        assert not is_scenario_name("meteor-strike")

    def test_to_dict_round_trips_the_stream(self):
        scenario = make_scenario("degraded-cooling", seed=5)
        d = scenario.to_dict()
        assert d["name"] == "degraded-cooling"
        assert d["seed"] == 5
        assert len(d["events"]) == len(scenario.events)


class TestEventValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScenarioEvent(0.0, "asteroid")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ScenarioEvent(-1.0, "ambient-offset", 5.0)

    @pytest.mark.parametrize("value", [0.0, -0.25, 1.5, float("nan")])
    def test_rejects_vault_derating_outside_unit_interval(self, value):
        # At 0 no vault serves anything and a run would never finish;
        # the constructor refuses it, so no run is attempted here.
        with pytest.raises(ValueError, match="vault-derating"):
            ScenarioEvent(0.0, "vault-derating", value)

    def test_accepts_vault_derating_in_unit_interval(self):
        for value in (1e-3, 0.55, 1.0):
            assert ScenarioEvent(0.0, "vault-derating", value).value == value

    def test_scenario_requires_sorted_events(self):
        events = (
            ScenarioEvent(2.0, "ambient-offset", 1.0),
            ScenarioEvent(1.0, "ambient-offset", 0.0),
        )
        with pytest.raises(ValueError):
            Scenario(name="x", seed=0, events=events)


class TestEngineEquivalence:
    """The tentpole contract: injected runs agree macro vs stepped."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_engines_agree_under_injection(self, name):
        scenario = make_scenario(name, seed=1)
        assert_equivalent(
            run_both(hot_launch(n_epochs=6), "coolpim-hw", scenario)
        )

    @pytest.mark.parametrize(
        "policy", ["naive-offloading", "coolpim-sw", "coolpim-hw"]
    )
    def test_hot_injected_runs_agree(self, policy):
        """Degraded cooling on a weak sink: injections land while the
        control loop is riding the warning band."""
        scenario = make_scenario("degraded-cooling", seed=2)
        out = run_both(
            hot_launch(), policy, scenario, cooling=LOW_END_ACTIVE
        )
        assert out["stepped"][0].thermal_warnings > 0
        assert_equivalent(out)

    def test_sensor_faults_agree_on_scalar_path(self):
        """Noise + dropout windows force the oracle path: both engines
        must draw identical variates at identical sample instants."""
        for name in ("sensor-noise", "sensor-dropout"):
            scenario = make_scenario(name, seed=4)
            assert_equivalent(
                run_both(hot_launch(), "coolpim-sw", scenario,
                         cooling=LOW_END_ACTIVE)
            )


class TestReplayDeterminism:
    def test_same_scenario_same_result(self):
        scenario = make_scenario("chaos", seed=9)
        results = []
        for _ in range(2):
            sim = build_sim("macro", scenario=scenario,
                            cooling=LOW_END_ACTIVE)
            results.append(sim.run(hot_launch(n_epochs=5),
                                   make_policy("coolpim-hw")))
        first, second = results
        for field in EXACT_FIELDS:
            assert getattr(first, field) == getattr(second, field), field
        assert first.peak_dram_temp_c == second.peak_dram_temp_c
        assert first.timeline == second.timeline

    def test_injection_changes_the_run(self):
        """A cooling-degradation stream must actually perturb the run
        (otherwise the plumbing silently no-ops)."""
        launch = hot_launch()
        clean = build_sim("macro", cooling=LOW_END_ACTIVE)
        base = clean.run(launch, make_policy("coolpim-hw"))
        injected_sim = build_sim(
            "macro",
            scenario=make_scenario("degraded-cooling", seed=0),
            cooling=LOW_END_ACTIVE,
        )
        injected = injected_sim.run(launch, make_policy("coolpim-hw"))
        # The degradation onset may postdate the run's thermal peak, so
        # compare the post-onset trajectory: the final samples must run
        # hotter than the clean run's.
        assert injected.timeline != base.timeline
        assert injected.timeline[-1][1] > base.timeline[-1][1]


class TestDriverState:
    def test_knobs_restored_after_run(self):
        scenario = make_scenario("chaos", seed=0)
        sim = build_sim("stepped", scenario=scenario)
        sim.run(hot_launch(n_epochs=3), make_policy("coolpim-hw"))
        assert sim.thermal.effective_ambient_c == sim.thermal.ambient_c
        assert sim.flow.vault_capacity_scale == 1.0
        assert sim.sensor.perturb is None

    def test_clean_run_after_injected_run_is_unaffected(self):
        """Shared-model hygiene: same simulator, scenario cleared."""
        launch = hot_launch(n_epochs=3)
        reference = build_sim("stepped")
        base = reference.run(launch, make_policy("coolpim-hw"))
        sim = build_sim("stepped", scenario=make_scenario("chaos", seed=1))
        sim.run(launch, make_policy("coolpim-hw"))
        sim.scenario = None
        after = sim.run(launch, make_policy("coolpim-hw"))
        for field in EXACT_FIELDS:
            assert getattr(after, field) == getattr(base, field), field

    def test_driver_counts_injections(self):
        scenario = make_scenario("degraded-cooling", seed=0)
        sim = build_sim("stepped", scenario=scenario)
        driver = ScenarioDriver(scenario, sim)
        driver.begin()
        driver.apply_due(scenario.events[-1].t_s)
        assert driver.injected == len(scenario.events)
        assert driver.next_event_s() == float("inf")
        driver.finish()
        assert sim.sensor.perturb is None

    def test_apply_due_is_incremental(self):
        scenario = make_scenario("heatwave", seed=0)
        sim = build_sim("stepped", scenario=scenario)
        driver = ScenarioDriver(scenario, sim)
        driver.begin()
        first_t = scenario.events[0].t_s
        driver.apply_due(first_t)
        assert driver.injected >= 1
        assert driver.next_event_s() > first_t
        assert sim.thermal.effective_ambient_c != sim.thermal.ambient_c

    def test_phase_mix_scales_batches(self):
        from repro.sim.trace import OpBatch

        scenario = Scenario(
            name="x", seed=0,
            events=(ScenarioEvent(0.0, "phase-mix", 1.5, 0.5),),
        )
        sim = build_sim("stepped", scenario=scenario)
        driver = ScenarioDriver(scenario, sim)
        driver.begin()
        driver.apply_due(0.0)
        batch = OpBatch(reads=100, writes=50, atomics=10,
                        compute_cycles=1000, threads=64)
        out = driver.transform_batch(batch)
        assert out.reads == 150 and out.writes == 75 and out.atomics == 15
        assert out.compute_cycles == 500
        assert out.threads == batch.threads
