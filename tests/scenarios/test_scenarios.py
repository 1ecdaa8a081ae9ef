"""Fault injection: deterministic streams, engine agreement, clean state.

Three contracts are locked here. (1) Presets compile deterministically:
the same ``(name, seed)`` always yields the same event stream, in any
process. (2) Injected runs are engine-equivalent: the macro fast path
meets the engine contract (:func:`tests.engines.assert_engines_agree`)
across injection boundaries — events are commit boundaries,
sensor-fault windows run on the scalar path. (3) The driver leaves
shared models clean: a run after an injected run on the same system
sees nominal knobs and is identical to a fresh system's run.
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
from repro.hmc.config import HMC_2_0
from repro.hmc.flow import HmcFlowModel
from repro.thermal.cooling import LOW_END_ACTIVE
from tests.engines import (
    Run,
    assert_engines_agree,
    assert_identical,
    build_sim,
    hot_launch,
    run_both,
    run_one,
    run_traced,
)


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
        assert_engines_agree(*run_both(
            hot_launch(n_epochs=6), "coolpim-hw", scenario=scenario
        ))

    @pytest.mark.parametrize(
        "policy", ["naive-offloading", "coolpim-sw", "coolpim-hw"]
    )
    def test_hot_injected_runs_agree(self, policy):
        """Degraded cooling on a weak sink: injections land while the
        control loop is riding the warning band."""
        scenario = make_scenario("degraded-cooling", seed=2)
        stepped, macro = run_both(
            hot_launch(), policy, scenario=scenario, cooling=LOW_END_ACTIVE
        )
        assert stepped.result.thermal_warnings > 0
        assert_engines_agree(stepped, macro)

    def test_sensor_faults_agree_on_scalar_path(self):
        """Noise + dropout windows force the oracle path: both engines
        must draw identical variates at identical sample instants."""
        for name in ("sensor-noise", "sensor-dropout"):
            scenario = make_scenario(name, seed=4)
            assert_engines_agree(*run_both(
                hot_launch(), "coolpim-sw", scenario=scenario,
                cooling=LOW_END_ACTIVE,
            ))


class TestReplayDeterminism:
    def test_same_scenario_same_result(self):
        scenario = make_scenario("chaos", seed=9)
        assert_identical(*(
            run_one("macro", hot_launch(n_epochs=5), "coolpim-hw",
                    scenario=scenario, cooling=LOW_END_ACTIVE)
            for _ in range(2)
        ))

    def test_injection_changes_the_run(self):
        """A cooling-degradation stream must actually perturb the run
        (otherwise the plumbing silently no-ops)."""
        launch = hot_launch()
        base, injected = (
            run_one("macro", launch, "coolpim-hw", scenario=scenario,
                    cooling=LOW_END_ACTIVE).result
            for scenario in (None, make_scenario("degraded-cooling", seed=0))
        )
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
        base = run_one("stepped", launch, "coolpim-hw")
        sim = build_sim("stepped", scenario=make_scenario("chaos", seed=1))
        sim.run(launch, make_policy("coolpim-hw"))
        sim.scenario = None
        after = sim.run(launch, make_policy("coolpim-hw"))
        assert_identical(Run(after, sim), base)

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


def _epoch_spans(engine, launch, scenario=None):
    """Run coolpim-hw traced; returns the :class:`~tests.engines.Run` and
    its ``gpu.epoch`` spans as ``(label, atomics, sim_start_s)``."""
    run, records = run_traced(engine, launch, "coolpim-hw",
                              scenario=scenario)
    return run, [
        (r["args"]["label"], r["args"]["atomics"], r["args"]["sim_start_s"])
        for r in records if r["name"] == "gpu.epoch"
    ]


def _pulled_epochs(monkeypatch):
    """Record every ``(engine, batch, row)`` an engine pulls off its
    trace."""
    from repro.gpu.simulator import SteppedEngine

    pulled = []
    next_epoch = SteppedEngine._next_epoch

    def spy(self):
        epoch = next_epoch(self)
        if epoch is not None:
            pulled.append((self, *epoch))
        return epoch

    monkeypatch.setattr(SteppedEngine, "_next_epoch", spy)
    return pulled


class TestBoundaryEvents:
    """Events that land exactly on an epoch or burst boundary."""

    def test_phase_mix_at_an_epoch_opening(self, monkeypatch):
        """A phase-mix event lands at the instant epoch 3 opens, while an
        earlier one (inside epoch 2) is in force. Events due at an
        instant apply after the epochs opening then, so epoch 3 runs the
        earlier event's rescaled batch, on a row built from that batch
        rather than the trace's shared row, and epoch 4 on the new mix.
        Both engines agree bit for bit."""
        from repro.gpu.simulator import epoch_row

        launch = hot_launch(n_epochs=6)
        _, base = _epoch_spans("stepped", launch)
        t2, t3 = base[2][2], base[3][2]
        assert 0.0 < t2 < t3
        scenario = Scenario(name="boundary", seed=0, events=(
            ScenarioEvent(0.5 * (t2 + t3), "phase-mix", 0.5, 0.0),
            ScenarioEvent(t3, "phase-mix", 1.5, 0.0),
        ))
        pulled = _pulled_epochs(monkeypatch)
        runs, spans = {}, {}
        for engine in ("stepped", "macro"):
            runs[engine], spans[engine] = _epoch_spans(engine, launch, scenario)
        assert_engines_agree(runs["stepped"], runs["macro"])
        assert spans["macro"] == spans["stepped"]
        assert [s[2] for s in spans["stepped"][:4]] == [
            s[2] for s in base[:4]
        ]
        assert [s[1] for s in spans["stepped"]] == [400_000] * 3 + [
            200_000, 600_000, 600_000
        ]
        assert runs["stepped"].result.total_atomics == (
            400_000 * 3 + 200_000 + 600_000 * 2
        )
        scaled = [p for p in pulled if p[1].atomics != 400_000]
        assert {p[0].name for p in scaled} == {"stepped", "macro"}
        for engine, batch, row in pulled:
            sim = engine.sim
            assert repr(row) == repr(
                epoch_row(batch, sim.cache, sim.saturation_threads)
            )

    def test_vault_derating_mid_run_changes_capacities(self, monkeypatch):
        """A vault-derating event half-way through the run: the
        capacities each engine's quanta see switch from the memoized
        nominal ones to the derated ones, and the engines agree."""
        from repro.gpu.simulator import SteppedEngine

        launch = hot_launch(n_epochs=6)
        clean = build_sim("stepped").run(launch, make_policy("coolpim-hw"))
        scenario = Scenario(name="derate", seed=0, events=(
            ScenarioEvent(0.5 * clean.runtime_s, "vault-derating", 0.5),
        ))
        caps = {}
        serve = SteppedEngine._serve_quantum

        def spy(self, key):
            caps.setdefault(self.name, []).append(key[12:15])
            return serve(self, key)

        monkeypatch.setattr(SteppedEngine, "_serve_quantum", spy)
        runs = run_both(launch, "coolpim-hw", scenario=scenario)
        assert_engines_agree(*runs)
        nominal = HmcFlowModel(HMC_2_0).capacities()
        link, dram, fu = nominal
        for engine, seen in caps.items():
            assert seen[0] == nominal, engine
            assert (link, dram * 0.5, fu * 0.5) in seen, engine
            assert seen[-1] != nominal, engine
        # The shared flow model is back at nominal after the run, and so
        # are the capacities it serves from its memo.
        for _, sim in runs:
            assert sim.flow.capacities() == nominal
        assert runs[0].result.runtime_s > clean.runtime_s
