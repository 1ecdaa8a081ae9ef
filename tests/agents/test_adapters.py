"""Agent harness: the adapter layer must be invisible to the engines.

The contract locked here: wrapping any paper policy as an agent
(``AgentPolicy(PolicyAgent(policy))``) and running it through either
engine produces a **bit-identical** ``SimulationResult`` to running the
bare policy — same aggregates, same event counts, same timelines. The
non-policy agent (a scripted schedule) must itself agree between the
macro and stepped engines.
"""

import pytest

from repro.agents import (
    ACTION_NONE,
    Action,
    AgentPolicy,
    Observation,
    PolicyAgent,
    ScriptedAgent,
    as_agent,
    as_policy,
)
from repro.core.policies import POLICY_NAMES, make_policy
from repro.thermal.cooling import COMMODITY_SERVER, LOW_END_ACTIVE

from tests.engines import (
    assert_engines_agree,
    assert_identical,
    build_sim,
    hot_launch,
    run_both,
    run_one,
)


def wrapped(name):
    """Factory: the paper policy behind the full agent round-trip."""
    return lambda: as_policy(PolicyAgent(make_policy(name)))


def run_pair(launch, engine, name, cooling):
    """One engine, bare policy vs adapter-wrapped policy."""
    return [run_one(engine, launch, factory, cooling=cooling)
            for factory in (lambda: make_policy(name), wrapped(name))]


class TestPolicyAdapterBitIdentity:
    """Bare policy vs agent-wrapped policy: exact result equality."""

    @pytest.mark.parametrize("engine", ["stepped", "macro"])
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_cool_run_identical(self, engine, name):
        bare, agent = run_pair(
            hot_launch(n_epochs=3), engine, name, COMMODITY_SERVER
        )
        assert_identical(agent, bare)

    @pytest.mark.parametrize("engine", ["stepped", "macro"])
    @pytest.mark.parametrize("name", ["coolpim-sw", "coolpim-hw"])
    def test_hot_run_identical(self, engine, name):
        """Warning-band oscillation: the adapter must forward every
        on_thermal_warning at the exact instant with the exact temp."""
        bare, agent = run_pair(hot_launch(), engine, name, LOW_END_ACTIVE)
        # The band is actually exercised.
        assert bare.result.thermal_warnings > 10
        assert_identical(agent, bare)

    @pytest.mark.parametrize("name", POLICY_NAMES + ["static-0.5"])
    def test_wrapped_policies_agree_across_engines(self, name):
        assert_engines_agree(*run_both(hot_launch(n_epochs=4), wrapped(name)))


class TestScriptedAgent:
    def test_engines_agree(self):
        schedule = [(0.0, 1.0), (1e-3, 0.25), (3e-3, 0.75)]
        assert_engines_agree(
            *run_both(hot_launch(), lambda: as_policy(ScriptedAgent(schedule)))
        )

    def test_schedule_is_honored(self):
        agent = ScriptedAgent([(1.0, 0.25), (2.0, 0.5)])
        assert agent.observe(Observation("step", 0.5)).fraction == 1.0
        assert agent.observe(Observation("step", 1.0)).fraction == 0.25
        assert agent.observe(Observation("step", 1.5)).fraction == 0.25
        assert agent.observe(Observation("step", 9.0)).fraction == 0.5

    def test_warning_is_noop(self):
        agent = ScriptedAgent([(0.0, 0.5)])
        assert agent.observe(Observation("warning", 1.0, warning=True)) is ACTION_NONE
        assert agent.warning_noop_until(1.0) == float("inf")

    def test_horizon_is_next_breakpoint(self):
        agent = ScriptedAgent([(1.0, 0.25), (2.0, 0.5)])
        assert agent.fraction_horizon(0.0) == 1.0
        assert agent.fraction_horizon(1.0) == 2.0
        assert agent.fraction_horizon(5.0) == float("inf")

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            ScriptedAgent([(0.0, 1.5)])


class TestAdapterPlumbing:
    def test_coercers_round_trip(self):
        policy = make_policy("coolpim-sw")
        agent = as_agent(policy)
        assert isinstance(agent, PolicyAgent)
        assert as_agent(agent) is agent
        assert as_policy(policy) is policy
        back = as_policy(agent)
        assert isinstance(back, AgentPolicy)
        assert back.name == policy.name

    def test_coercers_reject_other_types(self):
        with pytest.raises(TypeError):
            as_agent(object())
        with pytest.raises(TypeError):
            as_policy(42)

    def test_unbound_agent_policy_degrades_gracefully(self):
        """Unit-test usage without a simulator: no sensor, no flow."""
        policy = as_policy(ScriptedAgent([(0.0, 0.5)]))
        policy.begin(None)
        assert policy.pim_fraction(0.0) == 0.5
        policy.on_thermal_warning(1.0, 90.0)  # must not raise
        assert policy.pim_fraction(2.0) == 0.5

    def test_action_fraction_is_clamped(self):
        class Wild(ScriptedAgent):
            def observe(self, obs):
                return Action(fraction=3.0)

        policy = as_policy(Wild([(0.0, 1.0)]))
        policy.begin(None)
        assert policy.pim_fraction(0.0) == 1.0

    def test_thermal_exempt_passes_through(self):
        assert as_policy(PolicyAgent(make_policy("ideal-thermal"))).thermal_exempt
        assert not as_policy(PolicyAgent(make_policy("coolpim-sw"))).thermal_exempt

    def test_reuse_across_runs_resets_state(self):
        """One AgentPolicy object, two launches: no history leak."""
        policy = as_policy(ScriptedAgent([(0.0, 0.5)]))
        sim = build_sim("stepped")
        sim.run(hot_launch(n_epochs=2), policy)
        first = list(policy.fraction_history)
        sim2 = build_sim("stepped")
        sim2.run(hot_launch(n_epochs=2), policy)
        assert policy.fraction_history == first
