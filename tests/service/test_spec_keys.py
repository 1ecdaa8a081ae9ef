"""Key audit for :func:`repro.service.handlers.simulation_spec`.

``JobSpec.key`` addresses the result store, so every argument that
changes a simulation payload must change the key, and nothing else may:
the default ``engine="macro"`` keys like an omitted engine, execution
knobs (``timeout_s``, ``max_retries``) never enter the key, and
``scenario_seed`` matters only when a scenario is set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import POLICY_NAMES
from repro.graph.datasets import list_datasets
from repro.scenarios.presets import SCENARIO_NAMES
from repro.service.handlers import simulation_spec
from repro.thermal.cooling import COOLING_SOLUTIONS
from repro.workloads.registry import list_workloads

#: Every payload-changing argument of simulation_spec and its domain.
PAYLOAD_ARGS = {
    "workload": st.sampled_from(list_workloads(include_extras=True)),
    "dataset": st.sampled_from(list_datasets()),
    "policy": st.sampled_from(POLICY_NAMES),
    "cooling": st.sampled_from(sorted(COOLING_SOLUTIONS)),
    "seed": st.integers(0, 2**31 - 1),
    "workload_scale": st.sampled_from([1.0, 0.5, 0.25, 0.1]),
    "engine": st.sampled_from(["macro", "stepped"]),
    "trace": st.booleans(),
    "scenario": st.sampled_from([None, *SCENARIO_NAMES]),
    "scenario_seed": st.integers(0, 1000),
}

configs = st.fixed_dictionaries(PAYLOAD_ARGS)


@settings(max_examples=200, deadline=None)
@given(base=configs, arg=st.sampled_from(sorted(PAYLOAD_ARGS)), data=st.data())
def test_every_payload_argument_changes_the_key(base, arg, data):
    value = data.draw(PAYLOAD_ARGS[arg].filter(lambda v: v != base[arg]))
    changed = dict(base, **{arg: value})
    if arg == "scenario_seed" and base["scenario"] is None:
        # Without a scenario the seed reaches no payload: same key.
        assert simulation_spec(**changed).key == simulation_spec(**base).key
    else:
        assert simulation_spec(**changed).key != simulation_spec(**base).key


@settings(max_examples=50, deadline=None)
@given(base=configs)
def test_default_engine_keys_like_an_omitted_engine(base):
    omitted = {k: v for k, v in base.items() if k != "engine"}
    assert (simulation_spec(**dict(omitted, engine="macro")).key
            == simulation_spec(**omitted).key)


@settings(max_examples=50, deadline=None)
@given(
    base=configs,
    timeout_s=st.none() | st.floats(0.1, 1e4),
    max_retries=st.integers(0, 10),
)
def test_execution_knobs_stay_out_of_the_key(base, timeout_s, max_retries):
    knobbed = simulation_spec(
        **base, timeout_s=timeout_s, max_retries=max_retries
    )
    assert knobbed.key == simulation_spec(**base).key
