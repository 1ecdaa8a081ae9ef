"""JobSpec identity: canonical hashing, serialization, handler resolution."""

import pickle
from dataclasses import replace

import pytest

from repro.service.jobs import (
    JobFailure,
    JobResult,
    JobSpec,
    UnknownJobKindError,
    canonical_json,
    register_handler,
    resolve_handler,
    unregister_handler,
)


def spec(**overrides) -> JobSpec:
    base = dict(
        kind="simulation",
        name="pagerank/coolpim-hw@ldbc",
        params={"workload": "pagerank", "policy": "coolpim-hw", "dataset": "ldbc"},
        seed=0,
    )
    base.update(overrides)
    return JobSpec(**base)


class TestCacheKey:
    def test_same_spec_same_hash(self):
        assert spec().key == spec().key

    def test_key_is_hex_sha256(self):
        key = spec().key
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_param_order_does_not_matter(self):
        a = spec(params={"workload": "bfs-ta", "policy": "coolpim-sw"})
        b = spec(params={"policy": "coolpim-sw", "workload": "bfs-ta"})
        assert a.key == b.key

    @pytest.mark.parametrize(
        "change",
        [
            {"kind": "experiment"},
            {"name": "other-name"},
            {"params": {"workload": "bfs-ta"}},
            {"params": {"workload": "pagerank", "policy": "coolpim-hw",
                        "dataset": "ldbc", "extra": 1}},
            {"seed": 7},
        ],
    )
    def test_any_identity_field_change_changes_hash(self, change):
        assert spec().key != spec(**change).key

    def test_execution_knobs_do_not_change_hash(self):
        # Retuning timeouts must not invalidate cached results.
        assert spec().key == spec(timeout_s=5.0).key

    def test_nested_params_hash_canonically(self):
        a = spec(params={"scale": {"dataset": "ldbc", "seed": 1}})
        b = spec(params={"scale": {"seed": 1, "dataset": "ldbc"}})
        assert a.key == b.key

    def test_non_json_params_rejected(self):
        with pytest.raises(TypeError):
            spec(params={"bad": object()}).key

    def test_caller_mutation_after_construction_changes_nothing(self):
        params = {"workload": "pagerank", "scale": {"seed": 1}}
        s = spec(params=params)
        key, as_dict = s.key, s.to_dict()
        params["workload"] = "bfs-ta"
        params["scale"]["seed"] = 2
        params["extra"] = [1, 2]
        assert s.key == key
        assert s.to_dict() == as_dict
        assert s.key == spec(params={"workload": "pagerank",
                                     "scale": {"seed": 1}}).key

    def test_replace_rehashes(self):
        s = spec()
        assert replace(s, seed=7).key == spec(seed=7).key
        assert replace(s, timeout_s=2.0).key == s.key

    def test_pickle_round_trip_keeps_the_key(self):
        s = spec(timeout_s=1.0, tags=("x",))
        restored = pickle.loads(pickle.dumps(s))
        assert restored == s
        assert restored.key == s.key
        assert restored.to_dict() == s.to_dict()


class TestSerialization:
    def test_round_trip_preserves_identity(self):
        s = spec(timeout_s=2.5, tags=("a", "b"))
        restored = JobSpec.from_dict(s.to_dict())
        assert restored == s
        assert restored.key == s.key

    def test_from_dict_ignores_a_retry_budget(self):
        """Specs written when jobs could retry still load, as the same
        job."""
        s = spec(timeout_s=2.5)
        old = dict(s.to_dict(), max_retries=3)
        assert JobSpec.from_dict(old) == s

    def test_canonical_json_is_deterministic(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_outcome_records_serialize(self):
        r = JobResult(key="k", name="n", payload={"x": 1}, elapsed_s=0.5)
        f = JobFailure(key="k", name="n", reason="timeout", message="m", attempts=2)
        assert r.to_dict()["payload"] == {"x": 1}
        assert f.to_dict()["reason"] == "timeout"


class TestHandlerResolution:
    def test_builtin_kinds_resolve(self):
        from repro.service.handlers import run_experiment_job, run_simulation_job

        assert resolve_handler("experiment") is run_experiment_job
        assert resolve_handler("simulation") is run_simulation_job

    def test_registry_wins_and_unregisters(self):
        marker = lambda s: {"hit": True}  # noqa: E731
        register_handler("test-kind", marker)
        try:
            assert resolve_handler("test-kind") is marker
        finally:
            unregister_handler("test-kind")
        with pytest.raises(UnknownJobKindError):
            resolve_handler("test-kind")

    def test_module_function_path_resolves(self):
        from repro.service.handlers import run_simulation_job

        handler = resolve_handler("repro.service.handlers:run_simulation_job")
        assert handler is run_simulation_job

    def test_unknown_kind_raises(self):
        with pytest.raises(UnknownJobKindError):
            resolve_handler("no-such-kind")
        with pytest.raises(UnknownJobKindError):
            resolve_handler("no.such.module:fn")
