"""Result store: hit/miss, fingerprint invalidation, maintenance."""

import json

from repro.service.fingerprint import code_fingerprint
from repro.service.jobs import JobSpec
from repro.service.store import ResultStore


def spec(name="job-a", seed=0) -> JobSpec:
    return JobSpec(kind="simulation", name=name, params={"n": name}, seed=seed)


class TestHitMiss:
    def test_miss_on_empty_store(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp1")
        assert store.get(spec()) is None

    def test_put_then_get_round_trips_payload(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp1")
        store.put(spec(), {"answer": 42}, elapsed_s=1.25)
        hit = store.get(spec())
        assert hit is not None
        assert hit.payload == {"answer": 42}
        assert hit.elapsed_s == 1.25
        assert hit.spec["name"] == "job-a"

    def test_lookup_by_raw_key(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp1")
        store.put(spec(), {"x": 1})
        assert store.get(spec().key).payload == {"x": 1}

    def test_different_seed_is_a_miss(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp1")
        store.put(spec(seed=0), {"x": 1})
        assert store.get(spec(seed=1)) is None

    def test_corrupt_record_is_a_miss_and_gets_dropped(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp1")
        path = store.put(spec(), {"x": 1})
        path.write_text("{not json")
        assert store.get(spec()) is None
        assert not path.exists()


class TestFingerprintInvalidation:
    def test_code_change_invalidates(self, tmp_path):
        old = ResultStore(root=tmp_path, fingerprint="fp-old")
        old.put(spec(), {"x": 1})
        new = ResultStore(root=tmp_path, fingerprint="fp-new")
        assert new.get(spec()) is None
        # The bytes are still there; only the fingerprint gate misses.
        assert new.get(spec(), check_fingerprint=False).payload == {"x": 1}

    def test_stats_counts_stale(self, tmp_path):
        ResultStore(root=tmp_path, fingerprint="fp-old").put(spec("a"), {})
        store = ResultStore(root=tmp_path, fingerprint="fp-new")
        store.put(spec("b"), {})
        stats = store.stats()
        assert stats.entries == 2
        assert stats.stale_entries == 1
        assert stats.total_bytes > 0

    def test_prune_stale_removes_only_old_fingerprints(self, tmp_path):
        ResultStore(root=tmp_path, fingerprint="fp-old").put(spec("a"), {})
        store = ResultStore(root=tmp_path, fingerprint="fp-new")
        store.put(spec("b"), {})
        assert store.prune_stale() == 1
        assert store.stats().entries == 1
        assert store.get(spec("b")) is not None

    def test_real_fingerprint_changes_with_source(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        fp1 = code_fingerprint(pkg)
        assert fp1 == code_fingerprint(pkg)  # stable
        (pkg / "a.py").write_text("x = 2\n")
        from repro.service.fingerprint import clear_fingerprint_cache

        clear_fingerprint_cache()
        assert code_fingerprint(pkg) != fp1

    def test_env_var_overrides_fingerprint(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "pinned")
        assert code_fingerprint() == "pinned"


class TestMaintenance:
    def test_clear(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        store.put(spec("a"), {})
        store.put(spec("b"), {})
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_entries_iterates_records(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        store.put(spec("a"), {"v": 1})
        store.put(spec("b"), {"v": 2})
        names = sorted(r["spec"]["name"] for r in store.entries())
        assert names == ["a", "b"]

    def test_records_are_valid_json_on_disk(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        path = store.put(spec(), {"v": 1})
        record = json.loads(path.read_text())
        assert record["key"] == spec().key
        assert record["payload"] == {"v": 1}
