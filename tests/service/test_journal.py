"""JSONL journal: append, read-back, torn-line tolerance, summaries."""

import threading

import pytest

from repro.service.journal import JobJournal


class TestJournal:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.append("submitted", key="k1", name="a")
            journal.append("completed", key="k1", name="a", elapsed_s=0.5)
        events = JobJournal.read(path)
        assert [e["event"] for e in events] == ["submitted", "completed"]
        assert all("ts" in e for e in events)
        assert events[1]["elapsed_s"] == 0.5

    def test_appends_across_instances_accumulate(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as j:
            j.append("sweep_start")
        with JobJournal(path) as j:
            j.append("sweep_end")
        assert len(JobJournal.read(path)) == 2

    def test_missing_file_reads_empty(self, tmp_path):
        assert JobJournal.read(tmp_path / "nope.jsonl") == []
        assert not JobJournal.summary(tmp_path / "nope.jsonl")

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as j:
            j.append("completed", key="k")
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"ts": 1.0, "event": "trunc')  # killed mid-write
        events = JobJournal.read(path)
        assert [e["event"] for e in events] == ["completed"]

    def test_summary_counts_and_since_filter(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as j:
            j.append("cache_hit")
            j.append("cache_hit")
            cut = j.append("completed")["ts"]
            j.append("cache_hit")
        counts = JobJournal.summary(path)
        assert counts["cache_hit"] == 3 and counts["completed"] == 1
        late = JobJournal.summary(path, since_ts=cut)
        assert late["cache_hit"] == 1


class TestRotation:
    def test_unbounded_by_default(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as j:
            for i in range(200):
                j.append("completed", key=f"k{i}")
        assert not j.rotated_path(1).exists()
        assert len(JobJournal.read(path)) == 200

    def test_rotates_when_append_would_exceed_limit(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, max_bytes=300) as j:
            for i in range(20):
                j.append("completed", key=f"key-{i:04d}")
        assert j.rotated_path(1).exists()
        # The current file stays under the bound.
        assert path.stat().st_size <= 300

    def test_no_event_is_lost_across_generations(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, max_bytes=300, keep=10) as j:
            for i in range(30):
                j.append("completed", n=i)
        events = JobJournal.read(path, include_rotated=True)
        # Oldest → newest across rotated generations, then current.
        assert [e["n"] for e in events] == list(range(30))
        # Default read sees only the current generation.
        assert len(JobJournal.read(path)) < 30

    def test_keep_bounds_total_generations(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, max_bytes=120, keep=2) as j:
            for i in range(60):
                j.append("completed", n=i)
        assert j.rotated_path(1).exists()
        assert j.rotated_path(2).exists()
        assert not j.rotated_path(3).exists()  # oldest dropped

    def test_summary_counts_only_current_generation(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, max_bytes=200) as j:
            for i in range(20):
                j.append("completed", n=i)
        assert JobJournal.summary(path)["completed"] < 20

    def test_oversized_single_event_still_lands(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, max_bytes=50) as j:
            j.append("completed", blob="x" * 200)
        events = JobJournal.read(path)
        assert len(events) == 1  # bigger than the bound, but never dropped

    def test_concurrent_appends_all_recorded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, max_bytes=2000, keep=50) as j:

            def write(tag):
                for i in range(25):
                    j.append("completed", tag=tag, n=i)

            threads = [
                threading.Thread(target=write, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        events = JobJournal.read(path, include_rotated=True)
        assert len(events) == 100

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JobJournal(tmp_path / "j.jsonl", max_bytes=0)
        with pytest.raises(ValueError):
            JobJournal(tmp_path / "j.jsonl", max_bytes=10, keep=0)
