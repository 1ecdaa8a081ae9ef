"""Journal durability contract: every record is flushed as it is
appended (a killed process loses none), and the file is fsynced once per
scheduler sweep and on close."""

import multiprocessing
import os

import pytest

from repro.api import ApiClient, ApiService, start_server_thread
from repro.service import journal as journal_module
from repro.service.journal import JobJournal
from repro.service.jobs import register_handler, unregister_handler
from repro.service.store import ResultStore

RECORDS = 25


def _append_and_die(path: str, count: int) -> None:
    journal = JobJournal(path)
    for i in range(count):
        journal.append("completed", key=f"k{i}", name="child")
    os._exit(1)  # no close, no interpreter teardown


class TestKilledProcess:
    def test_every_appended_record_survives_os_exit(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_append_and_die, args=(str(path), RECORDS))
        child.start()
        child.join(30)
        assert child.exitcode == 1
        events = JobJournal.read(path)
        assert [e["key"] for e in events] == [f"k{i}" for i in range(RECORDS)]


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` the journal module makes, as a list of fds."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(journal_module.os, "fsync", counting)
    return calls


class TestFsyncPoints:
    def test_only_sweep_end_and_close_sync(self, tmp_path, fsyncs):
        journal = JobJournal(tmp_path / "journal.jsonl")
        for event in ("sweep_start", "submitted", "completed"):
            journal.append(event)
        assert fsyncs == []
        journal.append("sweep_end")
        assert len(fsyncs) == 1
        journal.close()
        assert len(fsyncs) == 2
        journal.close()  # idempotent: nothing left to sync
        assert len(fsyncs) == 2

    def test_api_sweep_of_k_jobs_syncs_at_most_k_plus_one_times(
        self, tmp_path, fsyncs
    ):
        jobs = 4
        register_handler("fsynctest", lambda spec: {"result": dict(spec.params)})
        journal = JobJournal(tmp_path / "journal.jsonl")
        service = ApiService(
            store=ResultStore(tmp_path / "cache"), journal=journal,
            workers=1, allow_kinds=("fsynctest",),
        )
        handle = start_server_thread(service)
        try:
            client = ApiClient(handle.host, handle.port)
            doc = client.submit_sweep(
                kind="fsynctest",
                items=[{"params": {"value": n}} for n in range(jobs)],
            )
            for run in doc["runs"]:
                client.wait_for_run(run["run_id"], timeout_s=15.0)
        finally:
            handle.stop()
            journal.close()
            unregister_handler("fsynctest")
        events = JobJournal.read(tmp_path / "journal.jsonl")
        assert sum(e["event"] == "sweep_end" for e in events) == jobs
        assert 1 <= len(fsyncs) <= jobs + 1
