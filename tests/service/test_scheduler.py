"""Scheduler: pool execution, caching/resume, run-once, timeouts, crashes.

Test job kinds are registered at import time; pooled tests rely on the
fork start method (workers inherit the registry), so they are skipped on
platforms without fork.
"""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.service import (
    JobJournal,
    JobScheduler,
    JobSpec,
    ResultStore,
    register_handler,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
HAS_ALARM = hasattr(signal, "SIGALRM")

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="pooled test kinds need the fork start method"
)
needs_alarm = pytest.mark.skipif(
    not HAS_ALARM, reason="per-job timeouts need SIGALRM"
)


def _ok(spec):
    return {"value": spec.params.get("v", 0), "seed": spec.seed}


def _sleep(spec):
    time.sleep(spec.params["duration_s"])
    return {"slept": spec.params["duration_s"]}


def _crash(spec):
    os._exit(3)


def _fail_until(spec):
    """Fail until ``attempts_needed`` invocations have happened.

    The attempt counter is a directory of marker files, so it survives
    process boundaries.
    """
    counter_dir = Path(spec.params["counter_dir"])
    counter_dir.mkdir(parents=True, exist_ok=True)
    calls = len(list(counter_dir.iterdir())) + 1
    (counter_dir / f"call-{calls}").touch()
    if calls < spec.params["attempts_needed"]:
        raise RuntimeError(f"induced failure on call {calls}")
    return {"succeeded_on_call": calls}


def _tele(spec):
    """Bump a telemetry counter in whatever process runs the job."""
    from repro.telemetry import get_registry

    get_registry().counter(
        "t_tele_calls_total", help="test handler invocations"
    ).inc()
    return {"value": spec.params.get("v", 0)}


for _kind, _fn in [
    ("t-ok", _ok),
    ("t-sleep", _sleep),
    ("t-crash", _crash),
    ("t-fail-until", _fail_until),
    ("t-tele", _tele),
]:
    register_handler(_kind, _fn)


def ok_specs(n, **kw):
    return [
        JobSpec(kind="t-ok", name=f"ok{i}", params={"v": i}, **kw)
        for i in range(n)
    ]


class TestSerialExecution:
    def test_runs_all_jobs_and_reports(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        report = JobScheduler(store=store, serial=True).run(ok_specs(3))
        assert report.ok and report.executed == 3 and report.cache_hits == 0
        payloads = sorted(r.payload["value"] for r in report.results.values())
        assert payloads == [0, 1, 2]

    def test_duplicate_specs_run_once(self, tmp_path):
        specs = ok_specs(1) + ok_specs(1)
        report = JobScheduler(serial=True).run(specs)
        assert len(report.results) == 1 and report.executed == 1

    def test_handler_error_becomes_jobfailure_not_exception(self, tmp_path):
        specs = [
            JobSpec(kind="t-fail-until", name="always-fails",
                    params={"counter_dir": str(tmp_path / "c"),
                            "attempts_needed": 99}),
            *ok_specs(2),
        ]
        report = JobScheduler(serial=True).run(specs)
        assert len(report.results) == 2  # sweep completed around the failure
        (failure,) = report.failures.values()
        assert failure.reason == "error"
        assert "induced failure" in failure.message
        assert failure.attempts == 1

    def test_failed_job_runs_once(self, tmp_path):
        """A job that would pass on a second call fails: nothing re-runs
        it."""
        counter = tmp_path / "c"
        spec = JobSpec(kind="t-fail-until", name="flaky",
                       params={"counter_dir": str(counter),
                               "attempts_needed": 2})
        journal_path = tmp_path / "journal.jsonl"
        with JobJournal(journal_path) as journal:
            report = JobScheduler(serial=True, journal=journal).run([spec])
        assert report.failure_for(spec).attempts == 1
        assert len(list(counter.iterdir())) == 1
        counts = JobJournal.summary(journal_path)
        assert counts["failed"] == 1 and set(counts) == {
            "sweep_start", "submitted", "failed", "sweep_end",
        }

    def test_completed_events_carry_both_timing_spellings(self, tmp_path):
        # New readers use duration_s/attempt; old readers still find
        # elapsed_s/attempts — both spellings are written.
        journal_path = tmp_path / "journal.jsonl"
        with JobJournal(journal_path) as journal:
            JobScheduler(serial=True, journal=journal).run(ok_specs(1))
        (completed,) = [
            e for e in JobJournal.read(journal_path)
            if e["event"] == "completed"
        ]
        assert completed["duration_s"] == completed["elapsed_s"]
        assert completed["attempt"] == completed["attempts"] == 1

    def test_tracing_records_scheduler_spans(self):
        from repro.obs.tracer import tracing

        with tracing() as tr:
            report = JobScheduler(serial=True).run(ok_specs(2))
        assert report.ok
        names = [r["name"] for r in tr.records]
        assert names.count("scheduler.job") == 2
        assert names.count("scheduler.job.run") == 2
        assert "scheduler.sweep" in names

    @needs_alarm
    def test_serial_timeout(self, tmp_path):
        spec = JobSpec(kind="t-sleep", name="slow",
                       params={"duration_s": 5.0}, timeout_s=0.2)
        t0 = time.monotonic()
        report = JobScheduler(serial=True).run([spec])
        assert time.monotonic() - t0 < 4.0
        failure = report.failure_for(spec)
        assert failure is not None and failure.reason == "timeout"


class TestCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        journal_path = tmp_path / "journal.jsonl"
        specs = ok_specs(4)
        with JobJournal(journal_path) as journal:
            sched = JobScheduler(store=store, journal=journal, serial=True)
            first = sched.run(specs)
            second = sched.run(specs)
        assert first.executed == 4 and first.cache_hits == 0
        assert second.executed == 0 and second.cache_hits == 4
        assert {k: r.payload for k, r in second.results.items()} == {
            k: r.payload for k, r in first.results.items()
        }
        counts = JobJournal.summary(journal_path)
        assert counts["cache_hit"] == 4 and counts["completed"] == 4

    def test_resumed_sweep_skips_completed_jobs(self, tmp_path):
        """A killed sweep's completed jobs are served from the store."""
        store = ResultStore(root=tmp_path, fingerprint="fp")
        all_specs = ok_specs(5)
        # First invocation "died" after finishing only the first two jobs.
        JobScheduler(store=store, serial=True).run(all_specs[:2])
        journal_path = tmp_path / "journal.jsonl"
        with JobJournal(journal_path) as journal:
            report = JobScheduler(store=store, journal=journal,
                                  serial=True).run(all_specs)
        assert report.cache_hits == 2 and report.executed == 3
        assert len(report.results) == 5
        counts = JobJournal.summary(journal_path)
        assert counts["cache_hit"] == 2 and counts["submitted"] == 3

    def test_fingerprint_change_forces_rerun(self, tmp_path):
        specs = ok_specs(2)
        JobScheduler(store=ResultStore(root=tmp_path, fingerprint="fp-old"),
                     serial=True).run(specs)
        report = JobScheduler(
            store=ResultStore(root=tmp_path, fingerprint="fp-new"),
            serial=True,
        ).run(specs)
        assert report.cache_hits == 0 and report.executed == 2

    def test_use_cache_false_reexecutes_but_refreshes_store(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        specs = ok_specs(2)
        JobScheduler(store=store, serial=True).run(specs)
        report = JobScheduler(store=store, serial=True,
                              use_cache=False).run(specs)
        assert report.cache_hits == 0 and report.executed == 2
        assert store.stats().entries == 2

    def test_failures_are_not_cached(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        spec = JobSpec(kind="t-fail-until", name="doomed",
                       params={"counter_dir": str(tmp_path / "c1"),
                               "attempts_needed": 99})
        JobScheduler(store=store, serial=True).run([spec])
        assert store.stats().entries == 0


@needs_fork
class TestPooledExecution:
    def test_pool_runs_all_jobs(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        report = JobScheduler(store=store, max_workers=2).run(ok_specs(6))
        assert report.ok and report.executed == 6
        pids = {r.worker_pid for r in report.results.values()}
        assert os.getpid() not in pids  # genuinely ran out-of-process

    def test_pool_cache_hits_on_second_run(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="fp")
        specs = ok_specs(4)
        JobScheduler(store=store, max_workers=2).run(specs)
        report = JobScheduler(store=store, max_workers=2).run(specs)
        assert report.cache_hits == 4 and report.executed == 0

    def test_crash_produces_jobfailure_and_sweep_completes(self, tmp_path):
        specs = [JobSpec(kind="t-crash", name="crasher")] + ok_specs(5)
        journal_path = tmp_path / "journal.jsonl"
        with JobJournal(journal_path) as journal:
            report = JobScheduler(max_workers=2, journal=journal).run(specs)
        assert len(report.results) == 5
        (failure,) = report.failures.values()
        assert failure.name == "crasher" and failure.reason == "crash"
        # It crashed once in the shared pool and once more in quarantine.
        assert failure.attempts == 2
        counts = JobJournal.summary(journal_path)
        assert counts["failed"] == 1 and counts["completed"] == 5
        (failed,) = [e for e in JobJournal.read(journal_path)
                     if e["event"] == "failed"]
        assert failed["attempts"] == failed["attempt"] == 2

    @needs_alarm
    def test_timeout_produces_jobfailure_and_frees_the_pool(self, tmp_path):
        specs = [
            JobSpec(kind="t-sleep", name="hung",
                    params={"duration_s": 30.0}, timeout_s=0.3),
            *ok_specs(3),
        ]
        t0 = time.monotonic()
        report = JobScheduler(max_workers=2).run(specs)
        assert time.monotonic() - t0 < 15.0  # nobody waited the full 30 s
        failure = report.failure_for(specs[0])
        assert failure is not None and failure.reason == "timeout"
        assert len(report.results) == 3

    def test_pool_failed_job_runs_once(self, tmp_path):
        counter = tmp_path / "c"
        spec = JobSpec(kind="t-fail-until", name="flaky",
                       params={"counter_dir": str(counter),
                               "attempts_needed": 2})
        report = JobScheduler(max_workers=2).run([spec, *ok_specs(2)])
        failure = report.failure_for(spec)
        assert failure.reason == "error" and failure.attempts == 1
        assert len(list(counter.iterdir())) == 1
        assert len(report.results) == 2

    def test_worker_telemetry_deltas_merge_into_parent(self, tmp_path):
        """The worker→parent pipe: forked workers flush registry deltas
        through the job result; the parent folds them in and journals
        the flush, so /metrics covers the whole fleet."""
        from repro.telemetry.registry import TelemetryRegistry, set_registry

        previous = set_registry(TelemetryRegistry())
        journal_path = tmp_path / "journal.jsonl"
        try:
            specs = [
                JobSpec(kind="t-tele", name=f"tele{i}", params={"v": i})
                for i in range(3)
            ]
            with JobJournal(journal_path) as journal:
                report = JobScheduler(max_workers=2, journal=journal).run(specs)
            assert report.ok
            from repro.telemetry import get_registry

            reg = get_registry()
            fam = reg.counter("t_tele_calls_total")
            assert fam.value == 3.0  # one inc per worker invocation
            # Parent-side job accounting rides the same registry.
            jobs = reg.counter(
                "repro_jobs_total", labelnames=("kind", "status")
            )
            assert jobs.labels(kind="t-tele", status="completed").value == 3.0
        finally:
            set_registry(previous)
        events = [
            line for line in journal_path.read_text().splitlines()
            if '"telemetry_flush"' in line
        ]
        assert len(events) == 3

    def test_serial_jobs_skip_delta_flush_but_count(self, tmp_path):
        """Serial jobs run in-process against the parent registry — no
        delta document must ride the result (it would double-count), but
        the job counters still tick."""
        from repro.telemetry.registry import TelemetryRegistry, set_registry

        previous = set_registry(TelemetryRegistry())
        try:
            spec = JobSpec(kind="t-tele", name="tele", params={})
            report = JobScheduler(serial=True).run([spec])
            assert report.ok
            from repro.telemetry import get_registry

            reg = get_registry()
            assert reg.counter("t_tele_calls_total").value == 1.0
            jobs = reg.counter(
                "repro_jobs_total", labelnames=("kind", "status")
            )
            assert jobs.labels(kind="t-tele", status="completed").value == 1.0
        finally:
            set_registry(previous)


@needs_fork
class TestEndToEndSimulation:
    def test_real_simulation_jobs_through_the_pool(self, tmp_path):
        from repro.service import simulation_spec

        store = ResultStore(root=tmp_path)
        specs = [
            simulation_spec("kcore", dataset="ldbc-tiny",
                            policy="non-offloading"),
            simulation_spec("dc", dataset="ldbc-tiny", policy="coolpim-hw"),
        ]
        report = JobScheduler(store=store, max_workers=2).run(specs)
        assert report.ok
        for spec in specs:
            payload = report.result_for(spec).payload
            assert payload["result"]["runtime_s"] > 0
            assert payload["result"]["peak_dram_temp_c"] > 25.0
        # Resume: everything cached now.
        again = JobScheduler(store=store, max_workers=2).run(specs)
        assert again.cache_hits == 2 and again.executed == 0

    def test_seed_enters_cache_key(self, tmp_path):
        from repro.service import simulation_spec

        a = simulation_spec("kcore", dataset="ldbc-tiny", seed=0)
        b = simulation_spec("kcore", dataset="ldbc-tiny", seed=1)
        assert a.key != b.key
