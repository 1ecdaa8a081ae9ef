"""Process-pool job scheduler with caching and graceful failure.

The :class:`JobScheduler` turns a list of :class:`~repro.service.jobs.JobSpec`
into a :class:`SweepReport`:

1. **Cache check** — specs whose content key is already in the
   :class:`~repro.service.store.ResultStore` (with a matching code
   fingerprint) are served without running anything; a killed sweep
   therefore resumes exactly where it stopped.
2. **Execution** — remaining jobs run on a ``concurrent.futures``
   process pool (fork start method where available, so runtime-registered
   job kinds work in workers). Per-job timeouts are enforced *inside* the
   worker via ``SIGALRM``, which frees the pool slot immediately and
   never breaks the pool.
3. **Degradation** — nothing is retried: a handler exception or timeout
   ends its job; a worker process that dies outright (segfault, ``os._exit``)
   breaks the pool, which the scheduler rebuilds. Every failure becomes
   a structured :class:`~repro.service.jobs.JobFailure` record — one bad
   job never kills the sweep.

Crash attribution: ``concurrent.futures`` cannot say *which* job killed
a broken pool, so workers touch a ``<key>.started`` marker in
a per-run scratch directory on entry. After a break, jobs that never
started are simply re-queued, while every started-but-unresolved job is
**quarantined**: re-run alone in a single-worker pool, where a repeat
crash is unambiguously its own doing (→ ``JobFailure(reason="crash")``)
and an innocent bystander of someone else's crash completes normally.
Either way the job ran twice, and its outcome records ``attempts=2``.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.tracer import get_tracer
from repro.service.jobs import (
    JobFailure,
    JobResult,
    JobSpec,
    JobTimeoutError,
    resolve_handler,
)
from repro.service.journal import JobJournal
from repro.service.store import ResultStore


def _worker_start() -> None:
    """Pool worker start-up, before any job.

    A forked worker inherits the parent's telemetry series, and those
    belong to the parent: advance the flush watermarks past them so a
    worker's deltas carry only its own increments (else every worker
    would re-ship the parent's counts).
    """
    from repro.telemetry import get_registry

    get_registry().flush_deltas()


def _worker_run(
    spec_dict: Dict[str, Any],
    scratch_dir: Optional[str] = None,
    collect_telemetry: bool = False,
) -> Dict[str, Any]:
    """Execute one job (module-level: must be picklable).

    Runs in a pool worker (or inline in serial mode). Arms a ``SIGALRM``
    timer for the spec's timeout so a hung job raises
    :class:`JobTimeoutError` instead of wedging its pool slot forever.

    ``collect_telemetry`` is set on *pooled* runs only: the worker
    flushes its process-local telemetry registry deltas into the result
    dict, and the parent merges them into its own series — the
    worker→parent half of the ``GET /metrics`` pipe. Serial runs
    record straight into the parent registry, so flushing there would
    double-count.
    """
    spec = JobSpec.from_dict(spec_dict)
    if scratch_dir:
        # Start marker: lets the parent attribute pool breakage to jobs
        # that actually began executing.
        marker = Path(scratch_dir) / f"{spec.key}.started"
        try:
            marker.touch()
        except OSError:
            pass

    handler = resolve_handler(spec.kind)
    use_alarm = (
        spec.timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    previous = None
    if use_alarm:
        def _on_alarm(_signum, _frame):
            raise JobTimeoutError(
                f"job {spec.name!r} exceeded its {spec.timeout_s:g}s timeout"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(spec.timeout_s))
    start = time.perf_counter()
    try:
        payload = handler(spec)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise TypeError(
            f"job handler for kind {spec.kind!r} must return a dict, "
            f"got {type(payload).__name__}"
        )
    out = {
        "payload": payload,
        "elapsed_s": time.perf_counter() - start,
        "pid": os.getpid(),
    }
    if collect_telemetry:
        from repro.telemetry import get_registry

        deltas = get_registry().flush_deltas()
        if deltas is not None:
            out["telemetry"] = deltas
    return out


@dataclass
class SweepReport:
    """Outcome of one :meth:`JobScheduler.run` call."""

    results: Dict[str, JobResult] = field(default_factory=dict)
    failures: Dict[str, JobFailure] = field(default_factory=dict)
    elapsed_s: float = 0.0
    cache_hits: int = 0
    executed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def result_for(self, spec: JobSpec) -> Optional[JobResult]:
        return self.results.get(spec.key)

    def failure_for(self, spec: JobSpec) -> Optional[JobFailure]:
        return self.failures.get(spec.key)

    def summary_line(self) -> str:
        return (
            f"{len(self.results)} ok ({self.cache_hits} cached, "
            f"{self.executed} executed), "
            f"{len(self.failures)} failed in {self.elapsed_s:.1f} s"
        )


class JobScheduler:
    """Runs job specs over a process pool with caching; no retries.

    Parameters
    ----------
    store:
        Result cache; ``None`` disables caching entirely.
    journal:
        Lifecycle event log; ``None`` disables journaling.
    max_workers:
        Pool size (default: ``min(os.cpu_count(), job count)``).
    serial:
        Execute in-process instead of a pool (deterministic ordering,
        easier debugging; timeouts still enforced via ``SIGALRM``).
    use_cache:
        Set ``False`` to force re-execution while still writing fresh
        results back to the store.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        journal: Optional[JobJournal] = None,
        max_workers: Optional[int] = None,
        serial: bool = False,
        use_cache: bool = True,
    ) -> None:
        self.store = store
        self.journal = journal
        self.max_workers = max_workers
        self.serial = serial
        self.use_cache = use_cache
        # queued_at[key] = perf_counter at submission; lets completion
        # spans cover the full queue→start→done lifecycle.
        self._queued_at: Dict[str, float] = {}

    # -- journal helper ---------------------------------------------------

    def _log(self, event: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(event, **fields)

    # -- fleet metrics -----------------------------------------------------

    @staticmethod
    def _job_metric(
        status: str, spec: JobSpec, elapsed_s: Optional[float] = None
    ) -> None:
        """One bump per job outcome into the process-wide registry."""
        from repro.telemetry import get_registry

        reg = get_registry()
        reg.counter(
            "repro_jobs_total", "Job outcomes by kind and status",
            ("kind", "status"),
        ).labels(kind=spec.kind, status=status).inc()
        if elapsed_s is not None:
            reg.histogram(
                "repro_job_seconds", "Job handler latency", ("kind",),
            ).labels(kind=spec.kind).observe(elapsed_s)

    # -- public API -------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> SweepReport:
        """Execute ``specs`` (deduplicated by content key) to completion."""
        t0 = time.perf_counter()
        tracer = get_tracer()
        report = SweepReport()

        unique: List[JobSpec] = []
        seen: set = set()
        for spec in specs:
            if spec.key in seen:
                continue
            seen.add(spec.key)
            unique.append(spec)

        self._log(
            "sweep_start",
            jobs=len(unique),
            serial=self.serial,
            max_workers=self.max_workers,
        )

        pending: List[JobSpec] = []
        for spec in unique:
            hit = self.store.get(spec) if (self.store and self.use_cache) else None
            if hit is not None:
                report.results[spec.key] = JobResult(
                    key=spec.key,
                    name=spec.name,
                    payload=hit.payload,
                    elapsed_s=hit.elapsed_s,
                    attempts=0,
                    cached=True,
                )
                report.cache_hits += 1
                self._job_metric("cache_hit", spec)
                self._log("cache_hit", key=spec.key, name=spec.name)
                tracer.instant(
                    "scheduler.cache_hit", cat="scheduler", job=spec.name
                )
            else:
                pending.append(spec)
                self._queued_at[spec.key] = time.perf_counter()
                self._log("submitted", key=spec.key, name=spec.name)

        if pending:
            if self.serial:
                self._run_serial(pending, report)
            else:
                self._run_pool(pending, report)

        report.elapsed_s = time.perf_counter() - t0
        self._log(
            "sweep_end",
            ok=len(report.results),
            cached=report.cache_hits,
            executed=report.executed,
            failed=len(report.failures),
            elapsed_s=report.elapsed_s,
        )
        tracer.complete(
            "scheduler.sweep", t0, time.perf_counter(), cat="scheduler",
            jobs=len(unique), cached=report.cache_hits,
            executed=report.executed, failed=len(report.failures),
        )
        return report

    # -- shared bookkeeping -----------------------------------------------

    def _record_success(
        self, report: SweepReport, spec: JobSpec, out: Dict[str, Any],
        attempts: int,
    ) -> None:
        result = JobResult(
            key=spec.key,
            name=spec.name,
            payload=out["payload"],
            elapsed_s=out["elapsed_s"],
            cached=False,
            attempts=attempts,
            worker_pid=out.get("pid"),
        )
        report.results[spec.key] = result
        report.executed += 1
        deltas = out.get("telemetry")
        if deltas is not None:
            # Worker→parent pipe: fold the worker's registry deltas into
            # the parent's process-wide series and journal the flush.
            from repro.telemetry import get_registry

            try:
                get_registry().merge(deltas)
                self._log(
                    "telemetry_flush",
                    key=spec.key,
                    pid=result.worker_pid,
                    counters=len(deltas.get("counters", ())),
                    gauges=len(deltas.get("gauges", ())),
                    histograms=len(deltas.get("histograms", ())),
                )
            except ValueError as exc:
                self._log("telemetry_flush_error", key=spec.key,
                          message=str(exc))
        self._job_metric("completed", spec, result.elapsed_s)
        if self.store is not None:
            self.store.put(spec, result.payload, elapsed_s=result.elapsed_s)
        self._log(
            "completed",
            key=spec.key,
            name=spec.name,
            elapsed_s=result.elapsed_s,
            attempts=attempts,
            duration_s=result.elapsed_s,
            attempt=attempts,
            pid=result.worker_pid,
        )
        tracer = get_tracer()
        if tracer.enabled:
            done = time.perf_counter()
            queued = self._queued_at.get(spec.key, done - result.elapsed_s)
            # Two nested spans: full queue→done lifecycle, and the handler
            # execution reconstructed from the worker-reported elapsed time.
            tracer.complete(
                "scheduler.job", queued, done, cat="scheduler",
                job=spec.name, kind=spec.kind, attempts=attempts,
                queue_s=max(0.0, done - result.elapsed_s - queued),
            )
            tracer.complete(
                "scheduler.job.run", done - result.elapsed_s, done,
                cat="scheduler", job=spec.name, pid=result.worker_pid,
            )

    def _record_failure(
        self,
        report: SweepReport,
        spec: JobSpec,
        reason: str,
        message: str,
        attempts: int,
    ) -> None:
        failure = JobFailure(
            key=spec.key,
            name=spec.name,
            reason=reason,
            message=message,
            attempts=attempts,
        )
        report.failures[spec.key] = failure
        self._job_metric("failed", spec)
        self._log(
            "failed",
            key=spec.key,
            name=spec.name,
            reason=reason,
            message=message,
            attempts=attempts,
            attempt=attempts,
        )
        get_tracer().instant(
            "scheduler.job_failed", cat="scheduler",
            job=spec.name, reason=reason, attempts=attempts,
        )

    def _settle(
        self, report: SweepReport, spec: JobSpec, outcome: Callable[[], Any],
        attempts: int = 1,
    ) -> None:
        """Record the job's last run: ``outcome()`` returns its
        :func:`_worker_run` output or raises what the run raised."""
        try:
            out = outcome()
        except JobTimeoutError as exc:
            self._record_failure(report, spec, "timeout", str(exc), attempts)
        except Exception as exc:  # noqa: BLE001 — degrade, don't die
            self._record_failure(
                report, spec, "error", f"{type(exc).__name__}: {exc}",
                attempts,
            )
        else:
            self._record_success(report, spec, out, attempts)

    # -- serial execution -------------------------------------------------

    def _run_serial(self, pending: Sequence[JobSpec], report: SweepReport) -> None:
        for spec in pending:
            self._settle(report, spec, lambda: _worker_run(spec.to_dict()))

    # -- pooled execution -------------------------------------------------

    def _mp_context(self):
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return None

    def _new_executor(self, ctx, n_jobs: int) -> ProcessPoolExecutor:
        workers = self.max_workers or min(os.cpu_count() or 2, max(n_jobs, 1))
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_worker_start,
        )

    def _run_pool(self, pending: Sequence[JobSpec], report: SweepReport) -> None:
        ctx = self._mp_context()
        scratch = tempfile.mkdtemp(prefix="repro-jobs-")
        queued: List[JobSpec] = list(pending)
        in_flight: Dict[Any, JobSpec] = {}
        executor = self._new_executor(ctx, len(pending))

        def started(spec: JobSpec) -> bool:
            return (Path(scratch) / f"{spec.key}.started").exists()

        def run_quarantined(spec: JobSpec) -> None:
            """Re-run a crash suspect alone in a one-worker pool.

            In isolation a repeat pool break is unambiguously this job's
            own crash; anything else resolves normally.
            """
            self._log("quarantined", key=spec.key, name=spec.name, attempt=2)
            get_tracer().instant(
                "scheduler.quarantined", cat="scheduler",
                job=spec.name, attempt=2,
            )
            qexec = ProcessPoolExecutor(
                max_workers=1, mp_context=ctx, initializer=_worker_start,
            )
            try:
                fut = qexec.submit(_worker_run, spec.to_dict(), scratch, True)
                if isinstance(fut.exception(), BrokenProcessPool):
                    self._record_failure(
                        report, spec, "crash", "worker process died", 2
                    )
                else:
                    self._settle(report, spec, fut.result, attempts=2)
            finally:
                qexec.shutdown(wait=False, cancel_futures=True)

        try:
            while queued or in_flight:
                for spec in queued:
                    fut = executor.submit(
                        _worker_run, spec.to_dict(), scratch, True
                    )
                    in_flight[fut] = spec
                queued.clear()

                done, _ = futures_wait(
                    list(in_flight), return_when=FIRST_COMPLETED
                )
                pool_broken = False
                quarantine: List[JobSpec] = []
                for fut in done:
                    spec = in_flight.pop(fut)
                    if isinstance(fut.exception(), BrokenProcessPool):
                        pool_broken = True
                        (quarantine if started(spec) else queued).append(spec)
                    else:
                        self._settle(report, spec, fut.result)

                if pool_broken:
                    # Everything still in flight is doomed with the pool:
                    # sort it into crash suspects (started) and innocents
                    # (queued only), rebuild the executor, and resolve the
                    # suspects in isolation.
                    executor.shutdown(wait=False, cancel_futures=True)
                    for spec in in_flight.values():
                        (quarantine if started(spec) else queued).append(spec)
                    in_flight.clear()
                    self._log("pool_rebuilt", pending=len(queued))
                    get_tracer().instant(
                        "scheduler.pool_rebuilt", cat="scheduler",
                        pending=len(queued),
                    )
                    executor = self._new_executor(ctx, len(queued) or 1)
                    for spec in quarantine:
                        run_quarantined(spec)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            shutil.rmtree(scratch, ignore_errors=True)
