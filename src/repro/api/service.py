"""Async run registry: submissions, dedupe, fairness dispatch, events.

:class:`ApiService` is the stateful core the HTTP handlers talk to. It
owns:

- the **run registry** — every submission becomes a :class:`RunRecord`
  with a short id, a tenant, the underlying job spec, and an ordered
  event log;
- **dedupe** — a submission whose content key is already in the
  :class:`~repro.service.store.ResultStore` completes immediately from
  cache; one whose key is already queued or executing attaches to that
  leader (``coalesced_into``), never enters the queue, and shares its
  outcome. This is the only in-process coalescing layer; across
  processes the store dedupes;
- the **fairness layer** — leaders enter the
  :class:`~repro.api.fairness.FairQueue`; the dispatcher coroutine pulls
  from it round robin over tenants whenever a worker slot frees up;
- **execution** — each dispatched run executes on a thread of the worker
  pool via a :class:`~repro.service.scheduler.JobScheduler` sharing the
  service's store/journal;
- **event streams** — every state transition appends a seq-numbered
  event; ``GET /runs/{id}/events`` replays the log and then follows live
  appends, so a subscriber always sees ``queued → started → completed``
  in order no matter when it connects.

All mutation happens on the event loop; executor threads re-enter via
``call_soon_threadsafe``. The wakeup primitive is a rotating
``asyncio.Event``: waiters capture the current flag *before* inspecting
state, emitters set-and-replace it, so wakeups are never lost.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.fairness import FairQueue, QuotaExceeded
from repro.service.jobs import JobFailure, JobResult, JobSpec
from repro.service.journal import JobJournal
from repro.service.scheduler import JobScheduler
from repro.service.store import ResultStore
from repro.telemetry.live import RunTelemetrySink, run_telemetry
from repro.telemetry.registry import get_registry

#: Run states; the last three are terminal.
QUEUED, RUNNING = "queued", "running"
COMPLETED, FAILED, DRAINED = "completed", "failed", "drained"
TERMINAL_STATES = frozenset({COMPLETED, FAILED, DRAINED})
#: Run records kept; a submission past it drops the oldest terminal runs.
MAX_RUNS = 10_000
#: The fields :meth:`ApiService._emit` puts on every event.
_EVENT_FIELDS = frozenset({"seq", "event", "run_id", "ts"})


class ServiceClosed(Exception):
    """Submission arrived while the service is shutting down."""


class UnknownRun(KeyError):
    """No run with the requested id."""


@dataclass
class RunRecord:
    """One submission's lifecycle, event log, and outcome."""

    id: str
    tenant: str
    spec: JobSpec
    status: str = QUEUED
    submitted_unix: float = 0.0
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: Served straight from the result store (no execution anywhere).
    cached: bool = False
    #: Run id of the in-flight leader this submission attached to.
    coalesced_into: Optional[str] = None
    sweep_id: Optional[str] = None
    payload: Optional[Dict[str, Any]] = None
    elapsed_s: Optional[float] = None
    error: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def key(self) -> str:
        return self.spec.key

    def telemetry_samples(self) -> List[Dict[str, Any]]:
        """The in-flight samples, read back out of the ``telemetry``
        events without the fields :meth:`ApiService._emit` adds."""
        return [
            {k: v for k, v in e.items() if k not in _EVENT_FIELDS}
            for e in self.events if e["event"] == "telemetry"
        ]

    def to_dict(self, include_payload: bool = True) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "run_id": self.id,
            "tenant": self.tenant,
            "key": self.key,
            "name": self.spec.name,
            "kind": self.spec.kind,
            "status": self.status,
            "cached": self.cached,
            "coalesced_into": self.coalesced_into,
            "sweep_id": self.sweep_id,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "elapsed_s": self.elapsed_s,
            "error": self.error,
        }
        if include_payload and self.payload is not None:
            doc["result"] = _strip_timeline(self.payload)
        return doc


def _strip_timeline(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Payload copy without the bulky sampled timeline (that's what the
    trace artifact endpoint is for)."""
    out = dict(payload)
    result = out.get("result")
    if isinstance(result, dict) and "timeline" in result:
        result = dict(result)
        result.pop("timeline")
        out["result"] = result
    return out


def _requests_series():
    return get_registry().counter(
        "repro_api_requests_total",
        help="API submissions by tenant and outcome.",
        labelnames=("tenant", "status"),
    )


def _runs_series():
    return get_registry().counter(
        "repro_api_runs_total",
        help="Terminal run outcomes.",
        labelnames=("status",),
    )


def _run_seconds_series():
    return get_registry().histogram(
        "repro_api_run_seconds",
        help="Run wall time from execution start to terminal.",
    )


class ApiService:
    """The simulation service behind the HTTP layer."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        journal: Optional[JobJournal] = None,
        workers: int = 2,
        pool: bool = False,
        use_cache: bool = True,
        allow_kinds: Sequence[str] = (),
        tenant_quota: int = 64,
    ) -> None:
        self.store = store
        self.journal = journal
        self.queue = FairQueue(max_queued=tenant_quota)
        self.workers = max(1, workers)
        #: ``True`` → each job runs in a freshly forked one-worker process
        #: pool (a main thread for ``timeout_s``, crash isolation; nothing
        #: warm carries to the next job); ``False`` → the job executes
        #: serially in its executor thread.
        self.pool = pool
        self.use_cache = use_cache
        self.allow_kinds = frozenset(allow_kinds)
        #: Queue depth beyond which ``/readyz`` reports saturated (503).
        self.ready_backlog = max(16, 8 * self.workers)

        self.runs: Dict[str, RunRecord] = {}
        self.sweeps: Dict[str, Dict[str, Any]] = {}
        self.started_unix: Optional[float] = None

        self._leaders: Dict[str, str] = {}  # spec key → leader run id
        self._followers: Dict[str, List[str]] = {}
        self._running = 0
        self._sse_subscribers = 0
        self._closing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flag: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------

    async def startup(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._flag = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-api"
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self.started_unix = time.time()
        self._journal("api_start", workers=self.workers, pool=self.pool)

    async def shutdown(self, drain_timeout_s: float = 10.0) -> None:
        """Stop accepting, drain the queue back to the journal, wait for
        running jobs (bounded), then release the worker pool."""
        self._closing = True
        self._notify()
        if self._dispatcher is not None:
            await self._dispatcher
        # Queued-but-unstarted runs go back to the journal with their full
        # spec: content-addressing makes resubmission idempotent, so an
        # operator (or a restart script) can replay `api_drained` events.
        for _tenant, rid in self.queue.drain():
            rec = self.runs[rid]
            self._leaders.pop(rec.key, None)
            rec.status = DRAINED
            rec.finished_unix = time.time()
            rec.error = "server shut down before execution"
            self._metric_run_done(DRAINED, None)
            self._journal(
                "api_drained", run_id=rid, tenant=rec.tenant, key=rec.key,
                spec=rec.spec.to_dict(),
            )
            self._emit(rec, DRAINED, status=DRAINED)
            self._settle_followers(rec)
        deadline = time.monotonic() + drain_timeout_s
        while self._running and time.monotonic() < deadline:
            await self._wait_notify(timeout=0.1)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        counts = self._counts()
        self._journal(
            "api_stop",
            completed=counts["completed"],
            failed=counts["failed"],
            drained=counts["drained"],
            still_running=self._running,
        )

    # -- notification plumbing --------------------------------------------

    def _notify(self) -> None:
        """Wake every waiter (event subscribers, dispatcher)."""
        if self._flag is not None:
            flag, self._flag = self._flag, asyncio.Event()
            flag.set()

    async def _wait_notify(self, timeout: Optional[float] = None) -> None:
        """Wait for the *next* notification after this call.

        Callers must capture ``self._flag`` semantics via this method
        only after checking their predicate — see the event generator.
        """
        assert self._flag is not None
        flag = self._flag
        if timeout is None:
            await flag.wait()
        else:
            try:
                await asyncio.wait_for(flag.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def _journal(self, event: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(event, **fields)

    def _emit(self, rec: RunRecord, event: str, **fields: Any) -> None:
        record = {
            "seq": len(rec.events),
            "event": event,
            "run_id": rec.id,
            "ts": time.time(),
        }
        record.update(fields)
        rec.events.append(record)
        self._notify()

    def _emit_telemetry(self, rec: RunRecord, sample: Dict[str, Any]) -> None:
        """Append one in-flight telemetry sample (event-loop thread).

        Samples arriving after the run went terminal (the executor thread
        races the ``_on_done`` callback) are dropped: followers must never
        see events after the terminal one.
        """
        if rec.status in TERMINAL_STATES:
            return
        self._emit(rec, "telemetry", **sample)

    # -- process-wide telemetry (GET /metrics) -----------------------------

    def _metric_count(self, status: str, tenant: str) -> None:
        """Count one submission outcome in the default registry."""
        _requests_series().labels(tenant=tenant, status=status).inc()

    def _metric_run_done(self, status: str, elapsed_s: Optional[float]) -> None:
        _runs_series().labels(status=status).inc()
        if elapsed_s is not None:
            _run_seconds_series().observe(elapsed_s)

    def _counts(self) -> Dict[str, int]:
        """Submission and run outcome totals, read from the
        ``repro_api_*`` series of the default registry (the same numbers
        ``GET /metrics`` exposes; process-wide, summed over tenants).

        ``submitted`` counts accepted, cached and coalesced submissions;
        ``executed`` counts completions that ran here (neither cached nor
        coalesced).
        """
        requests: Counter = Counter()
        for child in _requests_series().children():
            requests[dict(child.labels)["status"]] += int(child.value)
        runs: Counter = Counter()
        for child in _runs_series().children():
            runs[dict(child.labels)["status"]] += int(child.value)
        return {
            "submitted": (
                requests["accepted"] + requests["cache_hit"]
                + requests["coalesced"]
            ),
            "cache_hits": requests["cache_hit"],
            "coalesced": requests["coalesced"],
            "rejected": requests["rejected"],
            "executed": sum(h.count for h in _run_seconds_series().children()),
            "completed": runs[COMPLETED],
            "failed": runs[FAILED],
            "drained": runs[DRAINED],
        }

    # -- submission --------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        tenant: str,
        sweep_id: Optional[str] = None,
    ) -> RunRecord:
        """Register one submission (event-loop thread only).

        Raises :class:`ServiceClosed` during shutdown and
        :class:`~repro.api.fairness.QuotaExceeded` when the tenant's
        queue quota is full (no record is kept in that case).
        """
        if self._closing:
            raise ServiceClosed("service is shutting down")
        if len(self.runs) >= MAX_RUNS:
            self._evict_finished()
        rid = uuid.uuid4().hex[:12]
        rec = RunRecord(
            id=rid,
            tenant=tenant,
            spec=spec,
            submitted_unix=time.time(),
            sweep_id=sweep_id,
        )

        # 1. Content-addressed dedupe: a cached result completes the run
        #    without touching the queue or the workers.
        hit = (
            self.store.get(spec)
            if (self.store is not None and self.use_cache)
            else None
        )
        if hit is not None:
            self.runs[rid] = rec
            self._metric_count("cache_hit", tenant)
            self._journal(
                "api_cache_hit", run_id=rid, tenant=tenant, key=spec.key
            )
            self._emit(rec, QUEUED, position=0, cached=True)
            self._finish_completed(
                rec, hit.payload, hit.elapsed_s, cached=True
            )
            return rec

        # 2. Single-flight: attach to an in-flight leader for the same key.
        leader = self._leaders.get(spec.key)
        if leader is not None:
            self.runs[rid] = rec
            rec.coalesced_into = leader
            self._followers.setdefault(spec.key, []).append(rid)
            self._metric_count("coalesced", tenant)
            self._journal(
                "api_coalesced", run_id=rid, tenant=tenant, key=spec.key,
                leader=leader,
            )
            self._emit(rec, QUEUED, coalesced_into=leader)
            return rec

        # 3. Fresh work: enter the fair queue (may raise QuotaExceeded —
        #    before the record is registered, so a rejected submission
        #    leaves no trace beyond the counter).
        try:
            position = self.queue.submit(tenant, rid)
        except QuotaExceeded:
            self._metric_count("rejected", tenant)
            self._journal(
                "api_rejected", tenant=tenant, key=spec.key, name=spec.name
            )
            raise
        self.runs[rid] = rec
        self._metric_count("accepted", tenant)
        self._leaders[spec.key] = rid
        self._journal(
            "api_submitted", run_id=rid, tenant=tenant, key=spec.key,
            name=spec.name,
        )
        self._emit(rec, QUEUED, position=position)
        self._notify()
        return rec

    def submit_sweep(
        self, specs: Sequence[JobSpec], tenant: str
    ) -> Tuple[str, List[RunRecord]]:
        """Submit a batch under one sweep id.

        Quota is pre-checked for the whole batch (conservatively assuming
        every spec is fresh work), so a sweep is all-or-nothing; a
        refused sweep counts once in the tenant's ``rejected``.
        """
        try:
            self.queue.admit_sweep(tenant, len(specs))
        except QuotaExceeded:
            self._metric_count("rejected", tenant)
            self._journal("api_rejected", tenant=tenant, jobs=len(specs))
            raise
        sweep_id = uuid.uuid4().hex[:12]
        records = [
            self.submit(spec, tenant, sweep_id=sweep_id) for spec in specs
        ]
        self.sweeps[sweep_id] = {
            "sweep_id": sweep_id,
            "tenant": tenant,
            "submitted_unix": time.time(),
            "run_ids": [r.id for r in records],
        }
        self._journal(
            "api_sweep", sweep_id=sweep_id, tenant=tenant, jobs=len(records)
        )
        return sweep_id, records

    def _evict_finished(self) -> None:
        """Drop the oldest terminal runs to stay under :data:`MAX_RUNS`."""
        terminal = sorted(
            (r for r in self.runs.values() if r.status in TERMINAL_STATES),
            key=lambda r: r.finished_unix or 0.0,
        )
        excess = len(self.runs) - MAX_RUNS + 1
        for rec in terminal[:max(excess, 0)]:
            del self.runs[rec.id]

    # -- lookup ------------------------------------------------------------

    def get_run(self, run_id: str) -> RunRecord:
        try:
            return self.runs[run_id]
        except KeyError:
            raise UnknownRun(run_id) from None

    def get_sweep(self, sweep_id: str) -> Dict[str, Any]:
        try:
            sweep = self.sweeps[sweep_id]
        except KeyError:
            raise UnknownRun(sweep_id) from None
        runs = [self.runs[rid] for rid in sweep["run_ids"] if rid in self.runs]
        by_status = Counter(r.status for r in runs)
        return dict(
            sweep,
            status=(
                COMPLETED
                if all(r.status in TERMINAL_STATES for r in runs)
                else RUNNING
            ),
            counts=dict(by_status),
            runs=[r.to_dict(include_payload=False) for r in runs],
        )

    # -- dispatch / execution ----------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None
        while not self._closing:
            flag = self._flag
            while self._running < self.workers:
                popped = self.queue.pop()
                if popped is None:
                    break
                _tenant, rid = popped
                self._start_run(self.runs[rid])
            assert flag is not None
            await flag.wait()

    def _start_run(self, rec: RunRecord) -> None:
        assert self._loop is not None and self._executor is not None
        rec.status = RUNNING
        rec.started_unix = time.time()
        self._running += 1
        self._emit(rec, "started", tenant=rec.tenant)
        future = self._loop.run_in_executor(
            self._executor, self._execute, rec
        )
        future.add_done_callback(
            lambda f, rec=rec: self._on_done(rec, f)
        )

    def _execute(self, rec: RunRecord) -> Any:
        """Worker-thread body: run one leader's spec through a fresh
        :class:`~repro.service.scheduler.JobScheduler`.

        Only leaders get here (followers attach in :meth:`submit`), so no
        two worker threads run one key at once; the scheduler still checks
        the store first and writes the result back. In serial mode (the
        default) the handler executes on *this* thread, so a thread-local
        :class:`RunTelemetrySink` routes the engine's in-flight samples
        back onto the event loop as ``telemetry`` events. Pool mode forks
        the actual work into child processes — no live channel there;
        fleet metrics still arrive via the scheduler's delta pipe.
        """
        spec = rec.spec
        loop = self._loop
        scheduler = JobScheduler(
            store=self.store,
            journal=self.journal,
            serial=not self.pool,
            use_cache=self.use_cache,
        )

        def run_spec() -> Any:
            report = scheduler.run([spec])
            if spec.key in report.results:
                return report.results[spec.key]
            return report.failures[spec.key]

        if self.pool or loop is None:
            return run_spec()
        sink = RunTelemetrySink(
            emit=lambda sample: loop.call_soon_threadsafe(
                self._emit_telemetry, rec, sample
            ),
        )
        with run_telemetry(sink):
            return run_spec()

    def _on_done(self, rec: RunRecord, future: Any) -> None:
        """Executor-future callback (runs on the loop)."""
        self._running -= 1
        self._leaders.pop(rec.key, None)
        try:
            outcome = future.result()
        except Exception as exc:  # noqa: BLE001 — scheduler itself failed
            outcome = JobFailure(
                key=rec.key, name=rec.spec.name, reason="error",
                message=f"{type(exc).__name__}: {exc}", attempts=1,
            )
        if isinstance(outcome, JobResult):
            self._finish_completed(
                rec, outcome.payload, outcome.elapsed_s,
                cached=outcome.cached,
            )
        else:
            self._finish_failed(rec, outcome.reason, outcome.message)
        self._settle_followers(rec)
        self._notify()

    def _finish_completed(
        self,
        rec: RunRecord,
        payload: Dict[str, Any],
        elapsed_s: float,
        cached: bool,
        coalesced: bool = False,
    ) -> None:
        rec.status = COMPLETED
        rec.finished_unix = time.time()
        rec.payload = payload
        rec.elapsed_s = elapsed_s
        rec.cached = cached
        # Cached/coalesced completions never executed here — only real
        # executions feed the latency histogram.
        self._metric_run_done(
            COMPLETED, None if (cached or coalesced) else elapsed_s
        )
        self._journal(
            "api_completed", run_id=rec.id, tenant=rec.tenant, key=rec.key,
            cached=cached, coalesced=coalesced, elapsed_s=elapsed_s,
        )
        data: Dict[str, Any] = {
            "status": COMPLETED,
            "cached": cached,
            "coalesced": coalesced,
            "elapsed_s": elapsed_s,
        }
        stripped = _strip_timeline(payload)
        if "result" in stripped:
            data["result"] = stripped["result"]
        # The metrics snapshot rides on the terminal event — the same
        # repro.obs structured-stats shape `repro report` renders.
        if "metrics" in stripped:
            data["metrics"] = stripped["metrics"]
        self._emit(rec, COMPLETED, **data)

    def _finish_failed(self, rec: RunRecord, reason: str, message: str) -> None:
        rec.status = FAILED
        rec.finished_unix = time.time()
        rec.error = f"{reason}: {message}"
        self._metric_run_done(FAILED, None)
        self._journal(
            "api_failed", run_id=rec.id, tenant=rec.tenant, key=rec.key,
            reason=reason, message=message,
        )
        self._emit(
            rec, FAILED, status=FAILED, reason=reason, message=message
        )

    def _settle_followers(self, leader: RunRecord) -> None:
        """Propagate a leader's terminal outcome to attached followers."""
        for fid in self._followers.pop(leader.key, ()):
            frec = self.runs.get(fid)
            if frec is None or frec.status in TERMINAL_STATES:
                continue
            if leader.status == COMPLETED:
                assert leader.payload is not None
                self._finish_completed(
                    frec, leader.payload, leader.elapsed_s or 0.0,
                    cached=leader.cached, coalesced=True,
                )
            elif leader.status == FAILED:
                self._finish_failed(
                    frec, "error", f"coalesced run failed: {leader.error}"
                )
            else:  # drained leader drains its followers too
                frec.status = DRAINED
                frec.finished_unix = time.time()
                frec.error = leader.error
                self._metric_run_done(DRAINED, None)
                self._emit(frec, DRAINED, status=DRAINED)

    # -- event streaming ---------------------------------------------------

    async def iter_events(self, run_id: str, since_seq: int = 0):
        """Yield a run's events from ``since_seq`` on, then follow live
        appends until a terminal event has been delivered.

        ``since_seq`` is the resume cursor (``Last-Event-ID`` + 1 on the
        HTTP surface): a reconnecting follower passes the next seq it has
        *not* seen and never receives duplicates. Events carry their seq,
        so ordering is checkable client-side.
        """
        rec = self.get_run(run_id)
        cursor = max(0, int(since_seq))
        self._sse_subscribers += 1
        try:
            while True:
                # Capture the flag BEFORE scanning: an emit between the
                # scan and the wait sets this captured flag, so no lost
                # wakeups.
                assert self._flag is not None
                flag = self._flag
                while cursor < len(rec.events):
                    event = rec.events[cursor]
                    cursor += 1
                    yield event
                    if event["event"] in TERMINAL_STATES:
                        return
                if rec.status in TERMINAL_STATES:
                    return  # defensive: terminal without a terminal event
                await flag.wait()
        finally:
            self._sse_subscribers -= 1

    # -- introspection -----------------------------------------------------

    def ready(self) -> Tuple[bool, str]:
        """Readiness verdict for ``GET /readyz``.

        Not ready while draining (load balancers should stop routing
        here the moment shutdown starts) or while the queue holds
        ``ready_backlog`` runs or more (shed load before the quota layer
        starts rejecting).
        """
        if self._closing:
            return False, "draining"
        if self.started_unix is None:
            return False, "starting"
        if len(self.queue) >= self.ready_backlog:
            return False, f"saturated: {len(self.queue)} queued"
        return True, "ok"

    @property
    def sse_subscribers(self) -> int:
        return self._sse_subscribers

    def stats(self) -> Dict[str, Any]:
        return {
            "started_unix": self.started_unix,
            "workers": self.workers,
            "running": self._running,
            "queued": len(self.queue),
            "runs_tracked": len(self.runs),
            "sse_subscribers": self._sse_subscribers,
            "counters": self._counts(),
            "tenants": self.queue.stats(),
        }
