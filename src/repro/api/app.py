"""Route wiring + server runtime for the simulation API.

Endpoint map (full reference in ``docs/SERVICE.md``)::

    POST /runs                        submit one simulation
    POST /sweeps                      submit a (workloads × policies × datasets) batch
    GET  /runs/{id}                   status + result aggregates
    GET  /runs/{id}/events            progress stream (SSE, or JSONL with
                                      ?format=jsonl / Accept: application/x-ndjson)
    GET  /runs/{id}/artifacts/metrics    repro.metrics/1 document
    GET  /runs/{id}/artifacts/report     rendered metrics text report
    GET  /runs/{id}/artifacts/manifest   repro.manifest/1 provenance
    GET  /runs/{id}/artifacts/trace      Chrome trace (needs "trace": true)
    GET  /sweeps/{id}                 sweep status summary
    GET  /leaderboard                 policy ranking over cached scenarios
    GET  /admin/cache                 store/journal stats (repro cache --json shape)
    GET  /admin/tenants               per-tenant queue counters
    GET  /healthz                     liveness + counters
    GET  /readyz                      readiness (503 while draining/saturated)
    GET  /metrics                     Prometheus text exposition (process-wide)
    GET  /telemetry/runs/{id}         one run's in-flight telemetry series (JSON)

Event streams resume: ``GET /runs/{id}/events`` honours the SSE
``Last-Event-ID`` header (or ``?since=<seq>``) and replays from the next
sequence number, so reconnecting followers see no duplicates.

Wire formats deliberately reuse :mod:`repro.obs`: the metrics artifact is
the exact ``repro.metrics/1`` document ``repro report`` renders, the
manifest is ``repro.manifest/1``, and the trace artifact is a validated
Chrome trace of the run's sampled timeline as sim-clock counter tracks.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, AsyncIterator, Dict, Optional

from repro.api.fairness import QuotaExceeded
from repro.api.http import (
    HttpError,
    HttpServer,
    Request,
    Response,
    Router,
    StreamResponse,
    json_response,
    text_response,
)
from repro.api.leaderboard import build_leaderboard
from repro.api.schemas import (
    ValidationError,
    validate_run_request,
    validate_since,
    validate_sweep_request,
    validate_tenant,
)
from repro.api.service import ApiService, RunRecord, ServiceClosed, UnknownRun

API_VERSION = "repro.api/1"


def _tenant_of(request: Request, body: Optional[Dict[str, Any]] = None) -> str:
    """Tenant from the ``X-Tenant`` header, else the body, else public."""
    try:
        header = request.headers.get("x-tenant")
        if header:
            return validate_tenant(header)
        return validate_tenant((body or {}).get("tenant"))
    except ValidationError as exc:
        raise HttpError(400, exc.message, field=exc.field) from exc


def _wants_jsonl(request: Request) -> bool:
    if request.query.get("format") == "jsonl":
        return True
    return "application/x-ndjson" in request.headers.get("accept", "")


def create_router(service: ApiService) -> Router:
    router = Router()

    def _get_run(request: Request) -> RunRecord:
        try:
            return service.get_run(request.path_params["id"])
        except UnknownRun:
            raise HttpError(
                404, f"unknown run {request.path_params['id']!r}"
            ) from None

    def _enforceable(specs) -> None:
        """Refuse a timeout the server cannot enforce: a job's SIGALRM
        deadline is armed only on a main thread, which a pooled worker
        process has and an executor thread does not."""
        if not service.pool and any(s.timeout_s is not None for s in specs):
            raise HttpError(
                400,
                "timeout_s is enforced only when jobs run on a process "
                "pool (repro serve --pool)",
                field="timeout_s",
            )

    def _submit(spec, tenant: str) -> RunRecord:
        try:
            return service.submit(spec, tenant)
        except QuotaExceeded as exc:
            raise HttpError(
                429, str(exc), tenant=exc.tenant, quota=exc.limit
            ) from exc
        except ServiceClosed as exc:
            raise HttpError(503, str(exc)) from exc

    # -- submission --------------------------------------------------------

    async def post_run(request: Request):
        body = request.json()
        tenant = _tenant_of(request, body)
        try:
            spec = validate_run_request(body, service.allow_kinds)
        except ValidationError as exc:
            raise HttpError(400, exc.message, field=exc.field) from exc
        _enforceable([spec])
        rec = _submit(spec, tenant)
        return json_response(
            {
                "run_id": rec.id,
                "key": rec.key,
                "status": rec.status,
                "cached": rec.cached,
                "coalesced_into": rec.coalesced_into,
            },
            status=200 if rec.cached else 202,
        )

    async def post_sweep(request: Request):
        body = request.json()
        tenant = _tenant_of(request, body)
        try:
            specs = validate_sweep_request(body, service.allow_kinds)
        except ValidationError as exc:
            raise HttpError(400, exc.message, field=exc.field) from exc
        _enforceable(specs)
        try:
            sweep_id, records = service.submit_sweep(specs, tenant)
        except QuotaExceeded as exc:
            raise HttpError(
                429, str(exc), tenant=exc.tenant, quota=exc.limit
            ) from exc
        except ServiceClosed as exc:
            raise HttpError(503, str(exc)) from exc
        return json_response(
            {
                "sweep_id": sweep_id,
                "jobs": len(records),
                "runs": [
                    {
                        "run_id": r.id,
                        "key": r.key,
                        "name": r.spec.name,
                        "status": r.status,
                        "cached": r.cached,
                        "coalesced_into": r.coalesced_into,
                    }
                    for r in records
                ],
            },
            status=202,
        )

    # -- status ------------------------------------------------------------

    async def get_run(request: Request):
        return json_response(_get_run(request).to_dict())

    async def get_sweep(request: Request):
        try:
            return json_response(service.get_sweep(request.path_params["id"]))
        except UnknownRun:
            raise HttpError(
                404, f"unknown sweep {request.path_params['id']!r}"
            ) from None

    # -- event streaming ---------------------------------------------------

    async def get_events(request: Request):
        rec = _get_run(request)  # 404 before we commit to a stream
        jsonl = _wants_jsonl(request)
        try:
            # SSE reconnects send Last-Event-ID; manual resumes can use
            # ?since=<last seen seq>. Header wins when both are present.
            since_seq = validate_since(
                request.headers.get("last-event-id")
                or request.query.get("since")
            )
        except ValidationError as exc:
            raise HttpError(400, exc.message, field=exc.field) from exc

        async def sse_chunks() -> AsyncIterator[bytes]:
            async for event in service.iter_events(rec.id, since_seq):
                data = json.dumps(event, sort_keys=True)
                yield (
                    f"id: {event['seq']}\n"
                    f"event: {event['event']}\n"
                    f"data: {data}\n\n"
                ).encode("utf-8")
            yield b"event: end\ndata: {}\n\n"

        async def jsonl_chunks() -> AsyncIterator[bytes]:
            async for event in service.iter_events(rec.id, since_seq):
                yield (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")

        if jsonl:
            return StreamResponse(
                jsonl_chunks(), content_type="application/x-ndjson"
            )
        return StreamResponse(sse_chunks(), content_type="text/event-stream")

    # -- artifacts ---------------------------------------------------------

    def _completed_payload(request: Request) -> Dict[str, Any]:
        rec = _get_run(request)
        if rec.status != "completed" or rec.payload is None:
            raise HttpError(
                409,
                f"run {rec.id} is {rec.status}; artifacts exist only for "
                "completed runs",
            )
        return rec.payload

    async def get_metrics_artifact(request: Request):
        from repro.obs.metrics import export_metrics

        rec = _get_run(request)
        payload = _completed_payload(request)
        metrics = payload.get("metrics")
        if not metrics:
            raise HttpError(404, "run payload carries no metrics snapshot")
        doc = export_metrics(
            metrics,
            meta={
                "run_id": rec.id,
                "job": rec.spec.name,
                "seed": rec.spec.seed,
                **{
                    k: v
                    for k, v in payload.items()
                    if isinstance(v, (str, int, float, bool))
                },
            },
        )
        return json_response(doc)

    async def get_report_artifact(request: Request):
        from repro.obs.metrics import export_metrics, render_report

        payload = _completed_payload(request)
        metrics = payload.get("metrics")
        if not metrics:
            raise HttpError(404, "run payload carries no metrics snapshot")
        return text_response(render_report(export_metrics(metrics)))

    async def get_manifest_artifact(request: Request):
        from repro.obs.manifest import RunManifest

        rec = _get_run(request)
        payload = _completed_payload(request)
        result = payload.get("result") or {}
        manifest = RunManifest.collect(
            command="repro.api",
            config=dict(rec.spec.params),
            seed=rec.spec.seed,
            wall_duration_s=rec.elapsed_s,
            sim_duration_s=result.get("runtime_s"),
            run_id=rec.id,
            tenant=rec.tenant,
            job_key=rec.key,
            cached=rec.cached,
        )
        return json_response(manifest.to_dict())

    async def get_trace_artifact(request: Request):
        from repro.obs.chrome import export_chrome_trace
        from repro.obs.replay import replay_timeline
        from repro.obs.tracer import Tracer

        rec = _get_run(request)
        payload = _completed_payload(request)
        timeline = (payload.get("result") or {}).get("timeline")
        if not timeline:
            raise HttpError(
                404,
                "run payload carries no timeline; submit with "
                '"trace": true to keep one',
            )
        tracer = Tracer(enabled=True)
        replay_timeline(timeline, tracer=tracer)
        doc = export_chrome_trace(
            tracer.records,
            other_data={"run_id": rec.id, "job": rec.spec.name},
        )
        return json_response(doc)

    # -- product / admin ---------------------------------------------------

    async def get_leaderboard(request: Request):
        if service.store is None:
            raise HttpError(409, "server runs without a result store")
        board = build_leaderboard(
            service.store,
            workload=request.query.get("workload"),
            dataset=request.query.get("dataset"),
            cooling=request.query.get("cooling"),
            include_stale=request.query.get("include_stale") == "1",
        )
        return json_response(board)

    async def get_admin_cache(request: Request):
        from repro.service.store import store_stats_payload

        if service.store is None:
            raise HttpError(409, "server runs without a result store")
        journal_path = (
            service.journal.path if service.journal is not None else None
        )
        return json_response(
            store_stats_payload(service.store, journal_path=journal_path)
        )

    async def get_admin_tenants(request: Request):
        return json_response(service.queue.stats())

    async def get_healthz(request: Request):
        return json_response({"status": "ok", "api": API_VERSION,
                              **service.stats()})

    async def get_readyz(request: Request):
        ok, reason = service.ready()
        return json_response(
            {"ready": ok, "reason": reason, "api": API_VERSION},
            status=200 if ok else 503,
        )

    async def get_metrics(request: Request):
        from repro.telemetry import CONTENT_TYPE, get_registry, render_exposition

        reg = get_registry()
        # Scrape-time gauges: cheap to read, pointless to maintain hot.
        queue_depth = reg.gauge(
            "repro_api_queue_depth",
            help="Queued (not yet running) runs per tenant.",
            labelnames=("tenant",),
        )
        wait_age = reg.gauge(
            "repro_api_queue_wait_age_seconds",
            help="Age of the oldest queued run per tenant.",
            labelnames=("tenant",),
        )
        for tenant, tstats in service.queue.stats().items():
            queue_depth.labels(tenant=tenant).set(tstats["queued"])
            wait_age.labels(tenant=tenant).set(
                service.queue.oldest_wait_s(tenant)
            )
        reg.gauge(
            "repro_api_running", help="Runs currently executing."
        ).set(service.stats()["running"])
        reg.gauge(
            "repro_api_sse_subscribers",
            help="Live event-stream followers.",
        ).set(service.sse_subscribers)
        if service.store is not None:
            try:
                sstats = service.store.stats()
                reg.gauge(
                    "repro_store_entries",
                    help="Result-store entry count.",
                ).set(sstats.entries)
                reg.gauge(
                    "repro_store_bytes",
                    help="Result-store payload bytes on disk.",
                ).set(sstats.total_bytes)
            except Exception:
                pass  # a scrape must never 500 because the store is odd
        return Response(
            status=200,
            body=render_exposition(reg).encode("utf-8"),
            content_type=CONTENT_TYPE,
        )

    async def get_run_telemetry(request: Request):
        rec = _get_run(request)
        samples = rec.telemetry_samples()
        return json_response(
            {
                "run_id": rec.id,
                "status": rec.status,
                "samples": samples,
                "count": len(samples),
            }
        )

    router.post("/runs", post_run)
    router.post("/sweeps", post_sweep)
    router.get("/runs/{id}", get_run)
    router.get("/runs/{id}/events", get_events)
    router.get("/runs/{id}/artifacts/metrics", get_metrics_artifact)
    router.get("/runs/{id}/artifacts/report", get_report_artifact)
    router.get("/runs/{id}/artifacts/manifest", get_manifest_artifact)
    router.get("/runs/{id}/artifacts/trace", get_trace_artifact)
    router.get("/sweeps/{id}", get_sweep)
    router.get("/leaderboard", get_leaderboard)
    router.get("/admin/cache", get_admin_cache)
    router.get("/admin/tenants", get_admin_tenants)
    router.get("/healthz", get_healthz)
    router.get("/readyz", get_readyz)
    router.get("/metrics", get_metrics)
    router.get("/telemetry/runs/{id}", get_run_telemetry)
    return router


class ApiServer:
    """One :class:`ApiService` behind one :class:`HttpServer`."""

    def __init__(
        self,
        service: ApiService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.http = HttpServer(create_router(service), host, port)

    @property
    def host(self) -> str:
        return self.http.host

    @property
    def port(self) -> int:
        return self.http.port

    async def start(self) -> None:
        await self.service.startup()
        await self.http.start()

    async def stop(self, drain_timeout_s: float = 10.0) -> None:
        await self.service.shutdown(drain_timeout_s=drain_timeout_s)
        await self.http.stop()

    async def serve_until(
        self,
        stop: asyncio.Event,
        drain_timeout_s: float = 10.0,
        on_ready=None,
    ) -> None:
        """Start, announce readiness, block until ``stop``, then drain."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        try:
            await stop.wait()
        finally:
            await self.stop(drain_timeout_s=drain_timeout_s)


class ServerHandle:
    """A server running on a background thread (tests, embedding)."""

    def __init__(self, server: ApiServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread, stop: asyncio.Event) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stop = stop

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def call(self, coro):
        """Run a coroutine on the server loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(30)

    def stop(self, timeout_s: float = 15.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout_s)


def start_server_thread(
    service: ApiService,
    host: str = "127.0.0.1",
    port: int = 0,
    drain_timeout_s: float = 10.0,
) -> ServerHandle:
    """Boot an :class:`ApiServer` on its own thread + event loop.

    Returns once the listener is bound (``handle.port`` is real).
    """
    server = ApiServer(service, host=host, port=port)
    ready = threading.Event()
    box: Dict[str, Any] = {}

    def _main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop = asyncio.Event()
        box["loop"] = loop
        box["stop"] = stop
        try:
            loop.run_until_complete(
                server.serve_until(
                    stop,
                    drain_timeout_s=drain_timeout_s,
                    on_ready=lambda _s: ready.set(),
                )
            )
        finally:
            ready.set()  # unblock the starter even on startup failure
            loop.close()

    thread = threading.Thread(
        target=_main, name="repro-api-server", daemon=True
    )
    thread.start()
    ready.wait(15)
    if "loop" not in box or not thread.is_alive() and server.port == 0:
        raise RuntimeError("API server failed to start")
    return ServerHandle(server, box["loop"], thread, box["stop"])
