"""Asynchronous simulation-as-a-service HTTP layer.

``repro.api`` puts an HTTP front end over the :mod:`repro.service` job
subsystem so many concurrent clients share one worker fleet:

- :mod:`repro.api.http` — minimal stdlib-asyncio HTTP/1.1 server, router,
  and streaming responses (no framework dependency).
- :mod:`repro.api.schemas` — request validation mapping JSON bodies onto
  the same :class:`~repro.service.jobs.JobSpec` content keys the CLI
  produces (HTTP and CLI submissions share one cache).
- :mod:`repro.api.fairness` — per-tenant FIFO queues served round
  robin under one queue quota, between the HTTP layer and the scheduler.
- :mod:`repro.api.service` — the async run registry: cache dedupe,
  in-flight coalescing of identical submissions, dispatch, event streams.
- :mod:`repro.api.leaderboard` — throttling-policy ranking over the
  cached scenario suite.
- :mod:`repro.api.app` — endpoint wiring + server runtime
  (:class:`ApiServer`, background-thread helper for embedding/tests).
- :mod:`repro.api.client` — blocking stdlib client.

Quickstart::

    repro serve --port 8177 &
    curl -s localhost:8177/healthz
    curl -s -XPOST localhost:8177/runs -d '{"workload": "pagerank"}'

See ``docs/SERVICE.md`` for the full endpoint and wire-format reference.
"""

from repro.api.app import ApiServer, ServerHandle, create_router, start_server_thread
from repro.api.client import ApiClient, ApiClientError
from repro.api.fairness import FairQueue, QuotaExceeded
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
from repro.api.leaderboard import LEADERBOARD_SCHEMA_ID, build_leaderboard
from repro.api.schemas import (
    ValidationError,
    validate_run_request,
    validate_sweep_request,
    validate_tenant,
)
from repro.api.service import (
    ApiService,
    RunRecord,
    ServiceClosed,
    UnknownRun,
)

__all__ = [
    "LEADERBOARD_SCHEMA_ID",
    "ApiClient",
    "ApiClientError",
    "ApiServer",
    "ApiService",
    "FairQueue",
    "HttpError",
    "HttpServer",
    "QuotaExceeded",
    "Request",
    "Response",
    "Router",
    "RunRecord",
    "ServerHandle",
    "ServiceClosed",
    "StreamResponse",
    "UnknownRun",
    "ValidationError",
    "build_leaderboard",
    "create_router",
    "json_response",
    "start_server_thread",
    "text_response",
    "validate_run_request",
    "validate_sweep_request",
    "validate_tenant",
]
