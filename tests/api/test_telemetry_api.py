"""Telemetry plane over HTTP: /metrics, /readyz, /telemetry, live events.

Uses a toy job kind whose handler emits through the thread-local run
sink (exactly what the simulation engines do), so live-telemetry
plumbing is exercised without a real simulation. Registry isolation:
each test swaps in a fresh default TelemetryRegistry.
"""

import http.client
import json
import threading
import time

import pytest

from repro.api import ApiClient, ApiService, start_server_thread
from repro.service.journal import JobJournal
from repro.service.jobs import register_handler
from repro.service.store import ResultStore
from repro.telemetry import parse_exposition
from repro.telemetry.live import DEFAULT_MAX_SAMPLES
from repro.telemetry.registry import TelemetryRegistry, set_registry

_GATE = threading.Event()


def _teletest_handler(spec):
    from repro.telemetry.live import get_run_sink

    sink = get_run_sink()
    n = int(spec.params.get("samples", 3))
    for i in range(n):
        if sink is not None:
            sink.emit_sample({
                "t_s": i * 1e-3,
                "progress": (i + 1) / n,
                "dram_c": 70.0 + i,
                "pim_fraction": 1.0,
                "engine": "teletest",
            })
    if spec.params.get("gate"):
        assert _GATE.wait(10.0)
    time.sleep(float(spec.params.get("sleep_s", 0.0)))
    return {"result": {"value": spec.params.get("value", 0)}}


register_handler("teletest", _teletest_handler)


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(TelemetryRegistry())
    try:
        yield
    finally:
        set_registry(previous)


@pytest.fixture
def service(tmp_path):
    _GATE.clear()
    journal = JobJournal(tmp_path / "journal.jsonl")
    svc = ApiService(
        store=ResultStore(tmp_path / "cache"),
        journal=journal,
        workers=2,
        allow_kinds=("teletest",),
    )
    yield svc
    journal.close()


@pytest.fixture
def server(service):
    handle = start_server_thread(service)
    try:
        yield handle
    finally:
        _GATE.set()
        handle.stop()


@pytest.fixture
def client(server):
    return ApiClient(server.host, server.port)


class TestReadyz:
    def test_ready_when_idle(self, client):
        ok, body = client.readyz()
        assert ok and body["ready"] and body["reason"] == "ok"

    def test_saturated_queue_reports_503(self, server, client):
        # Fill both workers plus the max(16, 8 x 2) = 16 queue slots.
        assert server.server.service.ready_backlog == 16
        for i in range(2 + 16):
            client.submit_run(
                kind="teletest", params={"gate": True, "value": i}
            )
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            ok, body = client.readyz()
            if not ok:
                break
            time.sleep(0.02)
        assert not ok and "saturated" in body["reason"]
        _GATE.set()

    def test_draining_reports_503(self, service):
        service._closing = True
        ok, reason = service.ready()
        assert not ok and reason == "draining"


class TestLiveTelemetryEvents:
    def test_telemetry_events_arrive_before_terminal(self, client):
        doc = client.submit_run(kind="teletest", params={"samples": 3})
        events = list(client.stream_events(doc["run_id"]))
        names = [e["event"] for e in events]
        assert names[-1] == "completed"
        telemetry = [e for e in events if e["event"] == "telemetry"]
        assert telemetry, f"no telemetry in {names}"
        assert names.index("telemetry") < names.index("completed")
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert telemetry[0]["dram_c"] == 70.0
        assert telemetry[0]["engine"] == "teletest"

    def test_budget_caps_event_count(self, client):
        doc = client.submit_run(
            kind="teletest", params={"samples": DEFAULT_MAX_SAMPLES + 50}
        )
        events = list(client.stream_events(doc["run_id"]))
        telemetry = [e for e in events if e["event"] == "telemetry"]
        # budget + the close() flush of the freshest pending sample
        assert len(telemetry) == DEFAULT_MAX_SAMPLES + 1
        assert telemetry[-1]["progress"] == 1.0  # last value won

    def test_telemetry_series_endpoint(self, client):
        doc = client.submit_run(kind="teletest", params={"samples": 2})
        client.wait_for_run(doc["run_id"], timeout_s=15.0)
        series = client.run_telemetry(doc["run_id"])
        assert series["run_id"] == doc["run_id"]
        assert series["status"] == "completed"
        assert series["count"] == len(series["samples"]) == 2
        # The samples exactly as the handler emitted them: no event-log
        # fields (seq, event, run_id, ts) leak into the series.
        assert series["samples"] == [
            {"t_s": i * 1e-3, "progress": (i + 1) / 2, "dram_c": 70.0 + i,
             "pim_fraction": 1.0, "engine": "teletest"}
            for i in range(2)
        ]

    def test_telemetry_unknown_run_404(self, client):
        status, _ = client.request("GET", "/telemetry/runs/nope")
        assert status == 404


class TestEventResume:
    def test_since_resumes_without_duplicates(self, client):
        doc = client.submit_run(kind="teletest", params={"samples": 3})
        first = list(client.stream_events(doc["run_id"]))
        # Disconnect after the second event; resume must deliver exactly
        # the remainder, in order, no duplicates.
        cut = first[1]["seq"]
        resumed = list(client.stream_events(doc["run_id"], since=cut))
        assert [e["seq"] for e in resumed] == [
            e["seq"] for e in first[2:]
        ]
        assert resumed[-1]["event"] == "completed"
        telemetry = [e for e in resumed if e["event"] == "telemetry"]
        assert [e["seq"] for e in telemetry] == sorted(
            e["seq"] for e in telemetry
        )

    def test_last_event_id_header_resumes(self, server, client):
        doc = client.submit_run(kind="teletest", params={"samples": 1})
        client.wait_for_run(doc["run_id"], timeout_s=15.0)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request(
                "GET",
                f"/runs/{doc['run_id']}/events?format=jsonl",
                headers={"Last-Event-ID": "0",
                         "Accept": "application/x-ndjson"},
            )
            resp = conn.getresponse()
            assert resp.status == 200
            events = [json.loads(l) for l in resp if l.strip()]
        finally:
            conn.close()
        assert events and events[0]["seq"] == 1  # seq 0 not repeated

    def test_bad_since_is_400(self, server, client):
        doc = client.submit_run(kind="teletest", params={})
        status, body = client.request(
            "GET", f"/runs/{doc['run_id']}/events?since=banana"
        )
        assert status == 400

    def test_slow_follower_does_not_block_producer(self, server, client):
        """Backpressure: a follower that never reads past its first
        bytes must not stall run execution or other followers."""
        slow = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        doc = client.submit_run(
            kind="teletest", params={"samples": 4, "value": 99}
        )
        try:
            slow.request(
                "GET",
                f"/runs/{doc['run_id']}/events",
                headers={"Accept": "text/event-stream"},
            )
            # Deliberately do NOT read the response body: the socket
            # buffer holds whatever the server pushed; the service must
            # keep executing regardless.
            done = client.wait_for_run(doc["run_id"], timeout_s=15.0)
            assert done["status"] == "completed"
            # A healthy follower still sees the full ordered stream.
            events = list(client.stream_events(doc["run_id"]))
            assert events[-1]["event"] == "completed"
        finally:
            slow.close()


class TestMetricsEndpoint:
    def test_exposition_parses_and_covers_lifecycle(self, client):
        doc = client.submit_run(kind="teletest", params={"value": 5})
        client.wait_for_run(doc["run_id"], timeout_s=15.0)
        # Cache hit for the same body.
        client.submit_run(kind="teletest", params={"value": 5})
        status, text = client.request("GET", "/metrics")
        assert status == 200
        parsed = parse_exposition(text)
        families = parsed["types"]
        for name in (
            "repro_api_requests_total",
            "repro_api_runs_total",
            "repro_api_run_seconds",
            "repro_api_queue_depth",
            "repro_api_queue_wait_age_seconds",
            "repro_api_running",
            "repro_api_sse_subscribers",
            "repro_store_entries",
        ):
            assert name in families, name
        assert families["repro_api_run_seconds"] == "histogram"
        by = {}
        for name, labels, value in parsed["samples"]:
            by.setdefault(name, []).append((labels, value))
        accepted = [
            v for labels, v in by["repro_api_requests_total"]
            if labels.get("status") == "accepted"
        ]
        hits = [
            v for labels, v in by["repro_api_requests_total"]
            if labels.get("status") == "cache_hit"
        ]
        assert accepted == [1.0] and hits == [1.0]
        completed = [
            v for labels, v in by["repro_api_runs_total"]
            if labels.get("status") == "completed"
        ]
        assert completed and completed[0] >= 2.0

    def test_content_type_is_prometheus(self, server, client):
        doc = client.submit_run(kind="teletest", params={})
        client.wait_for_run(doc["run_id"], timeout_s=15.0)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            assert resp.status == 200
            assert "version=0.0.4" in resp.getheader("Content-Type", "")
            resp.read()
        finally:
            conn.close()

    def test_scheduler_job_counters_present(self, client):
        doc = client.submit_run(kind="teletest", params={"value": 1})
        client.wait_for_run(doc["run_id"], timeout_s=15.0)
        parsed = parse_exposition(client.metrics())
        assert "repro_jobs_total" in parsed["types"]
        completed = [
            v for name, labels, v in parsed["samples"]
            if name == "repro_jobs_total"
            and labels.get("status") == "completed"
        ]
        assert completed and completed[0] >= 1.0
