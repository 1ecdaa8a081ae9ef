"""HTTP layer end to end: submission, dedupe, streams, quotas, admin.

Uses a toy job kind (``apitest``) allow-listed on the test server so
requests execute in milliseconds; the real simulation path is covered by
``tests/api/test_e2e.py``.
"""

import http.client
import json
import threading
import time

import pytest

from repro.api import ApiClient, ApiClientError, ApiService, start_server_thread
from repro.api.fairness import FairQueue, TenantPolicy
from repro.service.journal import JobJournal
from repro.service.jobs import JobSpec, register_handler
from repro.service.store import ResultStore
from repro.telemetry import parse_exposition, render_exposition
from repro.telemetry.registry import TelemetryRegistry, set_registry

_CALLS = []
_GATE = threading.Event()


def _apitest_handler(spec):
    _CALLS.append(spec.key)
    if spec.params.get("gate"):
        assert _GATE.wait(10.0)
    if spec.params.get("fail"):
        raise RuntimeError("handler exploded")
    time.sleep(float(spec.params.get("sleep_s", 0.0)))
    return {"result": {"value": spec.params.get("value", 0)}}


register_handler("apitest", _apitest_handler)


@pytest.fixture
def server(tmp_path):
    _CALLS.clear()
    _GATE.clear()
    store = ResultStore(tmp_path / "cache")
    journal = JobJournal(tmp_path / "journal.jsonl")
    service = ApiService(
        store=store,
        journal=journal,
        queue=FairQueue(default_policy=TenantPolicy(max_queued=2)),
        workers=1,
        allow_kinds=("apitest",),
    )
    handle = start_server_thread(service)
    try:
        yield handle
    finally:
        _GATE.set()
        handle.stop()
        journal.close()


@pytest.fixture
def client(server):
    return ApiClient(server.host, server.port)


def submit_and_wait(client, **body):
    doc = client.submit_run(**body)
    return client.wait_for_run(doc["run_id"], timeout_s=15.0)


def wait_until_running(client, run_id, timeout_s=10.0):
    """Poll until a run leaves the queue (occupies a worker slot)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        doc = client.get_run(run_id)
        if doc["status"] != "queued":
            return doc
        time.sleep(0.01)
    raise TimeoutError(f"run {run_id} never started")


class TestLifecycle:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["workers"] == 1

    def test_live_run_completes(self, client):
        doc = client.submit_run(kind="apitest", params={"value": 7})
        assert doc["status"] == "queued" and not doc["cached"]
        done = client.wait_for_run(doc["run_id"], timeout_s=15.0)
        assert done["status"] == "completed"
        assert done["result"]["result"]["value"] == 7
        assert len(_CALLS) == 1

    def test_resubmission_is_cache_hit(self, client):
        submit_and_wait(client, kind="apitest", params={"value": 1})
        status, doc = client.request(
            "POST", "/runs", {"kind": "apitest", "params": {"value": 1}}
        )
        assert status == 200  # immediate — not 202 Accepted
        assert doc["cached"] is True and doc["status"] == "completed"
        assert len(_CALLS) == 1  # nothing re-executed

    def test_failed_run_reports_error(self, client):
        done = submit_and_wait(client, kind="apitest", params={"fail": True})
        assert done["status"] == "failed"
        assert "handler exploded" in done["error"]


class TestCoalescing:
    def test_concurrent_identical_submissions_coalesce(self, client):
        first = client.submit_run(kind="apitest", params={"gate": True})
        second = client.submit_run(kind="apitest", params={"gate": True})
        assert second["coalesced_into"] == first["run_id"]
        _GATE.set()
        d1 = client.wait_for_run(first["run_id"], timeout_s=15.0)
        d2 = client.wait_for_run(second["run_id"], timeout_s=15.0)
        assert d1["status"] == d2["status"] == "completed"
        assert d1["result"] == d2["result"]
        assert len(_CALLS) == 1


class TestEventStream:
    def test_jsonl_events_ordered(self, client):
        doc = client.submit_run(kind="apitest", params={"value": 3})
        events = list(client.stream_events(doc["run_id"]))
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert [e["event"] for e in events] == [
            "queued", "started", "completed"
        ]
        assert events[-1]["result"]["value"] == 3

    def test_late_subscriber_replays_full_log(self, client):
        done = submit_and_wait(client, kind="apitest", params={"value": 4})
        events = list(client.stream_events(done["run_id"]))
        assert [e["event"] for e in events] == [
            "queued", "started", "completed"
        ]

    def test_sse_framing(self, server, client):
        done = submit_and_wait(client, kind="apitest", params={"value": 5})
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", f"/runs/{done['run_id']}/events")
            response = conn.getresponse()
            assert response.getheader("Content-Type").startswith(
                "text/event-stream"
            )
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        frames = [f for f in body.split("\n\n") if f.strip()]
        assert frames[-1].startswith("event: end")
        assert frames[0].splitlines()[0] == "id: 0"
        assert "event: completed" in frames[-2]

    def test_events_for_unknown_run_404(self, client):
        with pytest.raises(ApiClientError) as exc:
            list(client.stream_events("nope"))
        assert exc.value.status == 404


class TestValidationOverHttp:
    def test_bad_body_is_400_with_field(self, client):
        status, doc = client.request("POST", "/runs", {"workload": "nope"})
        assert status == 400
        assert doc["field"] == "workload"

    def test_disallowed_kind_is_400(self, client):
        status, doc = client.request(
            "POST", "/runs", {"kind": "experiment", "params": {}}
        )
        assert status == 400 and doc["field"] == "kind"

    def test_unparseable_json_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request(
                "POST", "/runs", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_route_404_and_bad_method_405(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("DELETE", "/runs/abc")[0] == 405

    def test_bad_tenant_header_is_400(self, server):
        bad = ApiClient(server.host, server.port, tenant="bad tenant!")
        status, doc = bad.request(
            "POST", "/runs", {"kind": "apitest", "params": {}}
        )
        assert status == 400 and doc["field"] == "tenant"


class TestQuota:
    def test_quota_enforced_under_concurrent_load(self, server):
        # workers=1 and the gate hold the only worker busy; the tenant's
        # max_queued=2 admits two more distinct jobs, everything past
        # that must 429 no matter how the submissions interleave.
        client = ApiClient(server.host, server.port, tenant="flood")
        gate = client.submit_run(kind="apitest", params={"gate": True})
        wait_until_running(client, gate["run_id"])
        results = []
        lock = threading.Lock()

        def submit(n):
            status, doc = client.request(
                "POST", "/runs", {"kind": "apitest", "params": {"value": n}}
            )
            with lock:
                results.append(status)

        threads = [
            threading.Thread(target=submit, args=(n,)) for n in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert sorted(results) == [202, 202, 429, 429, 429, 429]
        _GATE.set()

    def test_other_tenant_unaffected(self, server):
        flood = ApiClient(server.host, server.port, tenant="flood")
        calm = ApiClient(server.host, server.port, tenant="calm")
        gate = flood.submit_run(kind="apitest", params={"gate": True})
        wait_until_running(flood, gate["run_id"])
        flood.submit_run(kind="apitest", params={"value": 1})
        flood.submit_run(kind="apitest", params={"value": 2})
        with pytest.raises(ApiClientError) as exc:
            flood.submit_run(kind="apitest", params={"value": 3})
        assert exc.value.status == 429
        doc = calm.submit_run(kind="apitest", params={"value": 3})
        assert doc["status"] == "queued"
        _GATE.set()
        calm.wait_for_run(doc["run_id"], timeout_s=15.0)

    def test_oversized_sweep_rejected_whole(self, server, tmp_path):
        client = ApiClient(server.host, server.port, tenant="sweepy")
        registry = TelemetryRegistry()
        previous = set_registry(registry)
        try:
            with pytest.raises(ApiClientError) as exc:
                client.submit_sweep(
                    kind="apitest",
                    items=[{"params": {"value": n}} for n in range(3)],
                )
        finally:
            set_registry(previous)
        assert exc.value.status == 429
        # All-or-nothing: nothing from the rejected sweep was queued.
        assert client.healthz()["tenants"].get("sweepy", {}).get(
            "queued", 0
        ) == 0
        # The rejection is one rejected request on /metrics and one
        # journal record, as for a single run.
        rejected = [
            value
            for name, labels, value in parse_exposition(
                render_exposition(registry)
            )["samples"]
            if name == "repro_api_requests_total"
            and labels == {"tenant": "sweepy", "status": "rejected"}
        ]
        assert rejected == [1.0]
        records = [
            e for e in JobJournal.read(tmp_path / "journal.jsonl")
            if e["event"] == "api_rejected"
        ]
        assert [(e["tenant"], e["jobs"]) for e in records] == [("sweepy", 3)]


class TestSweeps:
    def test_sweep_tracks_runs(self, client):
        doc = client.submit_sweep(
            kind="apitest",
            items=[{"params": {"value": 1}}, {"params": {"value": 2}}],
        )
        assert doc["jobs"] == 2
        for run in doc["runs"]:
            client.wait_for_run(run["run_id"], timeout_s=15.0)
        sweep = client.get_sweep(doc["sweep_id"])
        assert sweep["status"] == "completed"
        assert sweep["counts"] == {"completed": 2}


class TestAdmin:
    def test_cache_stats_reflect_completions(self, client):
        submit_and_wait(client, kind="apitest", params={"value": 9})
        doc = client.admin_cache()
        assert doc["entries"] == 1
        assert doc["journal"]["events"]["api_completed"] == 1

    def test_tenant_stats_exposed(self, server):
        client = ApiClient(server.host, server.port, tenant="teamx")
        submit_and_wait(client, kind="apitest", params={"value": 10})
        status, doc = client.request("GET", "/admin/tenants")
        assert status == 200
        assert doc["teamx"]["dispatched"] == 1

    def test_artifacts_conflict_before_completion(self, client):
        run = client.submit_run(kind="apitest", params={"gate": True})
        status, doc = client.request(
            "GET", f"/runs/{run['run_id']}/artifacts/metrics"
        )
        assert status == 409
        _GATE.set()


class TestShutdownDrain:
    def test_queued_runs_drain_to_journal(self, tmp_path):
        _CALLS.clear()
        _GATE.clear()
        journal_path = tmp_path / "drain.jsonl"
        journal = JobJournal(journal_path)
        service = ApiService(
            store=ResultStore(tmp_path / "cache"),
            journal=journal,
            workers=1,
            allow_kinds=("apitest",),
        )
        handle = start_server_thread(service)
        client = ApiClient(handle.host, handle.port)
        running = client.submit_run(kind="apitest", params={"gate": True})
        wait_until_running(client, running["run_id"])
        # With the only worker gated, this one is stuck in the queue and
        # must be drained back to the journal by the shutdown.
        queued = client.submit_run(kind="apitest", params={"value": 99})
        threading.Timer(0.3, _GATE.set).start()  # release mid-drain
        handle.stop()
        journal.close()
        events = JobJournal.read(journal_path)
        assert "api_stop" in {e["event"] for e in events}
        drained = [e for e in events if e["event"] == "api_drained"]
        assert [e["run_id"] for e in drained] == [queued["run_id"]]
        # The full spec rides along so an operator can resubmit it.
        assert drained[0]["spec"]["params"]["value"] == 99

    def test_drained_follower_counts_in_metrics(self, tmp_path):
        # A follower drained with its queued leader is a terminal run
        # like any other: /metrics must count it, not only the journal.
        _CALLS.clear()
        _GATE.clear()
        registry = TelemetryRegistry()
        previous = set_registry(registry)
        journal = JobJournal(tmp_path / "drain.jsonl")
        try:
            service = ApiService(
                store=ResultStore(tmp_path / "cache"),
                journal=journal,
                workers=1,
                allow_kinds=("apitest",),
            )
            handle = start_server_thread(service)
            client = ApiClient(handle.host, handle.port)
            running = client.submit_run(kind="apitest", params={"gate": True})
            wait_until_running(client, running["run_id"])
            leader = client.submit_run(kind="apitest", params={"value": 7})
            follower = client.submit_run(kind="apitest", params={"value": 7})
            assert follower["coalesced_into"] == leader["run_id"]
            threading.Timer(0.3, _GATE.set).start()
            handle.stop()
            counts = service.stats()["counters"]
        finally:
            set_registry(previous)
            journal.close()
        assert counts["drained"] == 2
        drained = [
            value
            for name, labels, value in parse_exposition(
                render_exposition(registry)
            )["samples"]
            if name == "repro_api_runs_total"
            and labels.get("status") == "drained"
        ]
        assert drained == [2.0]

    def test_stats_read_the_api_series(self, tmp_path):
        """``stats()`` and the ``api_stop`` record report the
        ``repro_api_*`` series: one source for every count."""
        _CALLS.clear()
        _GATE.clear()
        registry = TelemetryRegistry()
        previous = set_registry(registry)
        journal_path = tmp_path / "drain.jsonl"
        journal = JobJournal(journal_path)
        try:
            service = ApiService(
                store=ResultStore(tmp_path / "cache"),
                journal=journal,
                queue=FairQueue(default_policy=TenantPolicy(max_queued=2)),
                workers=1,
                allow_kinds=("apitest",),
            )
            handle = start_server_thread(service)
            client = ApiClient(handle.host, handle.port)
            submit_and_wait(client, kind="apitest", params={"value": 1})
            assert client.submit_run(kind="apitest",
                                     params={"value": 1})["cached"]
            running = client.submit_run(kind="apitest", params={"gate": True})
            wait_until_running(client, running["run_id"])
            leader = client.submit_run(kind="apitest", params={"value": 7})
            follower = client.submit_run(kind="apitest", params={"value": 7})
            assert follower["coalesced_into"] == leader["run_id"]
            client.submit_run(kind="apitest", params={"value": 8})
            with pytest.raises(ApiClientError) as exc:
                client.submit_run(kind="apitest", params={"value": 9})
            assert exc.value.status == 429
            threading.Timer(0.3, _GATE.set).start()
            handle.stop()
            counts = service.stats()["counters"]
        finally:
            set_registry(previous)
            journal.close()

        assert counts == {
            "submitted": 6, "cache_hits": 1, "coalesced": 1, "rejected": 1,
            "executed": 2, "completed": 3, "failed": 0, "drained": 3,
        }
        samples = parse_exposition(render_exposition(registry))["samples"]

        def series(name, status):
            return sum(value for n, labels, value in samples
                       if n == name and labels.get("status") == status)

        requests = "repro_api_requests_total"
        assert counts["submitted"] == sum(
            series(requests, s) for s in ("accepted", "cache_hit", "coalesced")
        )
        assert counts["cache_hits"] == series(requests, "cache_hit")
        assert counts["coalesced"] == series(requests, "coalesced")
        assert counts["rejected"] == series(requests, "rejected")
        for status in ("completed", "failed", "drained"):
            assert counts[status] == series("repro_api_runs_total", status)
        assert counts["executed"] == sum(
            value for n, _labels, value in samples
            if n == "repro_api_run_seconds_count"
        )
        stop = [e for e in JobJournal.read(journal_path)
                if e["event"] == "api_stop"]
        assert [(e["completed"], e["failed"], e["drained"]) for e in stop] \
            == [(3, 0, 3)]

    def test_drained_runs_resubmit_after_restart(self, tmp_path):
        """Replaying the journal's ``api_drained`` specs on a fresh
        service over the same store runs each drained job once, under
        its drained key; a second replay is served from the cache."""
        _CALLS.clear()
        _GATE.clear()
        journal_path = tmp_path / "drain.jsonl"
        journal = JobJournal(journal_path)
        service = ApiService(
            store=ResultStore(tmp_path / "cache"),
            journal=journal,
            workers=1,
            allow_kinds=("apitest",),
        )
        handle = start_server_thread(service)
        client = ApiClient(handle.host, handle.port)
        running = client.submit_run(kind="apitest", params={"gate": True})
        wait_until_running(client, running["run_id"])
        queued = [
            client.submit_run(kind="apitest", params={"value": value})
            for value in (3, 4)
        ]
        threading.Timer(0.3, _GATE.set).start()
        handle.stop()
        journal.close()
        drained = [e for e in JobJournal.read(journal_path)
                   if e["event"] == "api_drained"]
        assert [e["run_id"] for e in drained] == [q["run_id"] for q in queued]

        _CALLS.clear()
        journal = JobJournal(journal_path)
        restarted = ApiService(
            store=ResultStore(tmp_path / "cache"),
            journal=journal,
            workers=1,
            allow_kinds=("apitest",),
        )
        handle = start_server_thread(restarted)
        try:
            client = ApiClient(handle.host, handle.port)

            async def resubmit(record):
                return restarted.submit(
                    JobSpec.from_dict(record["spec"]), record["tenant"]
                )

            for record in drained:
                rec = handle.call(resubmit(record))
                assert rec.key == record["key"]
                done = client.wait_for_run(rec.id, timeout_s=15.0)
                assert done["status"] == "completed"
                assert not done["cached"]
            assert _CALLS == [record["key"] for record in drained]
            for record in drained:
                rec = handle.call(resubmit(record))
                assert rec.status == "completed" and rec.cached
            assert len(_CALLS) == len(drained)
        finally:
            handle.stop()
            journal.close()
