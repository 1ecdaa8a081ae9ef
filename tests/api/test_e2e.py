"""Acceptance scenario: one sweep, two tenants, zero duplicate work.

The ISSUE-6 end-to-end criterion: the same sweep submitted twice over
HTTP from two tenants concurrently — the second is served from cache /
single-flight without re-executing, progress events stream in order, and
``GET /leaderboard`` returns a policy ranking consistent with the cached
``SimulationResult`` aggregates.

Runs the *real* simulation path (tiny dataset, quarter-scale workload),
with the production handler wrapped only to count executions.
"""

import math
import threading

import pytest

from repro.api import ApiClient, ApiService, start_server_thread
from repro.obs.chrome import SIM_PID, validate_chrome_trace
from repro.service.handlers import run_simulation_job
from repro.service.journal import JobJournal
from repro.service.jobs import register_handler, unregister_handler
from repro.service.store import ResultStore
from repro.telemetry import parse_exposition
from repro.telemetry.registry import TelemetryRegistry, set_registry

SWEEP = {
    "workloads": ["kcore"],
    "datasets": ["ldbc-tiny"],
    "policies": ["non-offloading", "coolpim-hw"],
    "workload_scale": 0.25,
}


@pytest.fixture
def executions():
    """Count real simulation executions without changing their behavior."""
    calls = []
    lock = threading.Lock()

    def counting(spec):
        with lock:
            calls.append(spec.key)
        return run_simulation_job(spec)

    register_handler("simulation", counting)
    try:
        yield calls
    finally:
        unregister_handler("simulation")


@pytest.fixture
def server(tmp_path, executions):
    journal = JobJournal(tmp_path / "journal.jsonl")
    service = ApiService(
        store=ResultStore(tmp_path / "cache"), journal=journal, workers=2
    )
    handle = start_server_thread(service)
    try:
        yield handle
    finally:
        handle.stop()
        journal.close()


def _wait_sweep(client, sweep_doc, timeout_s=120.0):
    return [
        client.wait_for_run(run["run_id"], timeout_s=timeout_s)
        for run in sweep_doc["runs"]
    ]


class TestEndToEnd:
    def test_concurrent_sweeps_dedupe_stream_and_rank(
        self, server, executions
    ):
        clients = {
            tenant: ApiClient(server.host, server.port, tenant=tenant)
            for tenant in ("team-a", "team-b")
        }
        barrier = threading.Barrier(2)
        submissions = {}

        def submit(tenant):
            barrier.wait()
            submissions[tenant] = clients[tenant].submit_sweep(**SWEEP)

        threads = [
            threading.Thread(target=submit, args=(t,)) for t in clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert set(submissions) == {"team-a", "team-b"}

        done = {
            tenant: _wait_sweep(clients[tenant], doc)
            for tenant, doc in submissions.items()
        }

        # --- no duplicate work: 2 unique jobs → exactly 2 executions ----
        assert len(executions) == 2
        assert len(set(executions)) == 2

        # Per content key, one submission led and the other was absorbed
        # (coalesced onto the in-flight leader, or a cache hit if the
        # leader had already finished).
        by_key = {}
        for tenant, doc in submissions.items():
            for run in doc["runs"]:
                by_key.setdefault(run["key"], []).append(run)
        for key, pair in by_key.items():
            assert len(pair) == 2
            absorbed = [
                r for r in pair
                if r["cached"] or r["coalesced_into"] is not None
            ]
            assert len(absorbed) == 1, f"key {key}: {pair}"

        # --- every run completed with identical results per key ----------
        for runs in done.values():
            for run in runs:
                assert run["status"] == "completed"
        for key, pair in by_key.items():
            results = [
                clients["team-a"].get_run(r["run_id"])["result"]["result"]
                for r in pair
            ]
            assert results[0] == results[1]

        # --- progress events stream in order, ending terminal ------------
        for tenant, doc in submissions.items():
            for run in doc["runs"]:
                events = list(
                    clients[tenant].stream_events(run["run_id"])
                )
                assert [e["seq"] for e in events] == list(
                    range(len(events))
                )
                assert events[0]["event"] == "queued"
                assert events[-1]["event"] == "completed"
                # The terminal event carries the repro.obs metrics
                # snapshot for live runs (the wire-format contract).
                assert events[-1]["result"]["runtime_s"] > 0

        # --- leaderboard consistent with the cached aggregates -----------
        board = clients["team-a"].leaderboard(workload="kcore")
        assert board["scenarios"] == 1
        by_policy = {e["policy"]: e for e in board["policies"]}
        assert set(by_policy) == {"non-offloading", "coolpim-hw"}

        runtimes = {}
        for runs in done.values():
            for run in runs:
                result = run["result"]["result"]
                runtimes[result["policy"]] = result["runtime_s"]
        expected = runtimes["non-offloading"] / runtimes["coolpim-hw"]
        assert math.isclose(
            by_policy["coolpim-hw"]["geomean_speedup"], expected,
            rel_tol=1e-9,
        )
        assert by_policy["non-offloading"]["geomean_speedup"] == 1.0
        ranked = [e["policy"] for e in board["policies"]]
        assert ranked[0] == (
            "coolpim-hw" if expected > 1.0 else "non-offloading"
        )

        # --- a third identical sweep is pure cache: zero new work --------
        resubmit = clients["team-b"].submit_sweep(**SWEEP)
        for run in resubmit["runs"]:
            assert run["cached"] and run["status"] == "completed"
        assert len(executions) == 2


class TestArtifacts:
    RUN = {"workload": "kcore", "dataset": "ldbc-tiny", "workload_scale": 0.25}

    @pytest.fixture
    def service(self, tmp_path):
        service = ApiService(store=ResultStore(tmp_path / "cache"), workers=1)
        handle = start_server_thread(service)
        try:
            yield service, ApiClient(handle.host, handle.port)
        finally:
            handle.stop()

    def test_completed_run_serves_every_artifact(self, service):
        service, client = service
        traced = client.submit_run(**self.RUN, trace=True)
        plain = client.submit_run(**self.RUN)
        assert client.wait_for_run(traced["run_id"])["status"] == "completed"
        # GET /runs strips the timeline; the run record keeps it.
        timeline = service.get_run(traced["run_id"]).payload["result"]["timeline"]
        assert timeline

        doc = client.artifact(traced["run_id"], "trace")
        validate_chrome_trace(doc)
        # The timeline, row by row, as sim-lane counters in timeline order.
        tracks = ("sim.temp_c", "sim.pim_rate_ops_ns", "sim.pim_fraction")
        expected = [
            (name, row[0] * 1e6, value)
            for row in timeline
            for name, value in zip(tracks, row[1:])
        ]
        sim_lane = [
            (e["name"], e["ts"], e["args"]["value"])
            for e in doc["traceEvents"]
            if e["pid"] == SIM_PID and e["ph"] == "C"
        ]
        assert len(sim_lane) == 3 * len(timeline)
        assert [(n, v) for n, _, v in sim_lane] == [
            (n, v) for n, _, v in expected
        ]
        assert [t for _, t, _ in sim_lane] == pytest.approx(
            [t for _, t, _ in expected]
        )

        for name in ("metrics", "report", "manifest"):
            status, _ = client.request(
                "GET", f"/runs/{traced['run_id']}/artifacts/{name}"
            )
            assert status == 200, name

        assert client.wait_for_run(plain["run_id"])["status"] == "completed"
        status, _ = client.request(
            "GET", f"/runs/{plain['run_id']}/artifacts/trace"
        )
        assert status == 404


class TestPoolServer:
    """``repro serve --pool``: jobs run in forked scheduler workers, and
    their telemetry reaches the server's registry through the delta pipe."""

    @pytest.fixture
    def registry(self):
        previous = set_registry(TelemetryRegistry())
        try:
            yield
        finally:
            set_registry(previous)

    def test_pool_run_completes_stores_and_reports(self, tmp_path, registry):
        store = ResultStore(tmp_path / "cache")
        handle = start_server_thread(ApiService(store=store, workers=1, pool=True))
        try:
            client = ApiClient(handle.host, handle.port)
            run = client.submit_run(
                workload="kcore", dataset="ldbc-tiny", workload_scale=0.25
            )
            done = client.wait_for_run(run["run_id"])
            assert done["status"] == "completed" and not done["cached"]
            assert store.get(run["key"]) is not None
            samples = parse_exposition(client.metrics())["samples"]
        finally:
            handle.stop()
        assert ("repro_sim_runs_total", {"engine": "macro"}, 1.0) in samples
