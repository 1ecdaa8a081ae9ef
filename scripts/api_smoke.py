#!/usr/bin/env python
"""CI smoke for the HTTP service: boot, submit, stream, dedupe, drain.

Boots a real ``repro serve`` subprocess on a free port, submits one tiny
simulation over HTTP, follows its JSONL event stream, re-submits the
identical body and asserts the second submission is served from the
cache without re-executing, submits two identical uncached bodies back
to back and asserts the second attaches to the first (``coalesced_into``)
and the job executes once, checks the leaderboard and admin endpoints,
submits from a second ``X-Tenant`` and checks that ``/admin/tenants``
counts each tenant's dispatched runs, then shuts the server down
gracefully and verifies the journal recorded the whole story.

Usage: PYTHONPATH=src python scripts/api_smoke.py [cache_dir]
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

RUN_BODY = {
    "workload": "kcore",
    "dataset": "ldbc-tiny",
    "policy": "coolpim-hw",
    "workload_scale": 0.25,
}
BASELINE_BODY = dict(RUN_BODY, policy="non-offloading")
#: Slow enough (~0.6 s cold: full ``ldbc`` load plus trace generation)
#: that the second of two back-to-back POSTs lands while the first runs.
TWIN_BODY = dict(
    RUN_BODY, dataset="ldbc", policy="coolpim-sw", workload_scale=1.0
)
#: Fresh work from two tenants, queued together in the tenant section.
TENANT_BODIES = {
    "ci": [dict(RUN_BODY, policy="coolpim-sw")],
    "ci-b": [dict(RUN_BODY, policy="naive-offloading"),
             dict(RUN_BODY, policy="ideal-thermal")],
}


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def completed_jobs(client):
    """``repro_jobs_total{status="completed"}`` summed over job kinds."""
    from repro.telemetry import parse_exposition

    status, text = client.request("GET", "/metrics")
    if status != 200:
        fail(f"/metrics → HTTP {status}")
    return sum(
        value
        for name, labels, value in parse_exposition(text)["samples"]
        if name == "repro_jobs_total" and labels.get("status") == "completed"
    )


def fresh(doc):
    """A submission that entered the queue (neither cached nor coalesced)."""
    return not doc["cached"] and doc["coalesced_into"] is None


def main():
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-api-smoke-"
    )
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        banner = proc.stdout.readline()
        print(banner.strip())
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if not match:
            fail(f"no listen address in banner: {banner!r}")
        host, port = match.group(1), int(match.group(2))

        sys.path.insert(0, "src")
        from repro.api.client import ApiClient

        client = ApiClient(host, port, tenant="ci")
        health = client.healthz()
        if health["status"] != "ok":
            fail(f"healthz: {health}")
        print(f"healthz ok ({health['workers']} workers)")

        # --- live run + ordered event stream --------------------------
        first = client.submit_run(**RUN_BODY)
        print(f"submitted run {first['run_id']} (cached={first['cached']})")
        if first["cached"]:
            fail("first submission must execute, not hit the cache")
        events = list(client.stream_events(first["run_id"]))
        names = [e["event"] for e in events]
        seqs = [e["seq"] for e in events]
        print(f"streamed {len(events)} events: {names}")
        if seqs != sorted(seqs) or names[-1] != "completed":
            fail(f"event stream out of order or non-terminal: {names}")

        # --- resubmission: must be a cache hit, not a re-run ----------
        status, second = client.request("POST", "/runs", RUN_BODY)
        print(f"resubmitted → HTTP {status} (cached={second['cached']})")
        if status != 200 or not second["cached"]:
            fail("identical resubmission was not served from cache")

        # --- baseline run so the leaderboard has a comparison ---------
        base = client.submit_run(**BASELINE_BODY)
        client.wait_for_run(base["run_id"], timeout_s=120.0)
        board = client.leaderboard(workload="kcore")
        policies = {e["policy"]: e for e in board["policies"]}
        print(
            "leaderboard:",
            [(e["rank"], e["policy"], e["geomean_speedup"])
             for e in board["policies"]],
        )
        if "coolpim-hw" not in policies or "non-offloading" not in policies:
            fail(f"leaderboard missing policies: {sorted(policies)}")
        if policies["non-offloading"]["geomean_speedup"] != 1.0:
            fail("baseline speedup must be exactly 1.0")

        cache = client.admin_cache()
        print(f"cache entries: {cache['entries']}")
        if cache["entries"] != 2:
            fail(f"expected 2 cached results, saw {cache['entries']}")

        # --- identical in-flight submissions: one execution -----------
        executed_before = completed_jobs(client)
        leader = client.submit_run(**TWIN_BODY)
        twin = client.submit_run(**TWIN_BODY)
        print(
            f"twin submissions {leader['run_id']} / {twin['run_id']} "
            f"(coalesced_into={twin['coalesced_into']})"
        )
        if leader["cached"] or leader["coalesced_into"] is not None:
            fail(f"first twin must execute: {leader}")
        if twin["coalesced_into"] != leader["run_id"]:
            fail(f"second twin did not attach to the first: {twin}")
        done = [
            client.wait_for_run(r["run_id"], timeout_s=120.0)
            for r in (leader, twin)
        ]
        if [d["status"] for d in done] != ["completed", "completed"]:
            fail(f"twins did not complete: {[d['status'] for d in done]}")
        if done[0]["result"] != done[1]["result"]:
            fail("coalesced twin's result differs from its leader's")
        executed = completed_jobs(client) - executed_before
        entries = client.admin_cache()["entries"]
        print(
            f"twins executed {executed:g} job(s) "
            f"({done[0]['elapsed_s']:.2f} s), cache entries: {entries}"
        )
        if executed != 1 or entries != 3:
            fail(f"twins must execute once (executed={executed:g}, "
                 f"cache entries={entries})")

        # --- two tenants: each one's fresh runs are dispatched ---------
        expected = {"ci": sum(map(fresh, (first, second, base, leader, twin)))}
        pending = []
        for tenant, bodies in TENANT_BODIES.items():
            tclient = ApiClient(host, port, tenant=tenant)
            for body in bodies:
                doc = tclient.submit_run(**body)
                expected[tenant] = expected.get(tenant, 0) + fresh(doc)
                pending.append(doc["run_id"])
        for run_id in pending:
            client.wait_for_run(run_id, timeout_s=120.0)
        status, tenants = client.request("GET", "/admin/tenants")
        print(f"admin/tenants → HTTP {status}: {tenants}")
        if status != 200 or sorted(tenants) != sorted(expected):
            fail(f"/admin/tenants must list {sorted(expected)}")
        for tenant, count in expected.items():
            entry = tenants[tenant]
            if entry["dispatched"] != count or entry["queued"] != 0:
                fail(f"tenant {tenant!r}: {count} fresh submission(s), "
                     f"stats {entry}")
            if "weight" in entry or "max_running" in entry:
                fail(f"tenant {tenant!r} entry has scheduling knobs: {entry}")
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            rc = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("server did not shut down within 30s")
        print(proc.stdout.read().strip())

    if rc != 0:
        fail(f"server exited {rc}")

    journal = os.path.join(cache_dir, "journal.jsonl")
    events = set()
    with open(journal, encoding="utf-8") as fh:
        for line in fh:
            try:
                events.add(json.loads(line)["event"])
            except (json.JSONDecodeError, KeyError):
                continue
    for required in ("api_start", "api_submitted", "api_completed",
                     "api_cache_hit", "api_coalesced", "api_stop"):
        if required not in events:
            fail(f"journal missing {required!r} (saw {sorted(events)})")
    print("journal audit ok:", ", ".join(sorted(events)))
    print("API SMOKE PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
