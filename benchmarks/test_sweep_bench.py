"""Sweep-scale throughput: the epoch-trace memo vs cold per-run jobs.

Guards the win of the process-wide trace memo
(:func:`repro.workloads.base.launch_for`) on the Fig. 10 sweep — every
registry workload under the full five-policy evaluation matrix, executed
the way the job service executes sweeps, one
:func:`~repro.service.handlers.run_simulation_job` per (workload, policy)
cell:

- **cold leg** — the memo is cleared before every job, so each run
  generates its own epoch trace (the per-run cost without reuse).
- **memo leg** — the same jobs with the memo: each workload's trace is
  generated once and the other four policies replay it, and kernel
  variants of one family (four BFS, two data-driven SSSP) read one
  shared traversal.

``test_trace_memo_sweep_speedup`` pins the memo leg at >=3.5x aggregate
wall clock over the cold leg at the calibrated full scale (>=1.5x under
``REPRO_BENCH_QUICK=1``, where the small graph shrinks the trace
generation the memo amortizes), while asserting every cell's result is
*bit-identical* between the legs, and that the memo leg runs six
traversals for the ten registry workloads.

Each run's measurements are written to ``BENCH_sweep.json`` (in the
working directory); ``benchmarks/baselines.json`` registers the
aggregate for the ``repro bench-trend`` gate.
"""

import json
import os
import time
from pathlib import Path

from repro.core.policies import POLICY_NAMES
from repro.service.handlers import run_simulation_job, simulation_spec
from repro.telemetry import TelemetryRegistry, set_registry
from repro.workloads import list_workloads
from repro.workloads.base import clear_cache

#: The Fig. 10 evaluation matrix: the four policy curves plus the
#: non-offloading baseline they are normalized to.
POLICIES = list(POLICY_NAMES)

#: Aggregate wall-clock floor, memo over cold, at full scale (measured
#: 4.08-4.86x, median 4.34x, with family traversals shared; 3.56x on
#: the same 2-vCPU host without them). The quick floor is lower: the smoke graph makes trace
#: generation — the per-run cost the memo amortizes — nearly free. Both
#: legs shrink as generation gets faster, so this ratio is not a
#: generation-time guard; ``benchmarks/test_trace_gen_bench.py`` is.
SPEEDUP_FLOOR_FULL = 3.5
SPEEDUP_FLOOR_QUICK = 1.5

ARTIFACT = Path("BENCH_sweep.json")


def _quick() -> bool:
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def _config():
    if _quick():
        return "ldbc-small", 0.25, SPEEDUP_FLOOR_QUICK
    return "ldbc", 1.0, SPEEDUP_FLOOR_FULL


def _result_of(payload):
    """The comparable portion of a job payload's result dict."""
    result = dict(payload["result"])
    result.pop("timeline", None)
    return result


#: Algorithm runs the memo leg needs for the ten registry workloads: one
#: per kernel outside a family, one per family (BFS, data-driven SSSP).
MEMO_TRAVERSALS = 6


def _traversals(registry):
    """Algorithm runs behind the trace misses ``registry`` counted: every
    miss runs one, except those whose family traversal was a memo hit."""
    misses = registry.counter(
        "repro_trace_memo_total", labelnames=("outcome",)
    ).labels(outcome="miss").value
    shared = registry.counter(
        "repro_traversal_memo_total", labelnames=("outcome",)
    ).labels(outcome="hit").value
    return int(misses - shared)


def _leg(workloads, dataset, scale, cold):
    """Run every cell once; ``cold`` clears the trace memo before each job.

    Returns ``(payloads, per-workload s, leg s, traversals run)``.
    """
    payloads, per_wl = {}, {}
    clear_cache()
    registry = TelemetryRegistry()
    previous = set_registry(registry)
    try:
        t_leg = time.perf_counter()
        for wl in workloads:
            t0 = time.perf_counter()
            for policy in POLICIES:
                if cold:
                    clear_cache()
                payloads[wl, policy] = run_simulation_job(simulation_spec(
                    wl, dataset=dataset, policy=policy, workload_scale=scale,
                ))
            per_wl[wl] = time.perf_counter() - t0
        leg_s = time.perf_counter() - t_leg
    finally:
        set_registry(previous)
    return payloads, per_wl, leg_s, _traversals(registry)


def test_trace_memo_sweep_speedup():
    dataset, scale, floor = _config()
    workloads = list_workloads()

    # Warm the process the way a prewarmed sweep worker is warmed:
    # dataset load, thermal operator assembly, reduced-basis projection.
    run_simulation_job(simulation_spec(
        "pagerank", dataset=dataset, policy="coolpim-hw",
        workload_scale=scale,
    ))

    cold_payloads, cold_s, cold_total, _ = _leg(workloads, dataset, scale, True)
    memo_payloads, memo_s, memo_total, traversals = _leg(
        workloads, dataset, scale, False
    )

    # Correctness rides along with the timing: every cell must be
    # bit-identical whether its trace was generated or replayed.
    for cell, payload in memo_payloads.items():
        assert _result_of(payload) == _result_of(cold_payloads[cell]), cell

    aggregate = cold_total / memo_total
    rows = {
        wl: {
            "per_run_s": cold_s[wl],
            "trace_memo_s": memo_s[wl],
            "speedup": cold_s[wl] / memo_s[wl],
        }
        for wl in workloads
    }
    ARTIFACT.write_text(json.dumps({
        "benchmark": "sweep_trace_memo_vs_per_run",
        "config": {
            "dataset": dataset,
            "workload_scale": scale,
            "policies": POLICIES,
            "workloads": workloads,
            "quick": _quick(),
        },
        "per_run_s": cold_total,
        "trace_memo_s": memo_total,
        "aggregate_speedup": aggregate,
        "memo_traversals": traversals,
        "workloads_detail": rows,
    }, indent=2) + "\n")

    assert traversals == MEMO_TRAVERSALS, (
        f"memo leg ran {traversals} traversals for {len(workloads)} "
        f"workloads, expected {MEMO_TRAVERSALS}"
    )

    per_wl = ", ".join(f"{wl}={r['speedup']:.1f}x" for wl, r in rows.items())
    assert aggregate >= floor, (
        f"trace memo only {aggregate:.2f}x over the cold per-run sweep "
        f"(floor {floor}x; {per_wl})"
    )
