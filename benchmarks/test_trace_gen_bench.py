"""Epoch-trace generation time per Fig. 10 workload, in absolute seconds.

Generating a workload's epoch trace is the largest cost of a cold run:
the trace memo (:func:`repro.workloads.base.launch_for`) generates each
trace once, and this benchmark measures that once. For every registry
workload on the full-scale ``ldbc`` graph (``ldbc-small`` under
``REPRO_BENCH_QUICK=1``) it times ``epochs()`` — the bit-parallel BFS and
mark-array SSSP generators — and ``reference_epochs()``, the per-source
oracles they replace, and asserts the two yield identical
:class:`~repro.workloads.base.EpochCounts`. (Workloads without a separate
fast path are their own reference and time the same code twice.)

``test_trace_generation_time`` pins the BFS and SSSP generators at >=2x
their oracles in aggregate, and writes ``BENCH_tracegen.json`` (in the
working directory) with per-workload seconds and totals;
``benchmarks/baselines.json`` registers the absolute ``total_s`` for
the ``repro bench-trend`` gate.
"""

import json
import os
import time
from pathlib import Path

from repro.graph.datasets import get_dataset
from repro.workloads import get_workload, list_workloads
from repro.workloads.base import GraphWorkload

#: Aggregate floor, oracle over fast generator, across the workloads that
#: have a fast path (BFS and SSSP). Measured ~4.8x on full-scale ``ldbc``.
SPEEDUP_FLOOR = 2.0

ARTIFACT = Path("BENCH_tracegen.json")


def _dataset() -> str:
    return "ldbc-small" if os.environ.get("REPRO_BENCH_QUICK") else "ldbc"


def _timed(generate):
    t0 = time.perf_counter()
    epochs = list(generate())
    return epochs, time.perf_counter() - t0


def test_trace_generation_time():
    dataset = _dataset()
    graph = get_dataset(dataset)
    graph.fingerprint()  # load outside the timed region
    rows = {}
    for name in list_workloads():
        workload = get_workload(name)
        fast, fast_s = _timed(lambda: workload.epochs(graph))
        ref, ref_s = _timed(lambda: workload.reference_epochs(graph))
        assert fast == ref, name
        rows[name] = {
            "generate_s": fast_s,
            "reference_s": ref_s,
            "epochs": len(fast),
            "fast_path": (type(workload).reference_epochs
                          is not GraphWorkload.reference_epochs),
        }

    total = sum(r["generate_s"] for r in rows.values())
    reference_total = sum(r["reference_s"] for r in rows.values())
    fast_path = [r for r in rows.values() if r["fast_path"]]
    speedup = (sum(r["reference_s"] for r in fast_path)
               / sum(r["generate_s"] for r in fast_path))
    ARTIFACT.write_text(json.dumps({
        "benchmark": "trace_generation",
        "config": {"dataset": dataset, "workloads": list(rows)},
        "total_s": total,
        "reference_total_s": reference_total,
        "fast_path_speedup": speedup,
        "workloads": rows,
    }, indent=2) + "\n")

    per_wl = ", ".join(f"{name}={r['generate_s']:.3f}s"
                       for name, r in rows.items())
    assert speedup >= SPEEDUP_FLOOR, (
        f"BFS/SSSP trace generation only {speedup:.2f}x over the per-source "
        f"oracles (floor {SPEEDUP_FLOOR}x; {per_wl})"
    )
