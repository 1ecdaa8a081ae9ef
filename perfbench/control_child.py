"""Program process of the control-loop workload.

Runs serial ``CoolPimSystem.run`` calls, the call ``repro run`` and
``repro compare`` make, on one long-lived system per cooling solution.
Set-up fills each system's trace cache at full run length, so the
measured phase makes no trace launches; the quick-length runs then show
whether the system hands back a trace of the wrong length.

Protocol (one JSON line each way): the process prints ``{"ready": ...}``
once set up, reads the op list from stdin, prints the results and exits.
The traced run imports :func:`setup` and :func:`measure` instead.

    PYTHONPATH=src python3 perfbench/control_child.py --seed 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Any, Dict, List, Sequence

#: Trace-light workloads: trace generation is a small share of a run.
WORKLOADS = ("dc", "kcore", "pagerank")
POLICIES = (
    "non-offloading", "naive-offloading", "coolpim-sw", "coolpim-hw",
    "ideal-thermal",
)
COOLINGS = ("passive", "low-end", "commodity", "high-end")
#: Run lengths: ``workload_scale`` of a full and a ``--quick`` run.
LENGTHS = {"full": 1.0, "quick": 0.25}
DATASET = "ldbc"


def all_ops() -> List[List[str]]:
    return [
        [w, p, c, length]
        for w in WORKLOADS for p in POLICIES for c in COOLINGS
        for length in LENGTHS
    ]


def setup(sim_seed: int):
    """Systems, graph: one system per cooling, traces filled."""
    from repro.core.coolpim import CoolPimSystem
    from repro.graph.datasets import get_dataset
    from repro.thermal.cooling import COOLING_SOLUTIONS
    from repro.workloads.registry import get_workload

    graph = get_dataset(DATASET)
    systems = {c: CoolPimSystem(cooling=COOLING_SOLUTIONS[c]) for c in COOLINGS}
    for system in systems.values():
        for w in WORKLOADS:
            system.run(get_workload(w, seed=sim_seed), graph, "non-offloading")
    return systems, graph


def measure(
    systems, graph, ops: Sequence[Sequence[str]], sim_seed: int, recorder=None
) -> List[Dict[str, Any]]:
    """Run ``ops`` in order; per op: host latency, control steps, result."""
    from repro.experiments.common import apply_workload_scale
    from repro.workloads.registry import get_workload

    out = []
    for i, (w, p, c, length) in enumerate(ops):
        scope = recorder.request(f"op{i}") if recorder else contextlib.nullcontext()
        with scope:
            workload = apply_workload_scale(
                get_workload(w, seed=sim_seed), LENGTHS[length]
            )
            system = systems[c]
            t0 = time.perf_counter()
            result = system.run(workload, graph, p)
            latency = time.perf_counter() - t0
        out.append({
            "op": [w, p, c, length],
            "latency_s": latency,
            "steps": system.last_stats.scoped("sim").counter("control_steps").value,
            "result": result.to_dict(),
        })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    systems, graph = setup(args.seed)
    print(json.dumps({"ready": True}), flush=True)
    ops = json.loads(sys.stdin.readline())
    t0 = time.perf_counter()
    results = measure(systems, graph, ops, args.seed)
    wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall, "ops": results}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
