"""Fig. 11 — off-chip link traffic normalized to the baseline.

Total link bytes each configuration moves divided by the
non-offloading baseline's: the bandwidth an offloading policy saves on
the same kernel. The paper's counterintuitive observation:
naïve offloading achieves the *largest* bandwidth savings (up to 39 % on
sssp-dwc) yet the *worst* performance on the hot benchmarks — bandwidth
saved is useless when the thermal phase derates the memory.

Note (DESIGN.md §5): our baseline is host-atomic-throughput-bound rather
than link-bound, so absolute ratios sit closer to 1 than the paper's;
the ordering (naïve saves most, CoolPIM intermediate) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.common import RunScale, format_table
from repro.experiments.evaluation import EvaluationMatrix, run_matrix

POLICIES = ["non-offloading", "naive-offloading", "coolpim-sw", "coolpim-hw"]


@dataclass
class BandwidthResult:
    matrix: EvaluationMatrix
    #: [workload][policy] → total link bytes / baseline link bytes.
    traffic_ratio: Dict[str, Dict[str, float]]


def run(scale: Optional[RunScale] = None) -> BandwidthResult:
    matrix = run_matrix(scale)
    traffic: Dict[str, Dict[str, float]] = {}
    for wl in matrix.workloads:
        base = matrix.baseline(wl)
        traffic[wl] = {
            p: (matrix.results[wl][p].link_bytes / base.link_bytes
                if base.link_bytes else 0.0)
            for p in POLICIES
        }
    return BandwidthResult(matrix=matrix, traffic_ratio=traffic)


def format_result(result: BandwidthResult) -> str:
    headers = ["Benchmark", "Non-Off", "Naive", "CoolPIM(SW)", "CoolPIM(HW)"]
    rows = [
        [wl] + [result.traffic_ratio[wl][p] for p in POLICIES]
        for wl in result.traffic_ratio
    ]
    return format_table(
        headers, rows,
        title="Fig. 11 - Link traffic normalized to the non-offloading baseline",
    )
