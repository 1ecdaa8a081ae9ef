"""Fig. 12 — average PIM offloading rate per benchmark.

Naïve offloading reaches multi-op/ns rates on the BFS/SSSP warp-centric
kernels, while CoolPIM's source throttling holds every benchmark at or
below the 1.3 op/ns thermal threshold (Fig. 5). kcore and sssp-dtc sit
under the threshold on their own, which is why throttling never engages
for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.initialization import PIM_RATE_THRESHOLD_OPS_NS
from repro.experiments.common import RunScale, format_table
from repro.experiments.evaluation import EvaluationMatrix, run_matrix

POLICIES = ["naive-offloading", "coolpim-sw", "coolpim-hw"]


@dataclass
class PimRateResult:
    matrix: EvaluationMatrix
    rates: Dict[str, Dict[str, float]]

    def coolpim_within_threshold(self, slack: float = 0.25) -> bool:
        """All CoolPIM rates at/below the threshold (+slack for control
        ripple)."""
        limit = PIM_RATE_THRESHOLD_OPS_NS + slack
        return all(
            self.rates[wl][p] <= limit
            for wl in self.rates
            for p in ("coolpim-sw", "coolpim-hw")
        )


def run(scale: Optional[RunScale] = None) -> PimRateResult:
    matrix = run_matrix(scale)
    rates = {
        wl: {
            p: matrix.results[wl][p].avg_pim_rate_ops_ns for p in POLICIES
        }
        for wl in matrix.workloads
    }
    return PimRateResult(matrix=matrix, rates=rates)


def format_result(result: PimRateResult) -> str:
    headers = ["Benchmark", "Naive", "CoolPIM(SW)", "CoolPIM(HW)"]
    rows = [
        [wl] + [result.rates[wl][p] for p in POLICIES] for wl in result.rates
    ]
    table = format_table(
        headers, rows,
        title="Fig. 12 - Average PIM offloading rate (op/ns)",
    )
    ok = result.coolpim_within_threshold()
    return "\n".join(
        [table, f"  CoolPIM holds all rates near/below "
                f"{PIM_RATE_THRESHOLD_OPS_NS} op/ns: {ok}"]
    )
