"""Fig. 10 — speedup over the non-offloading baseline.

Ten GraphBIG benchmarks × {naïve offloading, CoolPIM (SW), CoolPIM (HW),
ideal thermal}, all normalized to the non-offloading baseline. Paper
headlines: CoolPIM up to 1.4× vs baseline / 1.37× vs naïve; average 21 %
(SW) and 25 % (HW); naïve *degrades* bfs-dwc and bfs-twc (−18 %/−16 %);
ideal thermal up to 61 %, average 36 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.common import RunScale, format_table
from repro.experiments.evaluation import EvaluationMatrix, run_matrix

POLICIES = ["naive-offloading", "coolpim-sw", "coolpim-hw", "ideal-thermal"]


@dataclass
class SpeedupResult:
    matrix: EvaluationMatrix
    #: [workload][policy] → speedup over baseline.
    speedups: Dict[str, Dict[str, float]]
    geo_means: Dict[str, float]

    def best_coolpim_vs_baseline(self) -> float:
        return max(
            self.speedups[wl][p]
            for wl in self.speedups
            for p in ("coolpim-sw", "coolpim-hw")
        )

    def best_coolpim_vs_naive(self) -> float:
        return max(
            max(self.speedups[wl]["coolpim-sw"], self.speedups[wl]["coolpim-hw"])
            / self.speedups[wl]["naive-offloading"]
            for wl in self.speedups
        )


def run(scale: Optional[RunScale] = None) -> SpeedupResult:
    matrix = run_matrix(scale)
    speedups = {
        wl: {p: matrix.speedup(wl, p) for p in POLICIES} for wl in matrix.workloads
    }
    geo = {p: matrix.geo_mean_speedup(p) for p in POLICIES}
    return SpeedupResult(matrix=matrix, speedups=speedups, geo_means=geo)


def format_result(result: SpeedupResult) -> str:
    headers = ["Benchmark", "Naive", "CoolPIM(SW)", "CoolPIM(HW)", "IdealThermal"]
    rows: List[list] = []
    for wl, per_policy in result.speedups.items():
        rows.append([wl] + [per_policy[p] for p in POLICIES])
    rows.append(
        ["geo-mean"] + [result.geo_means[p] for p in POLICIES]
    )
    table = format_table(
        headers, rows, title="Fig. 10 - Speedup over the non-offloading baseline"
    )
    notes = [
        f"  best CoolPIM vs baseline: {result.best_coolpim_vs_baseline():.2f}x "
        "(paper: up to 1.4x)",
        f"  best CoolPIM vs naive:    {result.best_coolpim_vs_naive():.2f}x "
        "(paper: up to 1.37x)",
    ]
    from repro.viz import bar_chart

    naive_bars = bar_chart(
        {wl: result.speedups[wl]["naive-offloading"] for wl in result.speedups},
        reference=1.0, unit="x", title="Naive offloading vs baseline:",
        width=40,
    )
    cool_bars = bar_chart(
        {wl: max(result.speedups[wl]["coolpim-sw"],
                 result.speedups[wl]["coolpim-hw"])
         for wl in result.speedups},
        reference=1.0, unit="x", title="Best CoolPIM vs baseline:", width=40,
    )
    return "\n".join([table, *notes, "", naive_bars, "", cool_bars])
