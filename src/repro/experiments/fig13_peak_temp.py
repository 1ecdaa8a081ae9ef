"""Fig. 13 — peak DRAM temperature per benchmark.

With naïve offloading the peak DRAM temperature exceeds 90 °C for most
benchmarks (bfs-dwc and bfs-twc reach ~95 °C); CoolPIM keeps every
benchmark at/near the 85 °C normal-range boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.common import RunScale, format_table
from repro.experiments.evaluation import EvaluationMatrix, run_matrix

POLICIES = ["naive-offloading", "coolpim-sw", "coolpim-hw"]


@dataclass
class PeakTempResult:
    matrix: EvaluationMatrix
    temps: Dict[str, Dict[str, float]]

    def hottest_naive(self) -> float:
        return max(self.temps[wl]["naive-offloading"] for wl in self.temps)

    def hottest_coolpim(self) -> float:
        return max(
            self.temps[wl][p]
            for wl in self.temps
            for p in ("coolpim-sw", "coolpim-hw")
        )


def run(scale: Optional[RunScale] = None) -> PeakTempResult:
    matrix = run_matrix(scale)
    temps = {
        wl: {p: matrix.results[wl][p].peak_dram_temp_c for p in POLICIES}
        for wl in matrix.workloads
    }
    return PeakTempResult(matrix=matrix, temps=temps)


def format_result(result: PeakTempResult) -> str:
    headers = ["Benchmark", "Naive", "CoolPIM(SW)", "CoolPIM(HW)"]
    rows = [
        [wl] + [result.temps[wl][p] for p in POLICIES] for wl in result.temps
    ]
    table = format_table(
        headers, rows, title="Fig. 13 - Peak DRAM temperature (C)"
    )
    notes = [
        f"  hottest naive run:   {result.hottest_naive():.1f} C (paper: ~95 C)",
        f"  hottest CoolPIM run: {result.hottest_coolpim():.1f} C "
        "(paper: <= 85 C)",
    ]
    from repro.viz import bar_chart

    chart = bar_chart(
        {wl: result.temps[wl]["naive-offloading"] for wl in result.temps},
        reference=85.0, unit="C", width=40,
        title="Naive-offloading peak DRAM temperature:",
    )
    return "\n".join([table, *notes, "", chart])
