"""Energy-efficiency analysis (extension beyond the paper's figures).

PIM's promise is *energy* efficiency (Sec. I), and CoolPIM's thermal
argument has an energy corollary the paper only implies: operating in the
extended temperature phases costs extra energy (doubled refresh, leakage,
derated frequency stretching runtime), and strong cooling costs fan
power. This experiment reports total energy (package + fan) per
benchmark/policy, normalized to the non-offloading baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.common import RunScale, format_table
from repro.experiments.evaluation import EvaluationMatrix, run_matrix

POLICIES = ["naive-offloading", "coolpim-sw", "coolpim-hw", "ideal-thermal"]


@dataclass
class EnergyResult:
    matrix: EvaluationMatrix
    #: [workload][policy] → total energy normalized to baseline.
    energy_ratio: Dict[str, Dict[str, float]]
    #: [workload][policy] → average package+fan power (W).
    avg_power_w: Dict[str, Dict[str, float]]

    def naive_energy_overhead(self, workload: str) -> float:
        """Extra energy naïve offloading burns vs baseline (fraction)."""
        return self.energy_ratio[workload]["naive-offloading"] - 1.0


def run(scale: Optional[RunScale] = None) -> EnergyResult:
    matrix = run_matrix(scale)
    ratios: Dict[str, Dict[str, float]] = {}
    powers: Dict[str, Dict[str, float]] = {}
    for wl in matrix.workloads:
        base = matrix.baseline(wl)
        ratios[wl] = {
            p: matrix.results[wl][p].energy_ratio(base) for p in POLICIES
        }
        powers[wl] = {
            p: matrix.results[wl][p].avg_power_w
            for p in ["non-offloading"] + POLICIES
        }
    return EnergyResult(matrix=matrix, energy_ratio=ratios, avg_power_w=powers)


def format_result(result: EnergyResult) -> str:
    headers = ["Benchmark", "Naive", "CoolPIM(SW)", "CoolPIM(HW)", "Ideal"]
    rows = [
        [wl] + [result.energy_ratio[wl][p] for p in POLICIES]
        for wl in result.energy_ratio
    ]
    table = format_table(
        headers, rows,
        title="Energy (package + fan) normalized to the non-offloading "
              "baseline",
    )
    worst = max(result.energy_ratio, key=result.naive_energy_overhead)
    note = (
        f"  worst naive energy overhead: +{result.naive_energy_overhead(worst):.0%} "
        f"({worst}) — overheated offloading pays twice: derated runtime and "
        "hot-phase DRAM energy"
    )
    return "\n".join([table, note])
