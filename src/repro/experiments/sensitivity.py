"""Dataset-sensitivity study (extension beyond the paper).

The paper evaluates on the LDBC social graph only. Thermal throttling's
value depends on the offloading intensity the *graph structure* induces:
power-law graphs keep huge frontiers (and the atomics flowing), while
road-like graphs crawl through tiny frontiers that never push the PIM
rate near the thermal threshold. This experiment runs a BFS and an SSSP
kernel on both families and compares naïve-offloading temperatures and
CoolPIM's engagement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import CoolPimSystem
from repro.experiments.common import RunScale, format_table, scaled_workload
from repro.graph import get_dataset

WORKLOADS = ["bfs-dwc", "sssp-dwc"]
POLICIES = ["non-offloading", "naive-offloading", "coolpim-sw"]


@dataclass
class SensitivityResult:
    #: [(dataset, workload)][policy] → (speedup, peak_temp, pim_rate)
    cells: Dict[tuple, Dict[str, tuple]]

    def naive_peak(self, dataset: str, workload: str) -> float:
        return self.cells[(dataset, workload)]["naive-offloading"][1]


def run(
    scale: Optional[RunScale] = None,
    datasets: tuple = ("ldbc", "road"),
) -> SensitivityResult:
    scale = scale or RunScale.full()
    system = CoolPimSystem()
    cells: Dict[tuple, Dict[str, tuple]] = {}
    for ds in datasets:
        graph = get_dataset(ds if scale.dataset == "ldbc" else f"{ds}-small")
        for wl in WORKLOADS:
            results = {
                p: system.run(scaled_workload(wl, scale), graph, p)
                for p in POLICIES
            }
            base = results["non-offloading"]
            cells[(ds, wl)] = {
                p: (
                    r.speedup_over(base),
                    r.peak_dram_temp_c,
                    r.avg_pim_rate_ops_ns,
                )
                for p, r in results.items()
            }
    return SensitivityResult(cells=cells)


def format_result(result: SensitivityResult) -> str:
    rows = []
    for (ds, wl), per_policy in result.cells.items():
        naive = per_policy["naive-offloading"]
        cool = per_policy["coolpim-sw"]
        rows.append(
            (ds, wl, naive[0], naive[1], naive[2], cool[0], cool[1])
        )
    table = format_table(
        ["Dataset", "Kernel", "Naive su", "Naive T(C)", "Naive op/ns",
         "CoolPIM su", "CoolPIM T(C)"],
        rows,
        title="Dataset sensitivity: social (ldbc) vs road-like structure",
    )
    return table + (
        "\n  Road-like graphs keep tiny frontiers: the memory system never "
        "saturates, the\n  PIM rate stays under the thermal threshold, and "
        "naive offloading is safe.\n  Note the SW variant's exposure: its "
        "Eq. (1) static initialization assumes\n  full utilization, so it "
        "over-throttles road graphs that were never going to\n  overheat — "
        "the HW variant's no-initialization design avoids this."
    )
