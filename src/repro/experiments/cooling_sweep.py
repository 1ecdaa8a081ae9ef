"""Cooling-budget sweep (extension): does CoolPIM adapt to the sink?

The paper evaluates one cooling point (commodity-server). CoolPIM's
feedback loop makes no assumption about the sink — the 85 °C warning is
the only input — so it should automatically offload *less* under a
weaker sink and *more* under a stronger one, always beating naïve
offloading once the sink is weak enough to matter. This experiment runs
one thermally-intense benchmark across Table II's active sinks.

(The passive sink is excluded: it cannot even sustain the baseline's
bandwidth — Fig. 4 — so every policy just shuts down.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import CoolPimSystem
from repro.experiments.common import RunScale, format_table, scaled_workload
from repro.graph import get_dataset
from repro.thermal.cooling import COOLING_SOLUTIONS

SINKS = ["low-end", "commodity", "high-end"]
POLICIES = ["non-offloading", "naive-offloading", "coolpim-sw"]


@dataclass
class CoolingSweepResult:
    #: [sink][policy] → (speedup_vs_that_sink's_baseline, peak_T, frac)
    cells: Dict[str, Dict[str, tuple]]

    def coolpim_fraction(self, sink: str) -> float:
        return self.cells[sink]["coolpim-sw"][2]


def run(
    workload: str = "bfs-twc", scale: Optional[RunScale] = None
) -> CoolingSweepResult:
    scale = scale or RunScale.full()
    graph = get_dataset(scale.dataset)
    cells: Dict[str, Dict[str, tuple]] = {}
    for sink in SINKS:
        system = CoolPimSystem(cooling=COOLING_SOLUTIONS[sink])
        results = {
            p: system.run(scaled_workload(workload, scale), graph, p)
            for p in POLICIES
        }
        base = results["non-offloading"]
        cells[sink] = {
            p: (
                r.speedup_over(base),
                r.peak_dram_temp_c,
                r.offload_fraction,
            )
            for p, r in results.items()
        }
    return CoolingSweepResult(cells=cells)


def format_result(result: CoolingSweepResult, workload: str = "bfs-twc") -> str:
    rows = []
    for sink, per_policy in result.cells.items():
        naive = per_policy["naive-offloading"]
        cool = per_policy["coolpim-sw"]
        rows.append(
            (sink, naive[0], naive[1], cool[0], cool[1], cool[2])
        )
    table = format_table(
        ["Sink", "Naive su", "Naive T(C)", "CoolPIM su", "CoolPIM T(C)",
         "CoolPIM offload"],
        rows,
        title=f"Cooling-budget sweep on {workload}",
    )
    return table + (
        "\n  The feedback loop adapts the offloading intensity to whatever "
        "sink is fitted\n  — no reconfiguration, no re-calibration."
    )
