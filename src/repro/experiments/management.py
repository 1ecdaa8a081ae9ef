"""Overheat-management comparison (Sec. III-C's performance trade-off).

The paper discusses two alternatives to source throttling when the HMC
overheats:

1. **Conservative shutdown** (the HMC 1.1 prototype): run at full speed
   until the die hits ~95 °C, then stop completely — contents lost,
   recovery takes tens of seconds, "much longer than the processing time
   of typical GPU kernels".
2. **Dynamic DRAM management**: derate frequency / double refresh per
   temperature phase — "a non-trivial performance degradation because of
   slowing down not only PIM instructions but regular memory requests".

CoolPIM is motivated as the balance between them. This experiment runs a
thermally-intense workload under naïve offloading with each management
mode, plus CoolPIM under dynamic management, and reports the runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import CoolPimSystem
from repro.experiments.common import RunScale, format_table, scaled_workload
from repro.graph import get_dataset
from repro.hmc.dram_timing import TemperaturePhasePolicy


@dataclass
class ManagementResult:
    #: label → (runtime_s, peak_temp_c, shutdowns, speedup_vs_baseline)
    rows: Dict[str, tuple]


def run(
    workload: str = "bfs-dwc", scale: Optional[RunScale] = None
) -> ManagementResult:
    scale = scale or RunScale.full()
    graph = get_dataset(scale.dataset)

    dynamic = CoolPimSystem()
    conservative = CoolPimSystem(
        phase_policy=TemperaturePhasePolicy(conservative_shutdown=True)
    )

    rows: Dict[str, tuple] = {}

    base = dynamic.run(scaled_workload(workload, scale), graph,
                       "non-offloading")
    rows["baseline (no offloading)"] = (
        base.runtime_s, base.peak_dram_temp_c, base.shutdowns, 1.0
    )

    for label, system, policy in (
        ("naive + conservative shutdown", conservative, "naive-offloading"),
        ("naive + dynamic derating", dynamic, "naive-offloading"),
        ("CoolPIM (SW) + dynamic derating", dynamic, "coolpim-sw"),
        ("CoolPIM (HW) + dynamic derating", dynamic, "coolpim-hw"),
    ):
        res = system.run(scaled_workload(workload, scale), graph, policy)
        rows[label] = (
            res.runtime_s,
            res.peak_dram_temp_c,
            res.shutdowns,
            base.runtime_s / res.runtime_s,
        )
    return ManagementResult(rows=rows)


def format_result(result: ManagementResult, workload: str = "bfs-dwc") -> str:
    table_rows = [
        (label, t * 1e3, temp, shutdowns, su)
        for label, (t, temp, shutdowns, su) in result.rows.items()
    ]
    return format_table(
        ["Management", "Runtime (ms)", "Peak T (C)", "Shutdowns", "Speedup"],
        table_rows,
        title=f"Overheat-management comparison on {workload} "
              "(naive offloading unless throttled)",
    )
