"""Fig. 14 — PIM rate over time under software and hardware control.

Replays ``bfs-ta`` (chosen by the paper for its long runtime and larger
SW/HW delay difference) under naïve offloading, CoolPIM (SW), and
CoolPIM (HW), sampling the PIM offloading rate at millisecond granularity.
The paper's observations: naïve holds a high rate throughout; both
CoolPIM variants pull the rate into range shortly after the thermal
warning; the software path lags the hardware path by under a millisecond —
trivial against the thermal response time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import CoolPimSystem
from repro.experiments.common import (
    RunScale,
    format_table,
    run_with_first_warning,
    scaled_workload,
)
from repro.graph import get_dataset

POLICIES = ["naive-offloading", "coolpim-sw", "coolpim-hw"]
SAMPLE_MS = 1.0


@dataclass
class TimeSeriesResult:
    #: policy → list of (time_ms, pim_rate_ops_ns, temp_c).
    series: Dict[str, List[Tuple[float, float, float]]]
    #: policy → time (ms) of the first thermal warning (None if never).
    first_warning_ms: Dict[str, Optional[float]]


def _resample(
    timeline: List[Tuple[float, float, float, float]], sample_ms: float
) -> List[Tuple[float, float, float]]:
    """Average the simulator timeline into fixed millisecond bins."""
    if not timeline:
        return []
    t = np.array([p[0] for p in timeline]) * 1e3
    temp = np.array([p[1] for p in timeline])
    rate = np.array([p[2] for p in timeline])
    out = []
    edge = 0.0
    while edge < t[-1]:
        mask = (t >= edge) & (t < edge + sample_ms)
        if mask.any():
            out.append(
                (edge + sample_ms / 2, float(rate[mask].mean()),
                 float(temp[mask].mean()))
            )
        edge += sample_ms
    return out


def run(
    workload: str = "bfs-ta",
    scale: Optional[RunScale] = None,
    sample_ms: float = SAMPLE_MS,
) -> TimeSeriesResult:
    scale = scale or RunScale.full()
    graph = get_dataset(scale.dataset)
    system = CoolPimSystem()
    series: Dict[str, List[Tuple[float, float, float]]] = {}
    first_warning: Dict[str, Optional[float]] = {}
    for policy in POLICIES:
        result, warn_s = run_with_first_warning(
            system, scaled_workload(workload, scale), graph, policy
        )
        series[policy] = _resample(result.timeline, sample_ms)
        first_warning[policy] = None if warn_s is None else warn_s * 1e3
    return TimeSeriesResult(series=series, first_warning_ms=first_warning)


def format_result(result: TimeSeriesResult) -> str:
    # Align on the shortest series for a compact comparison table.
    n = min(len(s) for s in result.series.values())
    rows = []
    for i in range(n):
        t = result.series[POLICIES[0]][i][0]
        rows.append(
            [f"{t:.1f}"] + [f"{result.series[p][i][1]:.2f}" for p in POLICIES]
        )
    table = format_table(
        ["Time (ms)", "Naive", "CoolPIM(SW)", "CoolPIM(HW)"],
        rows,
        title="Fig. 14 - PIM rate (op/ns) over time, bfs-ta",
    )
    notes = [
        f"  first thermal warning ({p}): "
        + (f"{w:.1f} ms" if w is not None else "never")
        for p, w in result.first_warning_ms.items()
    ]
    from repro.viz import sparklines

    trends = sparklines({
        p: [r for _t, r, _T in result.series[p]] for p in POLICIES
    })
    sparks = [f"  {p:18s} {trends[p]}" for p in POLICIES]
    return "\n".join([table, *notes, "  PIM-rate trend:", *sparks])
