"""Fig. 5 — thermal impact of PIM offloading.

Peak DRAM temperature vs PIM offloading rate with the off-chip links kept
fully utilized by the PIM + regular mix (commodity-server cooling). The
paper's anchor points: ≤1.3 op/ns keeps the stack under 85 °C; 6.5 op/ns
reaches the 105 °C limit (the maximum sustainable rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.experiments.common import format_table
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint

DEFAULT_RATES = tuple(np.linspace(0.0, 7.0, 15))

NORMAL_LIMIT_C = 85.0
SHUTDOWN_LIMIT_C = 105.0


@dataclass
class PimRateSweep:
    rates_ops_ns: Sequence[float]
    temps_c: List[float]
    #: Highest rate keeping the stack within the normal range (≤85 °C).
    normal_rate_limit: float
    #: Highest rate before exceeding the 105 °C operating ceiling.
    max_rate_limit: float


def _crossing(rates: Sequence[float], temps: Sequence[float], limit: float) -> float:
    """Interpolated rate at which ``temps`` crosses ``limit``."""
    for i in range(1, len(rates)):
        if temps[i] > limit >= temps[i - 1]:
            span = temps[i] - temps[i - 1]
            frac = (limit - temps[i - 1]) / span if span else 0.0
            return rates[i - 1] + frac * (rates[i] - rates[i - 1])
    return float(rates[-1])


def run(rates: Sequence[float] = DEFAULT_RATES) -> PimRateSweep:
    model = HmcThermalModel()
    temps = [
        model.steady_peak_dram_c(TrafficPoint.pim_saturated(r)) for r in rates
    ]
    return PimRateSweep(
        rates_ops_ns=list(rates),
        temps_c=temps,
        normal_rate_limit=_crossing(rates, temps, NORMAL_LIMIT_C),
        max_rate_limit=_crossing(rates, temps, SHUTDOWN_LIMIT_C),
    )


def phase_label(temp_c: float) -> str:
    if temp_c < 85.0:
        return "0C-85C"
    if temp_c < 95.0:
        return "85C-95C"
    if temp_c < 105.0:
        return "95C-105C"
    return "Too Hot"


def format_result(sweep: PimRateSweep) -> str:
    rows: List[Tuple[float, float, str]] = [
        (r, t, phase_label(t)) for r, t in zip(sweep.rates_ops_ns, sweep.temps_c)
    ]
    table = format_table(
        ["PIM rate (op/ns)", "Peak DRAM temp (C)", "Phase"],
        rows,
        title="Fig. 5 - Thermal impact of PIM offloading (commodity sink)",
    )
    notes = [
        f"  rate for <= {NORMAL_LIMIT_C:.0f} C: {sweep.normal_rate_limit:.2f} op/ns "
        "(paper: 1.3)",
        f"  max rate before {SHUTDOWN_LIMIT_C:.0f} C: {sweep.max_rate_limit:.2f} "
        "op/ns (paper: 6.5)",
    ]
    from repro.viz import line_chart

    chart = line_chart(
        {"peak DRAM temp": sweep.temps_c}, xs=list(sweep.rates_ops_ns),
        width=56, height=12, x_label="PIM rate (op/ns)", y_label="C",
    )
    return "\n".join([table, *notes, "", chart])
