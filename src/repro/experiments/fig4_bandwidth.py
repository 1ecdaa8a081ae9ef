"""Fig. 4 — peak DRAM temperature vs data bandwidth × cooling solution.

Sweeps 0–320 GB/s for the four Table II heat sinks. The paper's
observations: temperature grows with bandwidth; with a commodity-server
sink the peak reaches 81 °C at 320 GB/s and 33 °C idle; passive and
low-end sinks blow through the 105 °C operating ceiling well before full
bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.common import format_table
from repro.hmc.dram_timing import TemperaturePhasePolicy
from repro.thermal.cooling import COOLING_SOLUTIONS
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint

DEFAULT_BANDWIDTHS = tuple(range(0, 321, 40))
OPERATING_CEILING_C = 105.0


@dataclass
class BandwidthSweep:
    bandwidths_gbs: Sequence[float]
    #: cooling name → peak DRAM temperature per bandwidth point.
    curves: Dict[str, List[float]]
    #: cooling name → lowest bandwidth exceeding 105 °C (None if never).
    ceiling_crossing_gbs: Dict[str, float | None]


def run(bandwidths: Sequence[float] = DEFAULT_BANDWIDTHS) -> BandwidthSweep:
    curves: Dict[str, List[float]] = {}
    crossings: Dict[str, float | None] = {}
    for name, cooling in COOLING_SOLUTIONS.items():
        model = HmcThermalModel(cooling=cooling)
        temps = [
            model.steady_peak_dram_c(TrafficPoint.streaming(bw)) for bw in bandwidths
        ]
        curves[name] = temps
        crossing = None
        for bw, t in zip(bandwidths, temps):
            if t > OPERATING_CEILING_C:
                crossing = bw
                break
        crossings[name] = crossing
    return BandwidthSweep(
        bandwidths_gbs=list(bandwidths), curves=curves,
        ceiling_crossing_gbs=crossings,
    )


def format_result(sweep: BandwidthSweep) -> str:
    headers = ["BW (GB/s)"] + list(sweep.curves)
    rows = []
    for i, bw in enumerate(sweep.bandwidths_gbs):
        rows.append([bw] + [sweep.curves[c][i] for c in sweep.curves])
    table = format_table(
        headers, rows,
        title="Fig. 4 - Peak DRAM temperature (C) vs data bandwidth and cooling",
    )
    notes = [
        f"  {name}: exceeds {OPERATING_CEILING_C:.0f} C at {bw} GB/s"
        for name, bw in sweep.ceiling_crossing_gbs.items()
        if bw is not None
    ]
    from repro.viz import line_chart

    chart = line_chart(
        sweep.curves, xs=list(sweep.bandwidths_gbs), width=56, height=12,
        x_label="data bandwidth (GB/s)", y_label="peak DRAM C",
    )
    return "\n".join([table, *notes, "", chart])
