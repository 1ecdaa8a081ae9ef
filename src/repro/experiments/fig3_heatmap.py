"""Fig. 3 — heat map at full bandwidth with a commodity-server sink.

The paper renders a 3D heat map of all layers plus a 2D map of the logic
layer at 320 GB/s, observing (1) the lowest DRAM die and the logic layer
run hottest, and (2) hot spots at the centre of each vault (vault
controller + FU power density). ``run()`` returns the per-layer fields;
``format_result`` renders an ASCII map and the per-layer peaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.experiments.common import format_table
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint

FULL_BANDWIDTH_GBS = 320.0


@dataclass
class HeatmapResult:
    layer_maps: Dict[str, np.ndarray]        # °C fields (ny, nx)
    layer_peaks: List[tuple]                 # (layer, peak, mean) bottom→top
    hotspot_is_vault_center: bool
    model: HmcThermalModel


def run(sub: int = 4) -> HeatmapResult:
    """Solve the steady full-bandwidth operating point on a finer grid."""
    model = HmcThermalModel(sub=sub)
    model.steady_state(TrafficPoint.streaming(FULL_BANDWIDTH_GBS))
    maps = model.all_heatmaps()

    ordered = [l.name for l in model.stack.layers]
    peaks = [
        (name, float(maps[name].max()), float(maps[name].mean()))
        for name in ordered
    ]

    # Hot-spot check: within vault 0, the hottest logic cell should be one
    # of the centre cells (controller + FU placement).
    logic = maps["logic"]
    cells = model.floorplan.vault_cells(0)
    centers = set(model.floorplan.vault_center_cells(0))
    hottest = max(cells, key=lambda c: logic[c[1], c[0]])
    return HeatmapResult(
        layer_maps=maps,
        layer_peaks=peaks,
        hotspot_is_vault_center=hottest in centers,
        model=model,
    )


def ascii_heatmap(grid: np.ndarray, levels: str = " .:-=+*#%@") -> str:
    """Render a temperature field as ASCII art (hotter → denser glyph)."""
    lo, hi = float(grid.min()), float(grid.max())
    span = (hi - lo) or 1.0
    out_lines = []
    for row in grid:
        idx = ((row - lo) / span * (len(levels) - 1)).astype(int)
        out_lines.append("".join(levels[i] for i in idx))
    out_lines.append(f"[{lo:.1f} C .. {hi:.1f} C]")
    return "\n".join(out_lines)


def format_result(result: HeatmapResult) -> str:
    parts = [
        format_table(
            ["Layer (bottom→top)", "Peak (C)", "Mean (C)"],
            result.layer_peaks,
            title="Fig. 3 - Layer temperatures at 320 GB/s, commodity sink",
        ),
        "",
        "Logic-layer heat map (hot spots at vault centres):",
        ascii_heatmap(result.layer_maps["logic"]),
        "",
        f"Hottest logic cell at a vault centre: {result.hotspot_is_vault_center}",
    ]
    return "\n".join(parts)
