"""Fig. 2 — thermal-model validation against the HMC 1.1 measurements.

The paper validates its KitFox/3D-ICE environment by modelling the
HMC 1.1 system at the prototype's cooling/bandwidth configuration and
comparing three quantities per heat sink (low-end and high-end):

- *Surface (measured)* — the thermal-camera reading,
- *Die (estimated)* — measured surface + a typical surface-to-junction
  resistance (Sec. III-A: 5–10 °C at ~20 W),
- *Die (modeling)* — the thermal model's DRAM-die temperature.

We replicate the same three-way comparison: the "measured" column uses
the paper's numbers, the estimate applies the same resistance rule, and
the modelled die temperature comes from our RC network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.common import format_table
from repro.experiments.fig1_prototype import (
    BUSY_BANDWIDTH_GBS,
    PAPER_SURFACE_C,
    PROTOTYPE_HIGH_END,
    _prototype_model,
)
from repro.thermal.cooling import LOW_END_ACTIVE
from repro.thermal.power import TrafficPoint


@dataclass(frozen=True)
class ValidationPoint:
    cooling: str
    surface_measured_c: float
    die_estimated_c: float
    die_modeled_c: float

    @property
    def error_c(self) -> float:
        """Model-vs-estimate disagreement."""
        return self.die_modeled_c - self.die_estimated_c


def run() -> List[ValidationPoint]:
    points: List[ValidationPoint] = []
    for cooling in (LOW_END_ACTIVE, PROTOTYPE_HIGH_END):
        model = _prototype_model(cooling)
        traffic = TrafficPoint.streaming(BUSY_BANDWIDTH_GBS)
        measured = PAPER_SURFACE_C[(cooling.name, "busy")]
        total_power = model.power.package_total_w(traffic)
        estimated = model.junction_from_surface_c(measured, total_power)
        modeled = model.steady_peak_dram_c(traffic)
        points.append(
            ValidationPoint(
                cooling=cooling.name,
                surface_measured_c=measured,
                die_estimated_c=estimated,
                die_modeled_c=modeled,
            )
        )
    return points


def format_result(points: List[ValidationPoint]) -> str:
    rows = [
        (p.cooling, p.surface_measured_c, p.die_estimated_c, p.die_modeled_c,
         p.error_c)
        for p in points
    ]
    return format_table(
        ["Cooling", "Surface (measured, C)", "Die (estimated, C)",
         "Die (modeling, C)", "Error (C)"],
        rows,
        title="Fig. 2 - Thermal model validation",
    )
