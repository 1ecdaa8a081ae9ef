"""Fig. 1 — thermal evaluation of a real HMC 1.1 prototype.

The paper photographs an AC-510 module (Kintex FPGA + 4 GB HMC 1.1,
60 GB/s) with a thermal camera under three heat sinks, at idle and busy,
and observes a shutdown with the passive sink. Paper surface readings:

=============  =======  =======
Heat sink      Idle     Busy
=============  =======  =======
High-end       40.5 °C  47.3 °C
Low-end        45.3 °C  60.5 °C
Passive        71.1 °C  85.4 °C (→ shutdown)
=============  =======  =======

We reproduce the experiment with the calibrated thermal model of the
HMC 1.1 package. The prototype's HMC draws ~11.5 W at idle (the SerDes
links never idle — consistent with the independent characterization the
paper cites [12]), and the module shares its heat sink with the FPGA, so
a fraction of FPGA power crosses into the HMC's sink; both effects are
part of the experiment configuration below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.common import format_table
from repro.hmc.config import HMC_1_1
from repro.thermal.cooling import (
    COOLING_SOLUTIONS,
    CoolingSolution,
    HIGH_END_ACTIVE,
    LOW_END_ACTIVE,
    PASSIVE,
)
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import PowerModel, TrafficPoint

#: HMC 1.1 prototype static power split (W) — SerDes-dominated idle draw.
PROTOTYPE_STATIC_LOGIC_W = 9.0
PROTOTYPE_STATIC_DRAM_W = 2.5

#: Share of the ~20 W FPGA's heat crossing through the shared heat sink,
#: expressed as equivalent extra logic power.
FPGA_COUPLING_W = 3.0

#: Prototype busy point: both half-width links saturated.
BUSY_BANDWIDTH_GBS = 60.0

#: The AC-510's heat sinks are small module parts, not the server-class
#: sinks of Table II: its "high-end active" option is a compact sink with
#: a strong fan (~1 °C/W), far from the 2×-wheel 0.2 °C/W plate-fin sink
#: modelled for HMC 2.0. Passive and low-end match Table II.
PROTOTYPE_HIGH_END = CoolingSolution("high-end", 1.0, 380.0)
PROTOTYPE_SINKS = [PROTOTYPE_HIGH_END, LOW_END_ACTIVE, PASSIVE]

#: Surface temperature at which the prototype shuts down (die ≈ 95 °C).
SHUTDOWN_SURFACE_C = 85.0

#: Paper's measured surface temperatures (°C) for comparison columns.
PAPER_SURFACE_C = {
    ("high-end", "idle"): 40.5,
    ("high-end", "busy"): 47.3,
    ("low-end", "idle"): 45.3,
    ("low-end", "busy"): 60.5,
    ("passive", "idle"): 71.1,
    ("passive", "busy"): 85.4,
}


@dataclass(frozen=True)
class PrototypePoint:
    cooling: str
    state: str            # "idle" | "busy"
    surface_c: float
    die_c: float
    paper_surface_c: float
    shutdown: bool


def _prototype_model(cooling: CoolingSolution) -> HmcThermalModel:
    power = PowerModel(
        HMC_1_1,
        static_logic_w=PROTOTYPE_STATIC_LOGIC_W + FPGA_COUPLING_W,
        static_dram_total_w=PROTOTYPE_STATIC_DRAM_W,
    )
    return HmcThermalModel(config=HMC_1_1, cooling=cooling, power_model=power)


def run(coolings: List[CoolingSolution] | None = None) -> List[PrototypePoint]:
    """Idle/busy surface and die temperatures under each heat sink."""
    coolings = coolings if coolings is not None else PROTOTYPE_SINKS
    points: List[PrototypePoint] = []
    for cooling in coolings:
        model = _prototype_model(cooling)
        for state, traffic in (
            ("idle", TrafficPoint.idle()),
            ("busy", TrafficPoint.streaming(BUSY_BANDWIDTH_GBS)),
        ):
            surface = model.steady_surface_c(traffic)
            die = model.steady_peak_dram_c(traffic)
            points.append(
                PrototypePoint(
                    cooling=cooling.name,
                    state=state,
                    surface_c=surface,
                    die_c=die,
                    paper_surface_c=PAPER_SURFACE_C.get((cooling.name, state), float("nan")),
                    shutdown=surface >= SHUTDOWN_SURFACE_C,
                )
            )
    return points


def format_result(points: List[PrototypePoint]) -> str:
    rows = [
        (
            p.cooling,
            p.state,
            p.surface_c,
            p.paper_surface_c,
            p.die_c,
            "SHUTDOWN" if p.shutdown else "",
        )
        for p in points
    ]
    return format_table(
        ["Cooling", "State", "Surface (model, C)", "Surface (paper, C)",
         "Die (model, C)", "Note"],
        rows,
        title="Fig. 1 - HMC 1.1 prototype thermal evaluation",
    )
