"""Layer stack definitions for HMC packages.

HMC stacks the logic die at the bottom with DRAM dies above it, so memory
dies sit between the logic die's heat and the heat sink (Sec. I). The
stack here is ordered bottom → top:

    [logic die] [bond] [DRAM 0] [bond] ... [DRAM N-1] [TIM] (sink)

The heat sink itself is a lumped boundary (Table II resistance), attached
above the TIM through a copper spreader node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.hmc.config import HMC_1_1, HMC_2_0, HmcConfig
from repro.thermal.materials import BOND, COPPER, SILICON, TIM, LayerSpec

#: Die thicknesses (thinned stack dies).
_LOGIC_THICKNESS_M = 100e-6
_DRAM_THICKNESS_M = 50e-6
_BOND_THICKNESS_M = 20e-6
_TIM_THICKNESS_M = 75e-6
_SPREADER_THICKNESS_M = 1.0e-3


@dataclass(frozen=True)
class StackSpec:
    """Ordered layers (bottom → top) plus die footprint."""

    name: str
    layers: List[LayerSpec] = field(default_factory=list)
    die_area_mm2: float = 68.0

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def build_stack(config: HmcConfig) -> StackSpec:
    """Stack for a cube config: logic + ``num_dram_dies`` DRAM dies."""
    layers: List[LayerSpec] = [
        LayerSpec("logic", SILICON, _LOGIC_THICKNESS_M, powered=True)
    ]
    for i in range(config.num_dram_dies):
        layers.append(LayerSpec(f"bond{i}", BOND, _BOND_THICKNESS_M))
        layers.append(LayerSpec(f"dram{i}", SILICON, _DRAM_THICKNESS_M, powered=True))
    layers.append(LayerSpec("tim", TIM, _TIM_THICKNESS_M))
    layers.append(LayerSpec("spreader", COPPER, _SPREADER_THICKNESS_M))
    return StackSpec(name=config.name, layers=layers, die_area_mm2=config.die_area_mm2)


#: Prebuilt stacks for the two cube generations.
STACK_HMC_2_0 = build_stack(HMC_2_0)
STACK_HMC_1_1 = build_stack(HMC_1_1)
