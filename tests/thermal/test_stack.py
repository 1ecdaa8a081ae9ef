"""Layer stacks and materials."""

import pytest

from repro.hmc.config import HMC_1_1, HMC_2_0
from repro.thermal.materials import BOND, SILICON, LayerSpec, Material
from repro.thermal.stack import STACK_HMC_1_1, STACK_HMC_2_0, build_stack


class TestMaterials:
    def test_silicon_props(self):
        assert 100 < SILICON.conductivity_w_mk < 160
        assert SILICON.volumetric_heat_j_m3k > 1e6

    def test_validation(self):
        with pytest.raises(ValueError):
            Material("bad", conductivity_w_mk=0.0, volumetric_heat_j_m3k=1.0)

    def test_layer_resistance_formula(self):
        layer = LayerSpec("x", SILICON, thickness_m=100e-6)
        r = layer.vertical_resistance_k_w(area_m2=1e-4)
        assert r == pytest.approx(100e-6 / (SILICON.conductivity_w_mk * 1e-4))

    def test_layer_capacity_formula(self):
        layer = LayerSpec("x", BOND, thickness_m=20e-6)
        c = layer.heat_capacity_j_k(area_m2=1e-4)
        assert c == pytest.approx(BOND.volumetric_heat_j_m3k * 1e-4 * 20e-6)

    def test_layer_thickness_positive(self):
        with pytest.raises(ValueError):
            LayerSpec("x", SILICON, thickness_m=0.0)


class TestStack:
    def test_hmc20_layer_order(self):
        names = [l.name for l in STACK_HMC_2_0.layers]
        assert names[0] == "logic"
        assert names[-2:] == ["tim", "spreader"]
        assert names.count("dram0") == 1
        # logic + 8x(bond+dram) + tim + spreader
        assert len(names) == 1 + 16 + 2

    def test_hmc11_has_four_dram_dies(self):
        names = [layer.name for layer in STACK_HMC_1_1.layers]
        assert sum(name.startswith("dram") for name in names) == 4

    def test_powered_layers(self):
        powered = [layer.name for layer in STACK_HMC_2_0.layers if layer.powered]
        assert powered == ["logic"] + [f"dram{i}" for i in range(8)]

    def test_dram_above_logic(self):
        names = [layer.name for layer in build_stack(HMC_2_0).layers]
        logic = names.index("logic")
        assert all(i > logic for i, n in enumerate(names) if n.startswith("dram"))
