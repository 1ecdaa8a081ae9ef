"""Power model: energy constants, scalar powers, floorplan maps."""

import numpy as np
import pytest

from repro.hmc.config import HMC_2_0
from repro.thermal.floorplan import Floorplan
from repro.thermal.power import (
    DRAM_ENERGY_PER_BIT,
    FU_WIDTH_BITS,
    LOGIC_ENERGY_PER_BIT,
    PowerModel,
    TrafficPoint,
)


@pytest.fixture
def pm():
    return PowerModel(HMC_2_0)


class TestConstants:
    def test_paper_energy_numbers(self):
        assert DRAM_ENERGY_PER_BIT == pytest.approx(3.7e-12)
        assert LOGIC_ENERGY_PER_BIT == pytest.approx(6.78e-12)
        assert FU_WIDTH_BITS == 128


class TestTrafficPoint:
    def test_streaming_equal_internal(self):
        t = TrafficPoint.streaming(100.0)
        assert t.internal_dram_gbs == 100.0 and t.pim_rate_ops_ns == 0.0

    def test_pim_saturated_line(self):
        t0 = TrafficPoint.pim_saturated(0.0)
        assert t0.external_gbs == pytest.approx(320.0)
        t = TrafficPoint.pim_saturated(3.0)
        assert t.external_gbs == pytest.approx(320.0 - 32.0)  # 10.67*3
        assert t.internal_dram_gbs == pytest.approx(t.external_gbs)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficPoint(external_gbs=-1.0)
        with pytest.raises(ValueError):
            TrafficPoint.pim_saturated(-0.5)


class TestScalarPowers:
    def test_power_equals_energy_times_bandwidth(self, pm):
        # Sec. V-A: power = energy/bit x bandwidth.
        t = TrafficPoint.streaming(320.0)
        assert pm.dram_dynamic_w(t.internal_dram_gbs) == pytest.approx(
            3.7e-12 * 320e9 * 8
        )
        assert pm.logic_dynamic_w(t.external_gbs) == pytest.approx(6.78e-12 * 320e9 * 8)

    def test_fu_power_formula(self, pm):
        # Power(FU) = E x FUwidth x PIMrate (Sec. III-C).
        t = TrafficPoint(pim_rate_ops_ns=2.0)
        assert pm.fu_power_w(t.pim_rate_ops_ns) == pytest.approx(
            pm.fu_energy_per_bit * 128 * 2e9
        )

    def test_idle_power_is_static_only(self, pm):
        t = TrafficPoint.idle()
        assert pm.package_total_w(t) == pytest.approx(
            pm.static_logic_w + pm.static_dram_total_w
        )

    def test_full_bandwidth_package_power_plausible(self, pm):
        # Sec. III-B: the high-end fan's 13 W is "almost half" a fully
        # utilized cube -> package should be in the 25-32 W range.
        total = pm.package_total_w(TrafficPoint.streaming(320.0))
        assert 25.0 < total < 34.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(HMC_2_0, dram_energy_per_bit=-1.0)


class TestMaps:
    def test_maps_conserve_total_power(self, pm):
        fp = Floorplan.for_config(HMC_2_0)
        t = TrafficPoint(external_gbs=200.0, internal_dram_gbs=248.0,
                         pim_rate_ops_ns=1.5)
        maps = pm.layer_power_maps(fp, t)
        total = sum(float(g.sum()) for g in maps.values())
        assert total == pytest.approx(pm.package_total_w(t))

    def test_one_map_per_powered_layer(self, pm):
        fp = Floorplan.for_config(HMC_2_0)
        maps = pm.layer_power_maps(fp, TrafficPoint.idle())
        assert set(maps) == {"logic"} | {f"dram{i}" for i in range(8)}

    def test_dram_power_split_evenly_across_dies(self, pm):
        fp = Floorplan.for_config(HMC_2_0)
        maps = pm.layer_power_maps(fp, TrafficPoint.streaming(100.0))
        die_sums = [maps[f"dram{i}"].sum() for i in range(8)]
        assert np.allclose(die_sums, die_sums[0])

    def test_vault_weights_skew_power(self, pm):
        fp = Floorplan.for_config(HMC_2_0)
        weights = np.zeros(32)
        weights[0] = 1.0
        maps = pm.layer_power_maps(fp, TrafficPoint.streaming(100.0), weights)
        dram0 = maps["dram0"]
        ix, iy = fp.vault_cells(0)[0]
        far_ix, far_iy = fp.vault_cells(31)[0]
        assert dram0[iy, ix] > dram0[far_iy, far_ix]

    def test_bad_weights_rejected(self, pm):
        fp = Floorplan.for_config(HMC_2_0)
        with pytest.raises(ValueError):
            pm.layer_power_maps(fp, TrafficPoint.idle(), np.ones(32))  # sums to 32
