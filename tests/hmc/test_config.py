"""HMC configurations: Table IV values and derived quantities."""

import pytest

from repro.hmc.config import DramTiming, HMC_1_1, HMC_2_0, HmcConfig


class TestHmc20:
    """Table IV row checks."""

    def test_capacity(self):
        assert HMC_2_0.capacity_gb == 8
        assert HMC_2_0.capacity_bytes == 8 << 30

    def test_geometry(self):
        assert HMC_2_0.num_vaults == 32
        assert HMC_2_0.total_banks == 512
        assert HMC_2_0.num_dram_dies == 8

    def test_links(self):
        assert HMC_2_0.num_links == 4
        assert HMC_2_0.link_bandwidth_gbs == 120.0
        assert HMC_2_0.num_links * HMC_2_0.link_data_bandwidth_gbs == 320.0
        assert HMC_2_0.peak_link_bandwidth_gbs == 480.0

    def test_supports_pim(self):
        assert HMC_2_0.supports_pim
        assert not HMC_1_1.supports_pim

    def test_vault_area(self):
        assert HMC_2_0.fu_area_mm2 == 0.003


class TestHmc11:
    def test_prototype_parameters(self):
        assert HMC_1_1.capacity_gb == 4
        assert HMC_1_1.num_vaults == 16
        assert HMC_1_1.num_links == 2
        assert HMC_1_1.num_links * HMC_1_1.link_data_bandwidth_gbs == 60.0


class TestDramTiming:
    def test_table_iv_values(self):
        t = DramTiming()
        assert t.tCL == t.tRCD == t.tRP == 13.75
        assert t.tRAS == 27.5

    def test_derived_latencies(self):
        t = DramTiming()
        assert t.read_hit_latency() == 13.75
        assert t.read_closed_latency() == pytest.approx(27.5)
        assert t.read_miss_latency() == pytest.approx(41.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            DramTiming(tCL=0.0)


class TestValidation:
    def test_data_bw_cannot_exceed_raw(self):
        with pytest.raises(ValueError):
            HmcConfig(
                name="bad", capacity_gb=1, num_vaults=1, num_dram_dies=1,
                banks_per_vault=1, num_links=1,
                link_bandwidth_gbs=10.0, link_data_bandwidth_gbs=20.0,
            )

    def test_positive_geometry(self):
        with pytest.raises(ValueError):
            HmcConfig(
                name="bad", capacity_gb=1, num_vaults=0, num_dram_dies=1,
                banks_per_vault=1, num_links=1,
                link_bandwidth_gbs=10.0, link_data_bandwidth_gbs=5.0,
            )
