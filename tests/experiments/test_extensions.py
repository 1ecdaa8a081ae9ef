"""Extension experiments and Fig. 8, at full scale.

The experiment results come from the session's full-scale runs (the
``paper`` fixture); only the cool-run formatting check of Fig. 8 runs its
own quick-scale experiment.
"""

import pytest

from repro.experiments import (
    cooling_sweep,
    energy,
    fig8_delays,
    hotspot,
    management,
    sensitivity,
)
from repro.experiments.common import RunScale
from repro.hmc.dram_timing import TemperaturePhase, TemperaturePhasePolicy


class TestConservativePolicy:
    def test_no_derating_below_kill_switch(self):
        policy = TemperaturePhasePolicy(conservative_shutdown=True)
        assert policy.phase(94.9) is TemperaturePhase.NORMAL
        assert policy.frequency_scale(policy.phase(90.0)) == 1.0

    def test_shutdown_at_95(self):
        policy = TemperaturePhasePolicy(conservative_shutdown=True)
        assert policy.phase(95.0) is TemperaturePhase.SHUTDOWN

    def test_default_policy_unaffected(self):
        policy = TemperaturePhasePolicy()
        assert policy.phase(95.0) is TemperaturePhase.CRITICAL


class TestEnergyAccounting:
    @pytest.fixture(scope="class")
    def results(self, paper):
        return paper["energy"].matrix.results["dc"]

    def test_energy_positive_and_consistent(self, results):
        for res in results.values():
            assert res.package_energy_j > 0
            assert res.total_energy_j >= res.package_energy_j
            assert res.avg_power_w > 0

    def test_fan_energy_scales_with_runtime(self, results):
        base = results["non-offloading"]
        fan_w = base.fan_energy_j / base.runtime_s
        assert fan_w == pytest.approx(3.56, abs=0.5)  # commodity sink fan

    def test_ideal_thermal_skips_fan(self, results):
        assert results["ideal-thermal"].fan_energy_j == 0.0

    def test_power_in_plausible_range(self, results):
        # Package + fan for a busy cube: tens of watts.
        for res in results.values():
            assert 5.0 < res.avg_power_w < 80.0

    def test_energy_ratio_self_is_one(self, results):
        base = results["non-offloading"]
        assert base.energy_ratio(base) == pytest.approx(1.0)


class TestManagementComparison:
    @pytest.fixture(scope="class")
    def result(self, paper):
        return paper["management"]

    def test_all_rows_present(self, result):
        assert "baseline (no offloading)" in result.rows
        assert "naive + conservative shutdown" in result.rows
        assert "CoolPIM (SW) + dynamic derating" in result.rows

    def test_baseline_speedup_is_one(self, result):
        assert result.rows["baseline (no offloading)"][3] == 1.0

    def test_formatting(self, result):
        out = management.format_result(result)
        assert "Shutdowns" in out


class TestEnergyExperiment:
    def test_runs_at_quick_scale(self, paper):
        result = paper["energy"]
        assert set(result.energy_ratio) == set(result.matrix.workloads)
        for ratios in result.energy_ratio.values():
            for v in ratios.values():
                assert v > 0

    def test_formatting(self, paper):
        out = energy.format_result(paper["energy"])
        assert "Energy" in out


class TestSensitivity:
    @pytest.fixture(scope="class")
    def result(self, paper):
        return paper["sensitivity"]

    def test_all_cells_present(self, result):
        assert len(result.cells) == 4

    def test_road_cooler_than_social_under_naive(self, result):
        for wl in ("bfs-dwc", "sssp-dwc"):
            assert result.naive_peak("road", wl) <= result.naive_peak("ldbc", wl) + 1.0

    def test_formatting(self, result):
        out = sensitivity.format_result(result)
        assert "Dataset sensitivity" in out

    def test_dataset_sensitivity(self, result):
        """Power-law frontiers saturate the memory system and overheat
        under naive offloading; road-network frontiers never do."""
        assert result.naive_peak("ldbc", "bfs-dwc") > 90.0
        assert result.naive_peak("road", "bfs-dwc") < 85.0


class TestHotspot:
    def test_weights_construction(self):
        from repro.experiments.hotspot import vault_weights_for_skew
        import numpy as np

        w = vault_weights_for_skew(32, 0.5)
        assert w.sum() == pytest.approx(1.0)
        assert w[0] > w[1]
        with pytest.raises(ValueError):
            vault_weights_for_skew(32, 1.0)

    def test_skew_monotonically_heats(self, paper):
        sweep = paper["hotspot"]
        assert sweep.peak_temps_c == sorted(sweep.peak_temps_c)
        assert sweep.interleaving_headroom_c > 5.0

    def test_uniform_matches_fig4_anchor(self, paper):
        sweep = paper["hotspot"]
        assert sweep.skews[0] == 0.0
        assert sweep.peak_temps_c[0] == pytest.approx(81.0, abs=0.5)

    def test_formatting(self, paper):
        out = hotspot.format_result(paper["hotspot"])
        assert "hotspot" in out.lower() or "skew" in out.lower()


class TestCoolingSweep:
    @pytest.fixture(scope="class")
    def result(self, paper):
        return paper["cooling-sweep"]

    def test_all_sinks_present(self, result):
        assert set(result.cells) == {"low-end", "commodity", "high-end"}

    def test_offload_fraction_grows_with_cooling(self, result):
        # Stronger sink → more thermal headroom → more offloading.
        assert (result.coolpim_fraction("high-end")
                >= result.coolpim_fraction("low-end") - 0.02)

    def test_formatting(self, result):
        out = cooling_sweep.format_result(result)
        assert "Cooling-budget sweep" in out

    def test_cooling_budget_sweep(self, result):
        """CoolPIM adapts its offloading intensity to the fitted heat sink
        with no reconfiguration."""
        # Naive offloading under a low-end sink hits thermal shutdown.
        naive_low = result.cells["low-end"]["naive-offloading"]
        assert naive_low[0] < 0.5
        # CoolPIM never does worse than ~baseline, under any sink.
        for sink in ("low-end", "commodity", "high-end"):
            assert result.cells[sink]["coolpim-sw"][0] > 0.95
        # And it offloads more as the cooling budget grows.
        assert (result.coolpim_fraction("high-end")
                > result.coolpim_fraction("low-end"))


class TestFig8:
    def test_constants_match_paper(self, paper):
        result = paper["fig8"]
        assert result.sw.throttle_s == pytest.approx(0.1e-3)
        assert result.hw.throttle_s == pytest.approx(0.1e-6)
        assert result.sw.thermal_s == result.hw.thermal_s == pytest.approx(1e-3)

    def test_formatting_handles_cool_runs(self):
        result = fig8_delays.run("kcore", scale=RunScale.quick())
        out = fig8_delays.format_result(result)
        assert "Tthrottle" in out

    def test_fig8_delays(self, paper):
        result = paper["fig8"]
        # The paper's table values.
        assert result.sw.throttle_s == pytest.approx(0.1e-3)
        assert result.hw.throttle_s == pytest.approx(0.1e-6)
        assert result.sw.thermal_s == pytest.approx(1e-3)
        # Both runs warn, and HW reacts faster than SW.
        sw_t, hw_t = result.measured_s["software"], result.measured_s["hardware"]
        assert sw_t is not None and hw_t is not None
        assert hw_t <= sw_t
