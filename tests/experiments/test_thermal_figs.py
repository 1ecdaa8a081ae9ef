"""Figs. 1–5: thermal experiments reproduce the paper's shapes.

The results are the runner's own (the session's ``paper`` fixture).
"""

import pytest

from repro.experiments import fig1_prototype, fig3_heatmap, fig5_pim_rate


class TestFig1:
    @pytest.fixture(scope="class")
    def points(self, paper):
        return paper["fig1"]

    def test_passive_busy_shuts_down(self, points):
        p = next(x for x in points if x.cooling == "passive" and x.state == "busy")
        assert p.shutdown

    def test_active_sinks_do_not_shut_down(self, points):
        for p in points:
            if p.cooling != "passive":
                assert not p.shutdown

    def test_busy_hotter_than_idle(self, points):
        by = {(p.cooling, p.state): p.surface_c for p in points}
        for cooling in ("high-end", "low-end", "passive"):
            assert by[(cooling, "busy")] > by[(cooling, "idle")]

    def test_surface_within_7c_of_measurement(self, points):
        for p in points:
            assert abs(p.surface_c - p.paper_surface_c) < 7.0, p

    def test_formatting(self, points):
        out = fig1_prototype.format_result(points)
        assert "SHUTDOWN" in out


class TestFig2:
    def test_model_error_single_digit(self, paper):
        points = paper["fig2"]
        assert len(points) == 2
        for p in points:
            assert abs(p.error_c) < 10.0  # "reasonable error"

    def test_die_hotter_than_surface(self, paper):
        for p in paper["fig2"]:
            assert p.die_modeled_c > 0
            assert p.die_estimated_c > p.surface_measured_c


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, paper):
        return paper["fig3"]

    def test_logic_layer_hottest(self, result):
        peaks = {name: peak for name, peak, _mean in result.layer_peaks}
        assert peaks["logic"] == max(peaks.values())

    def test_dram_gradient_bottom_to_top(self, result):
        peaks = {name: peak for name, peak, _mean in result.layer_peaks}
        assert peaks["dram0"] > peaks["dram7"]

    def test_hotspot_at_vault_center(self, result):
        assert result.hotspot_is_vault_center

    def test_ascii_rendering(self, result):
        art = fig3_heatmap.ascii_heatmap(result.layer_maps["logic"])
        assert "C" in art


class TestFig4:
    @pytest.fixture(scope="class")
    def sweep(self, paper):
        return paper["fig4"]

    def test_commodity_anchors(self, sweep):
        curve = sweep.curves["commodity"]
        assert curve[0] == pytest.approx(33.0, abs=0.5)    # idle
        assert curve[-1] == pytest.approx(81.0, abs=0.5)   # 320 GB/s

    def test_curves_monotone(self, sweep):
        for curve in sweep.curves.values():
            assert curve == sorted(curve)

    def test_passive_and_lowend_cross_ceiling(self, sweep):
        assert sweep.ceiling_crossing_gbs["passive"] is not None
        assert sweep.ceiling_crossing_gbs["low-end"] is not None
        assert sweep.ceiling_crossing_gbs["commodity"] is None
        assert sweep.ceiling_crossing_gbs["high-end"] is None
        # Weak sinks blow through the 105 C operating ceiling early.
        assert sweep.ceiling_crossing_gbs["passive"] <= 240
        assert sweep.ceiling_crossing_gbs["low-end"] <= 320


class TestFig5:
    @pytest.fixture(scope="class")
    def sweep(self, paper):
        return paper["fig5"]

    def test_max_rate_is_65(self, sweep):
        assert sweep.max_rate_limit == pytest.approx(6.5, abs=0.15)

    def test_85c_crossing_near_threshold(self, sweep):
        # Paper quotes 1.3 op/ns; our exactly-linear curve crosses at ~1.1
        # (see DESIGN.md fidelity deltas).
        assert 0.9 < sweep.normal_rate_limit < 1.5

    def test_positive_correlation(self, sweep):
        assert sweep.temps_c == sorted(sweep.temps_c)

    def test_phase_labels(self):
        assert fig5_pim_rate.phase_label(70) == "0C-85C"
        assert fig5_pim_rate.phase_label(90) == "85C-95C"
        assert fig5_pim_rate.phase_label(100) == "95C-105C"
        assert fig5_pim_rate.phase_label(110) == "Too Hot"
