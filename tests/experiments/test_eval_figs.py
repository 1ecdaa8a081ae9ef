"""Figs. 10–14 at full scale: the paper's evaluation claims.

Every test reads the session's full-scale results (the ``paper`` fixture),
so the ten-benchmark × five-policy matrix is simulated once. EXPERIMENTS.md
records the magnitudes.
"""

import pytest

from repro.experiments import fig10_speedup, fig14_time_series
from repro.workloads import list_workloads

HOT = ["dc", "bfs-dwc", "pagerank"]
COOL = ["kcore", "sssp-dtc"]


@pytest.fixture(scope="module")
def matrix(paper):
    return paper["fig10"].matrix


class TestMatrix:
    def test_all_cells_present(self, matrix):
        assert set(matrix.workloads) == set(list_workloads())
        for wl in matrix.workloads:
            assert len(matrix.results[wl]) == 5

    def test_baseline_never_offloads(self, matrix):
        for wl in matrix.workloads:
            assert matrix.baseline(wl).pim_ops == 0

    def test_ideal_dominates_everything(self, matrix):
        for wl in matrix.workloads:
            su_ideal = matrix.speedup(wl, "ideal-thermal")
            for policy in ("naive-offloading", "coolpim-sw", "coolpim-hw"):
                assert su_ideal >= matrix.speedup(wl, policy) - 1e-9

    def test_cool_benchmarks_unaffected_by_throttling(self, matrix):
        # kcore and sssp-dtc: naive == CoolPIM (Sec. V-B).
        for wl in COOL:
            naive = matrix.speedup(wl, "naive-offloading")
            for policy in ("coolpim-sw", "coolpim-hw"):
                assert matrix.speedup(wl, policy) == pytest.approx(
                    naive, rel=0.05
                )


class TestFig10:
    def test_speedups_and_geomeans(self, paper, matrix):
        result = paper["fig10"]
        for wl in matrix.workloads:
            assert result.speedups[wl]["ideal-thermal"] == pytest.approx(
                matrix.speedup(wl, "ideal-thermal")
            )
        assert result.geo_means["ideal-thermal"] > 1.0

    def test_formatting(self, paper):
        out = fig10_speedup.format_result(paper["fig10"])
        assert "geo-mean" in out and "CoolPIM(SW)" in out

    def test_fig10_speedups(self, paper):
        result = paper["fig10"]
        su = result.speedups

        # Ideal thermal dominates and shows a healthy average gain.
        assert result.geo_means["ideal-thermal"] > 1.25
        for wl, per in su.items():
            assert per["ideal-thermal"] >= max(
                per["naive-offloading"], per["coolpim-sw"], per["coolpim-hw"]
            ) - 1e-9

        # Naive offloading hurts the thermally-hottest kernels (paper: -18/-16%).
        assert su["bfs-dwc"]["naive-offloading"] < 1.0
        assert su["bfs-twc"]["naive-offloading"] < 1.0

        # CoolPIM recovers them (paper: up to 1.37x over naive).
        best_vs_naive = result.best_coolpim_vs_naive()
        assert best_vs_naive > 1.25

        # CoolPIM average in the paper's +20%-class range.
        assert max(result.geo_means["coolpim-sw"],
                   result.geo_means["coolpim-hw"]) > 1.15

        # kcore and sssp-dtc: no thermal issue, throttling changes nothing.
        for wl in ("kcore", "sssp-dtc"):
            assert su[wl]["coolpim-sw"] == pytest.approx(
                su[wl]["naive-offloading"], rel=0.05
            )


class TestFig11:
    def test_offloading_reduces_total_traffic(self, paper):
        result = paper["fig11"]
        for wl in HOT:
            assert result.traffic_ratio[wl]["naive-offloading"] < 1.0
            assert result.traffic_ratio[wl]["non-offloading"] == pytest.approx(1.0)

    def test_naive_saves_at_least_as_much_as_coolpim(self, paper):
        result = paper["fig11"]
        for wl in HOT:
            naive = result.traffic_ratio[wl]["naive-offloading"]
            sw = result.traffic_ratio[wl]["coolpim-sw"]
            assert naive <= sw + 0.02

    def test_fig11_bandwidth(self, paper):
        result = paper["fig11"]
        for wl, ratios in result.traffic_ratio.items():
            # Offloading never adds link traffic.
            assert ratios["naive-offloading"] <= 1.0 + 1e-9
            # CoolPIM's partial offload saves at most as much as naive.
            assert ratios["naive-offloading"] <= ratios["coolpim-sw"] + 0.02

        # The paper's counterintuitive headline: the config with the largest
        # bandwidth saving (naive, on bfs-dwc) is NOT the fastest one.
        m = result.matrix
        assert m.speedup("bfs-dwc", "naive-offloading") < m.speedup(
            "bfs-dwc", "coolpim-sw"
        )


class TestFig12:
    def test_naive_rates_exceed_coolpim_on_hot_benchmarks(self, paper):
        result = paper["fig12"]
        for wl in HOT:
            naive = result.rates[wl]["naive-offloading"]
            for p in ("coolpim-sw", "coolpim-hw"):
                assert result.rates[wl][p] <= naive + 1e-9

    def test_cool_benchmarks_below_threshold_natively(self, paper):
        result = paper["fig12"]
        for wl in COOL:
            assert result.rates[wl]["naive-offloading"] < 1.5

    def test_fig12_pim_rates(self, paper):
        result = paper["fig12"]
        rates = result.rates

        # Warp-centric BFS kernels offload hardest under naive (paper: ~4;
        # our rates average over the derated phases).
        hot = max(rates["bfs-dwc"]["naive-offloading"],
                  rates["bfs-twc"]["naive-offloading"])
        assert hot > 2.0

        # kcore / sssp-dtc sit below the thermal threshold natively.
        assert rates["kcore"]["naive-offloading"] < 1.5
        assert rates["sssp-dtc"]["naive-offloading"] < 1.5

        # CoolPIM keeps every benchmark near/below the 1.3 op/ns threshold.
        assert result.coolpim_within_threshold(slack=0.4)


class TestFig13:
    def test_coolpim_cooler_than_naive_on_hot_benchmarks(self, paper):
        result = paper["fig13"]
        for wl in HOT:
            naive = result.temps[wl]["naive-offloading"]
            for p in ("coolpim-sw", "coolpim-hw"):
                assert result.temps[wl][p] <= naive + 0.5

    def test_fig13_peak_temps(self, paper):
        result = paper["fig13"]
        temps = result.temps

        # Naive exceeds 90 C on the hot benchmarks, ~95-96 C at worst.
        assert result.hottest_naive() > 93.0
        hot_count = sum(
            1 for wl in temps if temps[wl]["naive-offloading"] > 90.0
        )
        assert hot_count >= 5  # "most benchmarks"

        # CoolPIM keeps the cube at/near the 85 C normal-range boundary.
        assert result.hottest_coolpim() < 92.0
        for wl in temps:
            sw = temps[wl]["coolpim-sw"]
            assert sw <= temps[wl]["naive-offloading"] + 0.5
            assert sw < 91.5


class TestFig14:
    def test_time_series_structure(self, paper):
        result = paper["fig14"]
        assert set(result.series) == {
            "naive-offloading", "coolpim-sw", "coolpim-hw"
        }
        for series in result.series.values():
            assert len(series) >= 1
            times = [t for t, _r, _T in series]
            assert times == sorted(times)

    def test_formatting(self, paper):
        out = fig14_time_series.format_result(paper["fig14"])
        assert "Time (ms)" in out

    def test_fig14_time_series(self, paper):
        result = paper["fig14"]
        naive = result.series["naive-offloading"]

        # Naive holds a high rate for the whole run.
        naive_rates = [r for _t, r, _T in naive]
        assert min(naive_rates[1:]) > 0.5

        # Both CoolPIM variants end at a lower rate than naive's.
        for policy in ("coolpim-sw", "coolpim-hw"):
            series = result.series[policy]
            assert series[-1][1] < naive_rates[-1] + 1e-9

        # The run heats to the threshold, and the warning lands within a
        # few ms of launch (Fig. 14: ~2.5 ms).
        warn = result.first_warning_ms["naive-offloading"]
        assert warn is not None
        assert warn < 10.0
