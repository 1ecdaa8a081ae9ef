"""Evaluation matrix plumbing: caching, subsets, aggregates."""

import pytest

from repro.experiments.common import RunScale
from repro.experiments.evaluation import clear_cache, run_matrix

SCALE = RunScale.quick()


class TestMatrix:
    def test_cache_returns_same_object(self):
        a = run_matrix(SCALE, workloads=["kcore"], policies=["non-offloading"])
        b = run_matrix(SCALE, workloads=["kcore"], policies=["non-offloading"])
        assert a is b

    def test_clear_cache(self):
        a = run_matrix(SCALE, workloads=["kcore"], policies=["non-offloading"])
        clear_cache()
        b = run_matrix(SCALE, workloads=["kcore"], policies=["non-offloading"])
        assert a is not b

    def test_subset_selection(self):
        m = run_matrix(
            SCALE,
            workloads=["dc", "kcore"],
            policies=["non-offloading", "ideal-thermal"],
        )
        assert m.workloads == ["dc", "kcore"]
        assert set(m.results["dc"]) == {"non-offloading", "ideal-thermal"}

    def test_speedup_and_geo_mean(self):
        m = run_matrix(
            SCALE,
            workloads=["dc", "kcore"],
            policies=["non-offloading", "ideal-thermal"],
        )
        assert m.speedup("dc", "non-offloading") == pytest.approx(1.0)
        geo = m.geo_mean_speedup("ideal-thermal")
        sus = [m.speedup(wl, "ideal-thermal") for wl in m.workloads]
        assert geo == pytest.approx((sus[0] * sus[1]) ** 0.5)
