"""Per-run statistics: counters, time-weighted stats, histograms."""

import pytest

from repro.sim.stats import (
    Counter,
    Histogram,
    StatRegistry,
    TimeWeightedStat,
    linear_bounds,
)


class TestCounter:
    def test_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4.0)
        assert c.value == 5.0

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0.0


class TestTimeWeighted:
    def test_weights_levels_by_duration(self):
        tw = TimeWeightedStat(initial=10.0, start_time=0.0)
        tw.update(20.0, now=1.0)   # 10 held for 1s
        tw.update(0.0, now=4.0)    # 20 held for 3s
        # mean over [0,4] = (10*1 + 20*3)/4 = 17.5
        assert tw.mean() == pytest.approx(17.5)

    def test_mean_extends_to_query_time(self):
        tw = TimeWeightedStat(initial=2.0)
        tw.update(4.0, now=2.0)
        assert tw.mean(now=4.0) == pytest.approx((2 * 2 + 4 * 2) / 4)

    def test_rejects_time_travel(self):
        tw = TimeWeightedStat()
        tw.update(1.0, now=5.0)
        with pytest.raises(ValueError):
            tw.update(2.0, now=4.0)
        with pytest.raises(ValueError):
            tw.mean(now=1.0)

    def test_tracks_extremes(self):
        tw = TimeWeightedStat(initial=5.0)
        tw.update(9.0, now=1.0)
        tw.update(-1.0, now=2.0)
        assert tw.min == -1.0 and tw.max == 9.0

    def test_elapsed_accumulates_held_time(self):
        tw = TimeWeightedStat(initial=1.0, start_time=0.0)
        tw.update(2.0, now=3.0)
        tw.update(0.0, now=5.0)
        assert tw.elapsed == pytest.approx(5.0)

    def test_reset_restarts_the_clock(self):
        # A registry can outlive one simulation run; without reset the next
        # run's t=0 updates would look like time travel.
        tw = TimeWeightedStat(initial=0.0)
        tw.update(4.0, now=10.0)
        tw.reset()
        tw.update(2.0, now=1.0)  # would raise before reset
        assert tw.mean(now=2.0) == pytest.approx(1.0)
        assert tw.min == 0.0 and tw.max == 2.0

    def test_reset_with_new_initial(self):
        tw = TimeWeightedStat(initial=0.0)
        tw.update(9.0, now=1.0)
        tw.reset(initial=5.0)
        assert tw.value == 5.0 and tw.min == 5.0 and tw.max == 5.0


def linear(lo, hi, nbins):
    return Histogram("h", bounds=linear_bounds(lo, hi, nbins))


class TestHistogram:
    # Buckets follow the Prometheus ``le`` rule: counts[0] holds samples
    # at or below the first bound, counts[i] those in (b[i-1], b[i]],
    # counts[-1] those past the last bound.

    def test_bin_placement(self):
        h = linear(0.0, 10.0, 10)
        for x in [0.5, 1.5, 9.9]:
            h.observe(x)
        assert h.counts[1] == 1 and h.counts[2] == 1 and h.counts[10] == 1

    def test_under_and_overflow(self):
        h = linear(0.0, 1.0, 4)
        h.observe(-0.1)
        h.observe(0.0)  # lo is the first upper bound: at-or-below
        h.observe(1.0)  # hi is inclusive
        h.observe(1.5)
        assert h.counts[0] == 2 and h.counts[-1] == 1
        assert h.counts[-2] == 1

    def test_mean(self):
        h = linear(0.0, 10.0, 5)
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == pytest.approx(3.0)

    def test_bin_edges(self):
        assert linear_bounds(0.0, 1.0, 2) == (0.0, 0.5, 1.0)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            linear_bounds(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            linear_bounds(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))

    def test_reset_clears_all_buckets(self):
        h = linear(0.0, 1.0, 4)
        h.observe(-1.0)
        h.observe(0.5)
        h.observe(2.0)
        h.reset()
        assert h.count == 0 and h.sum == 0.0
        assert h.counts == [0] * 6

    def test_percentile_uniform_fill(self):
        h = linear(0.0, 10.0, 10)
        for i in range(1, 101):
            h.observe(i / 10.0)  # 0.1, ..., 10.0 — 10 per (k, k+1]
        assert h.percentile(50) == pytest.approx(5.0)
        assert h.percentile(99) == pytest.approx(9.9)
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == pytest.approx(10.0)

    def test_percentile_underflow_maps_to_lo(self):
        h = linear(0.0, 10.0, 10)
        h.observe(-5.0)
        h.observe(-3.0)
        h.observe(5.0)
        assert h.percentile(10) == 0.0

    def test_percentile_overflow_maps_to_hi(self):
        h = linear(0.0, 10.0, 10)
        h.observe(5.0)
        h.observe(50.0)
        assert h.percentile(99) == 10.0

    def test_percentile_empty_returns_none(self):
        h = linear(0.0, 1.0, 2)
        assert h.percentile(50) is None
        assert h.percentile(0) is None
        h.observe(0.5)
        assert h.percentile(50) is not None
        h.reset()
        assert h.percentile(99) is None

    def test_percentile_errors(self):
        h = linear(0.0, 1.0, 2)
        h.observe(0.5)
        with pytest.raises(ValueError, match="out of"):
            h.percentile(-1)
        with pytest.raises(ValueError, match="out of"):
            h.percentile(101)

    def test_percentile_matches_bin_index_form_on_linear_bounds(self):
        # Equal-width bounds from 0 reproduce the (i + frac) * width
        # estimate the per-run histograms have always reported.
        width = 25250.0 / 64
        h = Histogram("h", bounds=linear_bounds(0.0, 25250.0, 64))
        for x in (24990.0, 25000.0, 25010.0, 25100.0, 25240.0, 1000.0):
            h.observe(x)
        for q in (10, 50, 90, 99):
            target = q / 100.0 * h.count
            cum = h.counts[0]
            for k, n in enumerate(h.counts[1:-1]):
                if n and target <= cum + n:
                    break
                cum += n
            assert h.percentile(q) == (k + (target - cum) / n) * width


class TestRegistry:
    def test_scoped_prefixing(self):
        reg = StatRegistry()
        vault = reg.scoped("hmc").scoped("vault0")
        c = vault.counter("reads")
        c.inc(3)
        assert reg.get("hmc.vault0.reads") is c

    def test_get_or_create_idempotent(self):
        reg = StatRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_raises(self):
        reg = StatRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.time_weighted("x")
        with pytest.raises(TypeError):
            reg.histogram("x", linear_bounds(0, 1, 2))

    def test_time_weighted_reregistration_same_params_ok(self):
        reg = StatRegistry()
        tw = reg.time_weighted("x", initial=2.0)
        assert reg.time_weighted("x", initial=2.0) is tw

    def test_time_weighted_conflicting_initial_raises(self):
        # Regression: a mismatched initial used to be silently ignored,
        # leaving the second caller with a stat biased by someone else's
        # starting level.
        reg = StatRegistry()
        reg.time_weighted("x", initial=1.0)
        with pytest.raises(ValueError, match="initial"):
            reg.time_weighted("x", initial=2.0)

    def test_histogram_reregistration_same_params_ok(self):
        reg = StatRegistry()
        h = reg.histogram("h", linear_bounds(0.0, 10.0, 5))
        assert reg.histogram("h", linear_bounds(0.0, 10.0, 5)) is h

    def test_histogram_conflicting_bins_raise(self):
        # Regression: mismatched bucket bounds were silently ignored, so
        # samples landed in someone else's binning.
        reg = StatRegistry()
        reg.histogram("h", linear_bounds(0.0, 10.0, 5))
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("h", linear_bounds(0.0, 20.0, 5))
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("h", linear_bounds(0.0, 10.0, 8))
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("h", (1.0, 2.0, 4.0))

    def test_snapshot_flattens_scalars(self):
        reg = StatRegistry()
        reg.counter("c").inc(2)
        h = reg.histogram("h", linear_bounds(0.0, 10.0, 5))
        h.observe(3.0)
        h.observe(5.0)
        snap = reg.snapshot()
        assert snap == {"c": 2.0, "h": 4.0}

    def test_structured_snapshot_types_every_stat(self):
        import json

        reg = StatRegistry()
        reg.counter("c").inc(3)
        tw = reg.time_weighted("tw", initial=1.0)
        tw.update(3.0, now=2.0)
        h = reg.histogram("h", linear_bounds(0.0, 10.0, 10))
        h.observe(5.0)
        snap = reg.snapshot(structured=True)
        assert snap["c"] == {"type": "counter", "value": 3.0}
        assert snap["tw"]["type"] == "time_weighted"
        assert snap["tw"]["mean"] == pytest.approx(1.0)
        assert snap["h"]["type"] == "histogram" and snap["h"]["count"] == 1
        # 5.0 sits in the (4, 5] bucket: its midpoint is the median.
        assert snap["h"]["p50"] == pytest.approx(4.5)
        assert (snap["h"]["lo"], snap["h"]["hi"]) == (0.0, 10.0)
        json.dumps(snap)  # must always be JSON-serializable

    def test_structured_snapshot_empty_stats_are_json_safe(self):
        import json

        reg = StatRegistry()
        reg.histogram("h", linear_bounds(0.0, 1.0, 2))
        snap = reg.snapshot(structured=True)
        assert snap["h"]["p50"] is None and snap["h"]["mean"] == 0.0
        json.dumps(snap)

    def test_flat_snapshot_unchanged_by_structured_mode(self):
        reg = StatRegistry()
        reg.counter("c").inc(2)
        assert reg.snapshot() == {"c": 2.0}

    def test_items_filters_by_scope(self):
        reg = StatRegistry()
        reg.counter("top")
        sub = reg.scoped("sub")
        sub.counter("inner")
        names = [k for k, _ in sub.items()]
        assert names == ["sub.inner"]
