"""ASCII chart rendering."""

import itertools

import numpy as np
import pytest

from repro import viz
from repro.experiments.common import RunScale
from repro.experiments.runner import run_experiment
from repro.viz import bar_chart, line_chart, sparkline


class TestSparkline:
    def test_trend_shape(self):
        s = sparkline([0, 1, 2, 3])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_flat_series(self):
        s = sparkline([5, 5, 5])
        assert len(s) == 3

    def test_empty(self):
        assert sparkline([]) == ""


class TestLineChart:
    def test_renders_all_series_markers(self):
        out = line_chart(
            {"a": [1, 2, 3], "b": [3, 2, 1]}, title="t", width=20, height=5
        )
        assert "*" in out and "o" in out
        assert "t" in out
        assert "a" in out and "b" in out  # legend

    def test_extremes_on_axis_labels(self):
        out = line_chart({"x": [10.0, 50.0]}, xs=[0, 100], width=20, height=4)
        assert "50" in out and "10" in out
        assert "100" in out

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            line_chart({"a": [1, 2], "b": [1]})
        with pytest.raises(ValueError):
            line_chart({"a": [1, 2]}, xs=[1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})

    def test_constant_series_ok(self):
        out = line_chart({"flat": [2.0, 2.0, 2.0]}, width=10, height=3)
        assert "flat" in out


class TestBarChart:
    def test_bars_scale_with_values(self):
        out = bar_chart({"small": 1.0, "big": 4.0}, width=20)
        lines = out.splitlines()
        small = next(l for l in lines if "small" in l)
        big = next(l for l in lines if "big" in l)
        assert big.count("█") > small.count("█")

    def test_reference_rule_drawn(self):
        out = bar_chart({"a": 0.5, "b": 2.0}, width=20, reference=1.0)
        assert "|" in out
        assert "reference = 1" in out

    def test_unit_suffix(self):
        out = bar_chart({"t": 85.0}, unit="C")
        assert "85C" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"a": -1.0})


class TestWithRealExperimentData:
    def test_fig4_style_chart(self):
        from repro.experiments import fig4_bandwidth

        sweep = fig4_bandwidth.run(bandwidths=(0, 160, 320))
        out = line_chart(
            sweep.curves, xs=sweep.bandwidths_gbs,
            title="Fig. 4", y_label="peak C", x_label="GB/s",
        )
        assert "commodity" in out and "passive" in out

    def test_fig10_style_bars(self):
        out = bar_chart(
            {"naive": 0.9, "coolpim-sw": 1.26, "ideal": 1.5},
            reference=1.0, unit="x",
        )
        assert "coolpim-sw" in out


class TestScaleTies:
    def test_exact_half_rounds_up(self):
        # 0.5 and 2.5 are round-half-even ties that Python's round() sends down.
        assert viz._scale(0.5, 0.0, 1.0, 2) == 1
        assert viz._scale(2.5, 0.0, 5.0, 6) == 3

    def test_last_bit_noise_around_a_tie_lands_in_one_cell(self):
        tie = 3.5  # column 27.5 of Fig. 5's 56-column axis over [0, 7]
        cells = {
            viz._scale(x, 0.0, 7.0, 56)
            for x in (np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf))
        }
        assert cells == {28}

    def test_a_y_tie_goes_down_the_canvas(self):
        # y = 1.5 lies halfway between rows 1 and 2 (counted from the top).
        out = line_chart({"s": [0.0, 1.5, 3.0]}, width=3, height=4)
        rows = [line.split("│")[-1].split("┤")[-1] for line in out.splitlines()[:4]]
        assert rows == ["  *", "   ", " * ", "*  "]


#: Experiments whose text carries a chart in ``repro batch --quick``.
CHARTED = ("fig4", "fig5", "fig10", "fig13", "fig14")


def _recording(fn, charts):
    def record(*args, **kwargs):
        text = fn(*args, **kwargs)
        charts.append((fn, args, kwargs, text))
        return text
    return record


@pytest.fixture(scope="module")
def drawn_charts():
    """Every chart the quick batch draws at seed 0, per experiment, as
    (chart function, args, kwargs, text)."""
    drawn = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in CHARTED:
            charts = drawn[name] = []
            for fn in (line_chart, bar_chart, sparkline):
                mp.setattr(viz, fn.__name__, _recording(fn, charts))
            run_experiment(name, RunScale.quick(seed=0))
    return drawn


def _nudged(plotted, up):
    """``plotted`` with its i-th nonzero float moved one ulp up if
    ``up(i)``, else one ulp down, and the number of floats moved. Exact
    zeros stay: one ulp of zero is a denormal, which no computed value
    carries as noise."""
    index = itertools.count()

    def walk(v):
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return type(v)(walk(x) for x in v)
        if isinstance(v, float) and v != 0.0:
            return float(np.nextafter(v, np.inf if up(next(index)) else -np.inf))
        return v

    return walk(plotted), next(index)


class TestLastBitRobustness:
    """Chart text does not depend on the last bit of a plotted value.

    Two exact solver orderings give temperatures a few ulps apart, and a
    point on a half-cell tie must land in the same cell either way. Every
    chart is redrawn with all values one ulp up, all one ulp down, and
    each value alone one ulp against all the others (which moves it
    furthest relative to the axis ends), and must print the same text.
    """

    @pytest.mark.parametrize("name", CHARTED)
    def test_text_unchanged_by_one_ulp(self, drawn_charts, name):
        charts = drawn_charts[name]
        assert charts
        for fn, args, kwargs, text in charts:
            plotted = (args[0], kwargs.get("xs"))
            _, n = _nudged(plotted, lambda i: True)
            patterns = [lambda i: True, lambda i: False]
            for j in range(n):
                patterns += [lambda i, j=j: i == j, lambda i, j=j: i != j]
            for up in patterns:
                (values, xs), _ = _nudged(plotted, up)
                redrawn = dict(kwargs, xs=xs) if "xs" in kwargs else kwargs
                assert fn(values, *args[1:], **redrawn) == text
