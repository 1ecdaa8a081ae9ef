"""Terminal plotting: line charts, bar charts, sparklines.

The experiment modules print tables; these helpers render the same series
the paper plots as figures — dependency-free ASCII, suitable for logs and
CI output.

    from repro.viz import line_chart, bar_chart
    print(line_chart({"commodity": temps}, xs=bandwidths,
                     title="Peak DRAM temp vs bandwidth"))
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

_MARKERS = "*o+x#@%&"
_SPARK = "▁▂▃▄▅▆▇█"


#: Decimals a canvas position is snapped to before rounding, so a point
#: that lies on a half-cell tie up to last-bit float noise always lands
#: in the same cell.
_SNAP_DECIMALS = 9


def _scale(value: float, lo: float, hi: float, steps: int) -> int:
    """Cell index of ``value`` on ``steps`` cells spanning ``[lo, hi]``.

    The position is snapped to :data:`_SNAP_DECIMALS` decimals and an
    exact half rounds up, so a tie goes to the higher cell whichever side
    of it the computed value fell.
    """
    if hi <= lo:
        return 0
    pos = round((value - lo) / (hi - lo) * (steps - 1), _SNAP_DECIMALS)
    return min(steps - 1, max(0, math.floor(pos + 0.5)))


def sparkline(values: Sequence[float]) -> str:
    """One-line trend, e.g. ``▁▂▅▇█▆``."""
    vals = list(values)
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    return "".join(_SPARK[_scale(v, lo, hi, len(_SPARK))] for v in vals)


def line_chart(
    series: Dict[str, Sequence[float]],
    xs: Optional[Sequence[float]] = None,
    width: int = 64,
    height: int = 16,
    title: str = "",
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Multi-series scatter/line chart on a character canvas.

    Each series gets a marker from ``*o+x…``; points are linearly placed
    by (x, y). ``xs`` defaults to the sample index.
    """
    if not series:
        raise ValueError("need at least one series")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    n = lengths.pop()
    if n == 0:
        raise ValueError("series are empty")
    if xs is None:
        xs = list(range(n))
    if len(xs) != n:
        raise ValueError(f"xs has {len(xs)} entries for series of length {n}")

    all_y = [y for v in series.values() for y in v]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(xs), max(xs)

    canvas = [[" "] * width for _ in range(height)]
    for idx, (name, ys) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in zip(xs, ys):
            col = _scale(x, x_lo, x_hi, width)
            # Rows count down from the top, so scale on the flipped axis:
            # a tie goes right in x and down in y.
            row = _scale(-y, -y_hi, -y_lo, height)
            canvas[row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    for i, row in enumerate(canvas):
        if i == 0:
            label = f"{y_hi:8.3g} ┤"
        elif i == height - 1:
            label = f"{y_lo:8.3g} ┤"
        else:
            label = " " * 8 + " │"
        lines.append(label + "".join(row))
    lines.append(" " * 8 + " └" + "─" * width)
    x_axis = f"{x_lo:<10.4g}{x_label:^{max(0, width - 20)}}{x_hi:>10.4g}"
    lines.append(" " * 10 + x_axis)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    if y_label:
        lines.insert(1 if title else 0, f"[{y_label}]")
    return "\n".join(lines)


def bar_chart(
    values: Dict[str, float],
    width: int = 48,
    title: str = "",
    reference: Optional[float] = None,
    unit: str = "",
) -> str:
    """Horizontal bars, one per key, with an optional reference rule.

    ``reference`` draws a ``|`` at that value (e.g. the baseline 1.0 for
    speedup charts or 85 °C for temperature charts).
    """
    if not values:
        raise ValueError("need at least one bar")
    hi = max(list(values.values()) + ([reference] if reference else []))
    if hi <= 0:
        raise ValueError("bar charts need positive values")
    label_w = max(len(k) for k in values)
    ref_col = (
        _scale(reference, 0.0, hi, width) if reference is not None else None
    )
    lines: List[str] = []
    if title:
        lines.append(title)
    for name, value in values.items():
        length = _scale(value, 0.0, hi, width) + 1
        bar = list("█" * min(length, width) + " " * (width - min(length, width)))
        if ref_col is not None and ref_col < width and bar[ref_col] == " ":
            bar[ref_col] = "|"
        lines.append(f"{name:>{label_w}} {''.join(bar)} {value:.3g}{unit}")
    if reference is not None:
        lines.append(f"{'':>{label_w}} {'':>{min(ref_col or 0, width)}}"
                     f"^ reference = {reference:g}{unit}")
    return "\n".join(lines)
