"""Dependency-free SVG line charts.

The CLI ships its regret figures as self-contained SVG text: every sample
of every series is embedded as a polyline vertex, so the file renders in
any browser and can be inspected or diffed without a plotting runtime.
CSV remains the canonical record; charts are a convenience view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence
from xml.sax.saxutils import escape

# Okabe-Ito palette: distinguishable under common color-vision deficiencies.
PALETTE = (
    "#0072B2",
    "#D55E00",
    "#009E73",
    "#CC79A7",
    "#E69F00",
    "#56B4E9",
    "#000000",
    "#F0E442",
)

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 54.0


@dataclass(frozen=True)
class LineSeries:
    """One named curve: paired x/y samples in data coordinates."""

    label: str
    xs: Sequence[float]
    ys: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"series {self.label!r}: {len(self.xs)} x values vs {len(self.ys)} y values"
            )


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi] on a 1/2/2.5/5 grid."""
    if not hi > lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target, 1)
    base = 10.0 ** math.floor(math.log10(raw))
    step = next(m * base for m in (1.0, 2.0, 2.5, 5.0, 10.0) if m * base >= raw)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _tick_text(value: float) -> str:
    return f"{value:g}"


def _bounds(series: Sequence[LineSeries]) -> tuple[float, float, float, float]:
    xs = [x for s in series for x in s.xs]
    ys = [y for s in series for y in s.ys]
    if not xs:
        return 0.0, 1.0, 0.0, 1.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if not x_hi > x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if not y_hi > y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    return x_lo, x_hi, y_lo, y_hi


def line_chart(
    series: Sequence[LineSeries],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render the series as a standalone SVG document string."""
    x_lo, x_hi, y_lo, y_hi = _bounds(series)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" font-weight="bold">{escape(title)}</text>'
        )

    for t in _ticks(x_lo, x_hi):
        if not x_lo - 1e-9 <= t <= x_hi + 1e-9:
            continue
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_text(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        if not y_lo - 1e-9 <= t <= y_hi + 1e-9:
            continue
        y = py(t)
        out.append(
            f'<line x1="{_MARGIN_LEFT:.2f}" y1="{y:.2f}" x2="{_MARGIN_LEFT + plot_w:.2f}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 6:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_text(t)}</text>'
        )

    frame = (
        f'M {_MARGIN_LEFT:.2f} {_MARGIN_TOP:.2f} H {_MARGIN_LEFT + plot_w:.2f} '
        f'V {_MARGIN_TOP + plot_h:.2f} H {_MARGIN_LEFT:.2f} Z'
    )
    out.append(f'<path d="{frame}" fill="none" stroke="#333333" stroke-width="1"/>')
    if x_label:
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 18.0, _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 {cx:.1f} {cy:.1f})">{escape(y_label)}</text>'
        )

    for k, s in enumerate(series):
        if not s.xs:
            continue
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )

    legend_x = _MARGIN_LEFT + 12
    legend_y = _MARGIN_TOP + 14
    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        y = legend_y + 16 * k
        out.append(
            f'<line x1="{legend_x:.1f}" y1="{y - 4:.1f}" x2="{legend_x + 22:.1f}" '
            f'y2="{y - 4:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 28:.1f}" y="{y:.1f}" font-family="sans-serif" '
            f'font-size="12">{escape(s.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
