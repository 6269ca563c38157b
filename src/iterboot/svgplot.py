"""Native SVG line charts for gap-versus-cost curves.

Drawn by hand so the output is hermetic and byte-deterministic: no
timestamps, fixed float formatting, fixed palette. The gap axis is
logarithmic, matching how geometric convergence is read off
the curves. Each series gets a polyline plus a shaded standard-error
band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Series", "render_gap_vs_cost"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720.0, 480.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72.0, 24.0, 40.0, 56.0


@dataclass(frozen=True)
class Series:
    """One curve: cost on x, gap on y, optional SE band half-width."""

    label: str
    x: np.ndarray
    y: np.ndarray
    se: np.ndarray | None = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: float) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
        f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{width}"/>'
    )


def _text(x: float, y: float, body: str, size: int, anchor: str | None, extra: str = "") -> str:
    """A sans-serif label; ``anchor`` None keeps SVG's start anchor."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor_attr} '
        f'font-family="sans-serif" font-size="{size}"{extra}>{body}</text>'
    )


def _nice_linear_ticks(lo: float, hi: float) -> list[float]:
    """About five round-numbered ticks over lo < hi."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        ticks.append(v)
        v += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def render_gap_vs_cost(
    series: Sequence[Series],
    title: str = "gap to optimal reward vs cumulative cost",
) -> str:
    """Render curves to an SVG document string."""
    if not series:
        raise ValueError("nothing to plot")
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    positive = ys[ys > 0]
    y_floor = float(positive.min()) / 2.0 if positive.size else 1e-12

    def clamp_y(a: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(a, dtype=float), y_floor)

    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    all_y = clamp_y(ys)
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    # Equal y_lo and y_hi share a log10, and so can two one ulp apart (at 1e-12).
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
    if ly_hi <= ly_lo:
        y_hi = y_lo * 10.0
        ly_hi = math.log10(y_hi)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (ly_hi - math.log10(v)) / (ly_hi - ly_lo) * plot_h

    def points(x: np.ndarray, y: np.ndarray) -> str:
        return " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(x, y))

    y_ticks = [t for t in _decade_ticks(y_lo, y_hi) if y_lo <= t <= y_hi] or [y_lo, y_hi]
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    y_mid = _MARGIN_T + plot_h / 2

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>',
        _text(_WIDTH / 2, 24.0, title, 15, "middle"),
        # axes
        _line(x0, y0, x0 + plot_w, y0, "black", 1),
        _line(x0, _MARGIN_T, x0, y0, "black", 1),
    ]
    for t in _nice_linear_ticks(x_lo, x_hi):
        parts.append(_line(px(t), y0, px(t), y0 + 5, "black", 1))
        parts.append(_text(px(t), y0 + 20, f"{t:.6g}", 11, "middle"))
    for t in y_ticks:
        parts.append(_line(x0 - 5, py(t), x0, py(t), "black", 1))
        parts.append(_text(x0 - 8, py(t) + 4, f"{t:.6g}", 11, "end"))
    parts.append(_text(x0 + plot_w / 2, _HEIGHT - 12, "cumulative cost", 12, "middle"))
    parts.append(
        _text(18.0, y_mid, "gap", 12, "middle", f' transform="rotate(-90 18.00 {_fmt(y_mid)})"')
    )

    colors = [_PALETTE[i % len(_PALETTE)] for i in range(len(series))]
    # SE bands first, polylines on top
    for s, color in zip(series, colors):
        if s.se is not None:
            x = np.asarray(s.x, dtype=float)
            y, se = np.asarray(s.y), np.asarray(s.se, dtype=float)
            band = points(np.r_[x, x[::-1]], np.r_[clamp_y(y + se), clamp_y(y - se)[::-1]])
            parts.append(
                f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" stroke="none"/>'
            )
    lx = x0 + plot_w - 150
    for i, (s, color) in enumerate(zip(series, colors)):
        curve = points(np.asarray(s.x, dtype=float), clamp_y(s.y))
        ly = _MARGIN_T + 16 + 16 * i
        parts += [
            f'<polyline points="{curve}" fill="none" stroke="{color}" stroke-width="1.8"/>',
            _line(lx, ly - 4, lx + 22, ly - 4, color, 1.8),
            _text(lx + 28, ly, s.label, 12, None),
        ]

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
