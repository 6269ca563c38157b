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


def _nice_linear_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
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
    if y_hi <= y_lo:
        y_hi = y_lo * 10.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
    if ly_hi <= ly_lo:
        ly_hi = ly_lo + 1.0

    def py(v: float) -> float:
        return _MARGIN_T + (ly_hi - math.log10(v)) / (ly_hi - ly_lo) * plot_h

    y_ticks = [t for t in _decade_ticks(y_lo, y_hi) if y_lo <= t <= y_hi] or [y_lo, y_hi]

    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">'
    )
    parts.append(f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>')
    parts.append(
        f'<text x="{_fmt(_WIDTH / 2)}" y="24.00" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>'
    )

    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0 + plot_w)}" '
        f'y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(_MARGIN_T)}" x2="{_fmt(x0)}" '
        f'y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>'
    )
    for t in _nice_linear_ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{_fmt(px(t))}" y1="{_fmt(y0)}" x2="{_fmt(px(t))}" '
            f'y2="{_fmt(y0 + 5)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(t))}" y="{_fmt(y0 + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.6g}</text>'
        )
    for t in y_ticks:
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py(t))}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(py(t))}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py(t) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.6g}</text>'
        )
    parts.append(
        f'<text x="{_fmt(x0 + plot_w / 2)}" y="{_fmt(_HEIGHT - 12)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">cumulative cost</text>'
    )
    parts.append(
        f'<text x="18.00" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18.00 {_fmt(_MARGIN_T + plot_h / 2)})">gap</text>'
    )

    # SE bands first, polylines on top
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        x = np.asarray(s.x, dtype=float)
        if s.se is not None:
            se = np.asarray(s.se, dtype=float)
            upper = clamp_y(np.asarray(s.y) + se)
            lower = clamp_y(np.asarray(s.y) - se)
            pts = [f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(x, upper)]
            pts += [f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(x[::-1], lower[::-1])]
            parts.append(
                f'<polygon points="{" ".join(pts)}" fill="{color}" '
                f'fill-opacity="0.15" stroke="none"/>'
            )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        x = np.asarray(s.x, dtype=float)
        y = clamp_y(np.asarray(s.y, dtype=float))
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _MARGIN_T + 16 + 16 * i
        lx = x0 + plot_w - 150
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="12">{s.label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
