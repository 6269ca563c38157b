"""Deterministic native SVG emission."""

import numpy as np
import pytest

from iterboot.svgplot import Series, render_gap_vs_cost


def demo_series():
    cost = np.array([10.0, 25.0, 47.0, 80.0])
    gap = np.array([0.1, 0.04, 0.015, 0.006])
    se = np.array([0.01, 0.004, 0.002, 0.001])
    return [Series("exp", cost, gap, se), Series("const", cost, gap * 3.0, se)]


class TestRender:
    def test_byte_deterministic(self):
        a = render_gap_vs_cost(demo_series())
        b = render_gap_vs_cost(demo_series())
        assert a == b

    def test_structure(self):
        svg = render_gap_vs_cost(demo_series())
        assert svg.startswith("<?xml")
        assert svg.count("<polyline") == 2
        assert svg.count("<polygon") == 2  # one SE band per series with se
        assert "exp" in svg and "const" in svg
        assert svg.rstrip().endswith("</svg>")

    def test_no_timestamps_or_float_repr_noise(self):
        svg = render_gap_vs_cost(demo_series())
        assert "e-" not in svg.split("</text>")[0]  # title clean
        assert "date" not in svg.lower()

    def test_log_scale_orders_decades(self):
        svg = render_gap_vs_cost(demo_series())
        assert ">0.01<" in svg or ">0.1<" in svg

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_gap_vs_cost([])

    def test_band_optional(self):
        svg = render_gap_vs_cost([Series("x", np.array([1.0, 2.0]), np.array([0.5, 0.2]), None)])
        assert svg.count("<polygon") == 0
