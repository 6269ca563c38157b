"""Deterministic native SVG emission."""

import hashlib

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

    def test_gaps_one_ulp_apart_plot_as_equal_gaps(self):
        # At 1e-12 two gaps one ulp apart have the same log10, so the y
        # range spans no height unless it is widened as for equal gaps.
        x = np.array([1.0, 2.0])
        apart = [Series("a", x, np.array([1e-12, np.nextafter(1e-12, 1.0)]), None)]
        equal = [Series("a", x, np.array([1e-12, 1e-12]), None)]
        assert render_gap_vs_cost(apart) == render_gap_vs_cost(equal)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_gap_vs_cost([])

    def test_band_optional(self):
        svg = render_gap_vs_cost([Series("x", np.array([1.0, 2.0]), np.array([0.5, 0.2]), None)])
        assert svg.count("<polygon") == 0


def _digest(series):
    return hashlib.sha256(render_gap_vs_cost(series).encode()).hexdigest()


class TestPinnedBytes:
    """Exact output on the paths the committed toy SVGs do not reach:
    palette wrap-around, the y floor, a single x value and a bandless
    series beside a banded one."""

    def test_more_series_than_palette_colours(self):
        exp = demo_series()[0]
        series = [Series(f"s{i}", exp.x, exp.y * (i + 1), exp.se) for i in range(7)]
        assert _digest(series) == "78bf42d94e715c3811fdc611b476ae5d360bea470071dc41fecb348f56566f5f"

    def test_all_zero_gaps_clamp_to_the_floor(self):
        exp = demo_series()[0]
        series = [Series("flat", exp.x, np.zeros(4), exp.se), Series("zero", exp.x, np.zeros(4), None)]
        assert _digest(series) == "2a1b1e207eba5f6d4922b9fab9bb783bec6345fdfd29224b331327576d6382ec"

    def test_single_x_range(self):
        series = [Series("one", np.array([5.0, 5.0]), np.array([0.3, 0.02]), np.array([0.01, 0.01]))]
        assert _digest(series) == "5b0d72010eb91551951c895729e0b2d53dd36380e4d4773a95d5df2259962ffa"

    def test_series_without_se(self):
        exp, _ = demo_series()
        series = [Series("band", exp.x, exp.y, exp.se), Series("bare", exp.x, exp.y * 2.0, None)]
        assert _digest(series) == "e93a5722aabca9c97c439dafd5b87e360766e9543f135b8b5735f166dc3146af"
