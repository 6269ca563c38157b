"""Policy families, materialization, and budget-matched constructors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterboot.policy import (
    BatchConstant,
    BatchExponential,
    BatchLinear,
    BudgetConstant,
    BudgetLinear,
    Constant,
    Explicit,
    Exponential,
    Polynomial,
    Schedule,
    is_increasing,
    materialize,
)


class TestMaterialize:
    def test_constant(self):
        assert materialize(Constant(10), 3).n == (10, 10, 10)

    def test_exponential(self):
        assert materialize(Exponential(10, 0.5), 3).n == (10, 15, 22)

    def test_polynomial_linear_growth(self):
        assert materialize(Polynomial(2, 1.0), 4).n == (2, 4, 6, 8)

    def test_batch_exponential(self):
        assert materialize(BatchExponential(10, 1.0, 256), 3).n == (2560, 5120, 10240)

    def test_batch_constant_and_linear(self):
        assert materialize(BatchConstant(2.7, 64), 3).n == (128, 128, 128)
        assert materialize(BatchLinear(1.5, 10), 4).n == (10, 30, 40, 60)

    def test_explicit_roundtrip(self):
        assert materialize(Explicit([3, 1, 4]), 3).n == (3, 1, 4)

    def test_explicit_rejects_non_integral_counts(self):
        with pytest.raises(ValueError, match="integral"):
            Explicit([2.7, 3])
        assert materialize(Explicit([np.int64(2), 3.0]), 2).n == (2, 3)

    def test_explicit_length_mismatch(self):
        with pytest.raises(ValueError, match="entries but T"):
            materialize(Explicit([3, 1, 4]), 2)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            materialize(Constant(10), 0)

    @pytest.mark.parametrize(
        "spec",
        [Exponential(10, 0.5), Polynomial(10, 200.0), BatchExponential(1.0, 0.5, 4), BudgetConstant(10, 0.5)],
    )
    def test_counts_beyond_the_float_range_name_the_horizon(self, spec):
        # (1+u)**t and (1+t)**alpha overflow a float well before T = 2000.
        with pytest.raises(ValueError, match="overflow a float at horizon T=2000"):
            materialize(spec, 2000)

    def test_clamps_floored_zero_and_flags(self):
        # 0.9 * (1+t)^... floors to 0 at t=0
        s = materialize(BatchExponential(0.9, 0.5, 8), 3)
        assert s.n[0] == 1
        assert s.clamped

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Constant(0)
        with pytest.raises(ValueError):
            Exponential(10, 0.0)
        with pytest.raises(ValueError):
            Polynomial(10, -1.0)
        with pytest.raises(ValueError):
            Explicit([])
        with pytest.raises(ValueError):
            Explicit([1, 0, 2])
        with pytest.raises(ValueError):
            BatchConstant(1.0, 0)


class TestBudgetMatched:
    def test_constant_examples(self):
        assert materialize(BudgetConstant(10, 0.5), 3).n == (15, 15, 15)
        assert materialize(BudgetConstant(10, 0.5), 1).n == (10,)
        assert materialize(BudgetConstant(1, 1.0), 4).n == (3, 3, 3, 3)

    def test_linear_verbatim(self):
        assert materialize(BudgetLinear(10, 0.5), 3).n == (15, 31, 47)
        # T=2: total = 10 + 15 = 25, denominator 2*1 = 2, so (t+1)*25
        assert materialize(BudgetLinear(10, 0.5), 2).n == (25, 50)

    def test_linear_exact(self):
        assert materialize(BudgetLinear(10, 0.5, "exact"), 3).n == (7, 15, 23)

    def test_linear_verbatim_needs_two_iterations(self):
        with pytest.raises(ValueError, match="T >= 2"):
            materialize(BudgetLinear(10, 0.5, "verbatim"), 1)
        # exact works at T=1
        assert materialize(BudgetLinear(10, 0.5, "exact"), 1).n == (10,)

    def test_unknown_normalization(self):
        with pytest.raises(ValueError):
            materialize(BudgetLinear(10, 0.5, "other"), 3)

    def test_exact_clamps_small_first_entries(self):
        s = materialize(BudgetLinear(1, 0.1, "exact"), 6)
        assert all(v >= 1 for v in s.n)
        assert s.clamped


class TestScheduleOps:
    def test_is_increasing(self):
        assert is_increasing(Schedule((10, 15, 22)))
        assert not is_increasing(Schedule((10, 10, 10)))
        assert not is_increasing(Schedule((10, 9, 22)))
        assert not is_increasing(Schedule((5,)))
        # non-strict growth with one strict step counts
        assert is_increasing(Schedule((5, 5, 6)))

    def test_schedule_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            Schedule((3, 0, 2))
        with pytest.raises(ValueError):
            Schedule(())


@settings(max_examples=200, deadline=None)
@given(n0=st.integers(10, 500), u=st.floats(0.01, 1.0), T=st.integers(2, 25))
def test_exponential_ratio_tracks_growth_factor(n0, u, T):
    # Flooring error bound: consecutive ratios stay in the stated window.
    s = materialize(Exponential(n0, u), T)
    for a, b in zip(s.n, s.n[1:]):
        # floor(x) in (x-1, x] gives b/a in ((1+u)(1-1/b), (1+u)(1+1/(a-1)))
        lo = (1 + u) * (1 - 1 / b)
        hi = (1 + u) * (1 + 1 / (a - 1))
        assert lo <= b / a <= hi
        # for n0 >= 10 and u <= 1 the deviation from (1+u) is < 15%
        assert abs(b / a - (1 + u)) < 0.15 * (1 + u)


@settings(max_examples=200, deadline=None)
@given(n0=st.integers(1, 200), u=st.floats(0.05, 2.0), T=st.integers(1, 30))
def test_budget_matched_constant_total_close(n0, u, T):
    s = materialize(BudgetConstant(n0, u), T)
    target = sum(n0 * (1 + u) ** k for k in range(T))
    # flooring loses at most 1 per entry; clamping can only add
    assert sum(s.n) <= target + T or s.clamped
    assert sum(s.n) >= target - T

@settings(max_examples=100, deadline=None)
@given(n0=st.integers(1, 100), T=st.integers(1, 20))
def test_constant_is_flat_and_not_increasing(n0, T):
    s = materialize(Constant(n0), T)
    assert set(s.n) == {n0}
    assert not is_increasing(s)


@settings(max_examples=100, deadline=None)
@given(n0=st.integers(1, 100), u=st.floats(0.05, 1.5), T=st.integers(1, 25))
def test_exact_linear_prefloor_sum_matches_exponential_total(n0, u, T):
    target = sum(n0 * (1 + u) ** k for k in range(T))
    prefloor = sum(2 * (t + 1) / (T * (T + 1)) * target for t in range(T))
    assert math.isclose(prefloor, target, rel_tol=1e-12)
