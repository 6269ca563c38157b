"""Every library entry point reads theta, integer counts and positive reals
by one rule each: a scalar or non-empty vector of finite reals, a Python
int >= 1, and a positive finite real."""

import math

import numpy as np
import pytest

from iterboot.analytic import (
    brute_force_optimal,
    continuous_optimum,
    cost_curve,
    marginal,
    optimal_schedule,
    variance_floor,
)
from iterboot.engine import CostModel, RunConfig, monte_carlo
from iterboot.gaussian import GaussianModel, check_theta, gaussian_nll, optimal_reward
from iterboot.gdmodel import GdUpdater, check_gradient
from iterboot.policy import Schedule

TRAIN_ONLY = CostModel(0.0, 1.0)


def run_config(theta0=1.0, **kw):
    return RunConfig(
        theta0=theta0, schedule=Schedule((10,)), cost=TRAIN_ONLY, seed=0, sigma2=1.0, kappa2=2.0, **kw
    )


# Each entry point that takes a theta, with the name its messages use.
_THETA_ENTRY_POINTS = {
    "RunConfig": ("theta0", lambda theta: run_config(theta)),
    "marginal": ("theta0", lambda theta: marginal(theta, [10], 1.0, 2.0)),
    "cost_curve": ("theta0", lambda theta: cost_curve([10], theta, 1.0, 2.0, TRAIN_ONLY)),
    "optimal_schedule": ("theta0", lambda theta: optimal_schedule(21, 3, 1.0, 2.0, theta)),
    "GaussianModel": ("theta", lambda theta: GaussianModel(theta, 1.0)),
}


class TestTheta:
    def test_scalar_becomes_a_vector(self):
        assert run_config(1.5).theta0.shape == (1,)
        law = marginal(1.5, [10], 1.0, 2.0)
        assert law.mu.shape == (1,) and law.d == 1
        assert cost_curve([10, 10], 1.5, 1.0, 2.0, TRAIN_ONLY).mu.shape == (2, 1)
        model = GaussianModel(1.5, 1.0)
        assert model.theta.shape == (1,) and model.d == 1

    def test_returns_a_new_float_vector(self):
        given = np.array([1, 2])
        theta = check_theta("theta", given)
        theta[0] = 5.0
        assert theta.dtype == np.float64 and given.tolist() == [1, 2]
        assert check_theta("theta", [0.5, -1.0]).tolist() == [0.5, -1.0]

    @pytest.mark.parametrize("entry", sorted(_THETA_ENTRY_POINTS))
    @pytest.mark.parametrize("theta", [[math.nan, 1.0], [math.inf], -math.inf])
    def test_every_entry_point_rejects_a_non_finite_theta(self, entry, theta):
        name, call = _THETA_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(theta)

    @pytest.mark.parametrize("entry", sorted(_THETA_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "theta", [np.ones((2, 2)), np.ones((1, 1)), np.zeros(0), []], ids=["2x2", "1x1", "empty", "empty_list"]
    )
    def test_every_entry_point_rejects_a_matrix_or_an_empty_theta(self, entry, theta):
        # A 2x2 theta0 used to pass RunConfig with d = 4 and then fail in
        # numpy's broadcasting; marginal returned a 2x2 mu for it, and for
        # an empty theta0 a law whose final reward read 1.0, above r*.
        name, call = _THETA_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be a scalar or a non-empty vector"):
            call(theta)


# Each integer count an entry point takes, with the name its messages use.
_COUNT_CALLS = {
    "RunConfig.max_draws_per_iter": ("max_draws_per_iter", lambda v: run_config(max_draws_per_iter=v)),
    "RunConfig.eval_samples": ("eval_samples", lambda v: run_config(eval_samples=v)),
    "Schedule": ("schedule entry", lambda v: Schedule((10, v))),
    "optimal_reward": ("d", lambda v: optimal_reward(v, 1.0, 2.0)),
    "gaussian_nll": ("d", lambda v: gaussian_nll(1.0, 2.0, v)),
    "continuous_optimum": ("T", lambda v: continuous_optimum(21, v, 1.0, 2.0)),
    "brute_force_optimal": ("T", lambda v: brute_force_optimal(21, v, 1.0, 2.0)),
    "variance_floor": ("n0", lambda v: variance_floor(v, 1.0, 2.0)),
    "monte_carlo": ("workers", lambda v: monte_carlo(run_config(), 2, workers=v)),
}


@pytest.mark.parametrize("entry", sorted(_COUNT_CALLS))
@pytest.mark.parametrize("value", [12.5, 0, -3, True, 10.0])
def test_every_count_must_be_an_integer_of_at_least_one(entry, value):
    # max_draws_per_iter = 12.5 used to pass and then fail in numpy's
    # reduction of a zero-size array; variance_floor(2.5, 1, 2) read 0.48.
    name, call = _COUNT_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
        call(value)


# Each positive real an entry point takes, besides the variances that
# test_analytic.py and test_gaussian.py cover.
_POSITIVE_CALLS = {
    "eta": lambda v: GdUpdater(v),
    "h": lambda v: check_gradient(gaussian_nll(1.0, 2.0, 1), np.array([0.0]), np.array([1.0]), h=v),
}


@pytest.mark.parametrize("name", sorted(_POSITIVE_CALLS))
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_every_positive_real_must_be_finite_and_positive(name, value):
    # check_gradient used to compute with h = nan and h = inf.
    with pytest.raises(ValueError, match=f"^{name} must be a positive finite real, got {value!r}$"):
        _POSITIVE_CALLS[name](value)
