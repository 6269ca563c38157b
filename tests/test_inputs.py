"""Every library entry point reads theta, integer counts, positive reals
and seeds by one rule each: a scalar or non-empty vector of finite reals,
a Python or numpy integer >= 1 (kept as an int), a positive finite real,
and a Python int in [0, 2**64)."""

import math
import re

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
from iterboot.engine import CostModel, RunConfig, monte_carlo, select_batch
from iterboot.gaussian import (
    ExpReward,
    GaussianModel,
    GaussianNll,
    check_theta,
    optimal_reward,
    post_selection_params,
)
from iterboot.gdmodel import check_gradient
from iterboot.policy import Constant, Explicit, Schedule, materialize

TRAIN_ONLY = CostModel(0.0, 1.0)


def run_config(theta0=1.0, **kw):
    kw.setdefault("seed", 0)
    return RunConfig(theta0=theta0, schedule=Schedule((10,)), cost=TRAIN_ONLY, sigma2=1.0, kappa2=2.0, **kw)


# Each entry point that takes a theta, with the name its messages use.
_THETA_ENTRY_POINTS = {
    "RunConfig": ("theta0", lambda theta: run_config(theta)),
    "marginal": ("theta0", lambda theta: marginal(theta, [10], 1.0, 2.0)),
    "cost_curve": ("theta0", lambda theta: cost_curve([10], theta, 1.0, 2.0, TRAIN_ONLY)),
    "optimal_schedule": ("theta0", lambda theta: optimal_schedule(21, 3, 1.0, 2.0, theta)),
    "GaussianModel": ("theta", lambda theta: GaussianModel(theta, 1.0)),
    "post_selection_params": ("theta", lambda theta: post_selection_params(theta, 1.0, 2.0)),
}


class TestTheta:
    def test_scalar_becomes_a_vector(self):
        assert run_config(1.5).theta0.shape == (1,)
        law = marginal(1.5, [10], 1.0, 2.0)
        assert law.mu.shape == (1,)
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

    @pytest.mark.parametrize("entry", sorted(_THETA_ENTRY_POINTS))
    @pytest.mark.parametrize("theta", [np.array([1 + 2j]), 1 + 2j], ids=["array", "scalar"])
    def test_every_entry_point_rejects_a_complex_theta(self, entry, theta):
        # A complex array used to lose its imaginary part with only numpy's
        # ComplexWarning, and a complex scalar raised TypeError.
        name, call = _THETA_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            call(theta)


_SELECT_PAIR = (GaussianModel(1.0, 1.0), ExpReward(2.0))

# Each integer count an entry point takes, with the name its messages use.
_COUNT_CALLS = {
    "RunConfig.max_draws_per_iter": ("max_draws_per_iter", lambda v: run_config(max_draws_per_iter=v)),
    "RunConfig.eval_samples": ("eval_samples", lambda v: run_config(eval_samples=v)),
    "Schedule": ("schedule entry", lambda v: Schedule((10, v))),
    "Explicit": ("schedule entry", lambda v: Explicit([10, v])),
    "cost_curve": ("schedule entry", lambda v: cost_curve([10, v], 1.0, 1.0, 2.0, TRAIN_ONLY)),
    "marginal": ("schedule entry", lambda v: marginal(1.0, [10, v], 1.0, 2.0)),
    "select_batch.n_t": ("n_t", lambda v: select_batch(*_SELECT_PAIR, v, 1000, np.random.default_rng(0))),
    "select_batch.cap": ("cap", lambda v: select_batch(*_SELECT_PAIR, 10, v, np.random.default_rng(0))),
    "optimal_reward": ("d", lambda v: optimal_reward(v, 1.0, 2.0)),
    "gaussian_nll": ("d", lambda v: GaussianNll(1.0, 2.0, v)),
    "continuous_optimum": ("T", lambda v: continuous_optimum(21, v, 1.0, 2.0)),
    "brute_force_optimal": ("T", lambda v: brute_force_optimal(21, v, 1.0, 2.0)),
    "continuous_optimum.C": ("C", lambda v: continuous_optimum(v, 3, 1.0, 2.0)),
    "optimal_schedule.C": ("C", lambda v: optimal_schedule(v, 3, 1.0, 2.0)),
    "brute_force_optimal.C": ("C", lambda v: brute_force_optimal(v, 3, 1.0, 2.0)),
    "variance_floor": ("n0", lambda v: variance_floor(v, 1.0, 2.0)),
    "monte_carlo": ("workers", lambda v: monte_carlo(run_config(), 2, workers=v)),
    "monte_carlo.runs": ("runs", lambda v: monte_carlo(run_config(), v)),
}


@pytest.mark.parametrize("entry", sorted(_COUNT_CALLS))
@pytest.mark.parametrize("value", [12.5, 0, -3, True, 10.0, np.bool_(True), np.float64(2.0), np.int64(0)])
def test_every_count_must_be_an_integer_of_at_least_one(entry, value):
    # max_draws_per_iter = 12.5 used to pass and then fail in numpy's
    # reduction of a zero-size array; variance_floor(2.5, 1, 2) read 0.48;
    # optimal_schedule(21.5, 3, 1, 2) summed to 21, brute_force_optimal
    # and monte_carlo(cfg, 3.0) raised TypeError; cost_curve and marginal
    # ran True as the count 1 and 10.0 as 10; select_batch raised a bare
    # TypeError for n_t = True or 10.0 and took cap = 1000.5.
    name, call = _COUNT_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {re.escape(repr(value))}$"):
        call(value)


_SCHEDULE_CALLS = {
    "Schedule": lambda ns: Schedule(tuple(ns)),
    "Explicit": Explicit,
    "cost_curve": lambda ns: cost_curve(ns, 1.0, 1.0, 2.0, TRAIN_ONLY),
    "marginal": lambda ns: marginal(1.0, ns, 1.0, 2.0),
}


@pytest.mark.parametrize("entry", sorted(_SCHEDULE_CALLS))
def test_every_schedule_must_have_an_iteration(entry):
    # cost_curve([]) used to return empty curves, where marginal raised.
    with pytest.raises(ValueError, match="^Schedule must have at least one iteration$"):
        _SCHEDULE_CALLS[entry]([])


@pytest.mark.parametrize("kind", [np.int64, np.uint8])
def test_a_numpy_integer_count_reads_as_the_python_int(kind):
    # optimal_schedule(np.int64(21), 3, 1, 2) and Schedule((np.int64(3),))
    # used to be rejected, while cost_curve and marginal took numpy counts.
    assert optimal_schedule(kind(21), kind(3), 1.0, 2.0) == optimal_schedule(21, 3, 1.0, 2.0)
    assert continuous_optimum(kind(21), kind(3), 1.0, 2.0).tolist() == continuous_optimum(21, 3, 1.0, 2.0).tolist()
    assert brute_force_optimal(kind(21), kind(3), 1.0, 2.0) == brute_force_optimal(21, 3, 1.0, 2.0)
    assert variance_floor(kind(10), 1.0, 2.0) == variance_floor(10, 1.0, 2.0)
    assert optimal_reward(kind(3), 1.0, 2.0) == optimal_reward(3, 1.0, 2.0)
    assert type(GaussianNll(1.0, 2.0, kind(3)).d) is int
    schedule = Schedule((kind(10), kind(3)))
    assert schedule == Schedule((10, 3)) and [type(v) for v in schedule.n] == [int, int]
    assert Explicit([kind(10), kind(3)]) == Explicit([10, 3])
    assert cost_curve([kind(10), kind(3)], 1.0, 1.0, 2.0, TRAIN_ONLY).schedule.n == (10, 3)
    law, want = marginal(1.0, [kind(10), kind(3)], 1.0, 2.0), marginal(1.0, [10, 3], 1.0, 2.0)
    assert law.mu.tolist() == want.mu.tolist() and law.sigma2_T == want.sigma2_T
    got = select_batch(*_SELECT_PAIR, kind(5), kind(200), np.random.default_rng(0))
    assert got[1] == select_batch(*_SELECT_PAIR, 5, 200, np.random.default_rng(0))[1]
    spec = Constant(kind(4))
    assert type(spec.n0) is int and materialize(spec, kind(2)) == Schedule((4, 4))
    cfg = run_config(max_draws_per_iter=kind(200), eval_samples=kind(50))
    assert type(cfg.max_draws_per_iter) is int and type(cfg.eval_samples) is int
    got, want = monte_carlo(run_config(), kind(3), workers=kind(1)), monte_carlo(run_config(), 3)
    assert got.mean_gap.tolist() == want.mean_gap.tolist() and got.runs_completed == 3


# Each positive real an entry point takes, besides the variances that
# test_analytic.py and test_gaussian.py cover.
_POSITIVE_CALLS = {
    "eta": lambda v: run_config(eta=v),
    "h": lambda v: check_gradient(GaussianNll(1.0, 2.0, 1), np.array([0.0]), np.array([1.0]), h=v),
}


@pytest.mark.parametrize("name", sorted(_POSITIVE_CALLS))
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_every_positive_real_must_be_finite_and_positive(name, value):
    # check_gradient used to compute with h = nan and h = inf.
    with pytest.raises(ValueError, match=f"^{name} must be a positive finite real, got {value!r}$"):
        _POSITIVE_CALLS[name](value)


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**64, 2**64 + 5])
def test_a_seed_must_be_an_integer_in_64_bits(seed):
    # seed = 1.5 and True used to run exactly as seed 1, -1 as 2**64 - 1,
    # and 2**64 + 5 as 5.
    with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, 2\*\*64\), got {seed!r}$"):
        run_config(seed=seed)


@pytest.mark.parametrize("traces", [1.5, -1, True])
def test_a_trace_count_must_be_an_integer_of_at_least_zero(traces):
    # traces = 1.5 used to raise TypeError from a slice; -1 read as 0.
    with pytest.raises(ValueError, match=f"^traces must be an integer >= 0, got {traces!r}$"):
        monte_carlo(run_config(), 2, traces=traces)
