"""Self-tests of the benchmark's closed forms (oracle.py).

    PYTHONPATH=src python3 perfbench/selftest_oracles.py
    PYTHONPATH=src python3 -m pytest -q perfbench/selftest_oracles.py

Kept outside ``tests/`` so the repository's own suite does not collect it.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from iterboot import analytic, engine, gaussian, policy  # noqa: E402


def test_gd_law_at_eta_sigma2_is_cost_curve():
    """With eta = sigma2 the GD law is the MLE law of analytic.cost_curve."""
    for sigma2, kappa2, theta0 in ((1.0, 2.0, [1.0, 1.0]), (0.5, 3.0, [2.0, -1.0, 0.3])):
        ns = policy.materialize(policy.Exponential(10, 0.5), 12).n
        laws = oracle.gd_law(theta0, ns, sigma2, kappa2, eta=sigma2)
        ev = analytic.cost_curve(ns, theta0, sigma2, kappa2, engine.CostModel(0.0, 1.0))
        r_star = oracle.optimal_reward(len(theta0), sigma2, kappa2)
        assert math.isclose(r_star, ev.r_star, rel_tol=1e-14)
        for t, (mu, v) in enumerate(laws[1:]):
            assert np.allclose(mu, ev.mu[t], rtol=1e-13, atol=0.0)
            assert math.isclose(v, ev.sigma2_T[t], rel_tol=1e-12)
            gap = r_star - oracle.mean_reward(mu, v, sigma2, kappa2)
            assert math.isclose(gap, ev.gap[t], rel_tol=1e-11)


def test_draws_moments_match_monte_carlo():
    """E[N_t] and Var[N_t] in closed form against a direct simulation:
    theta ~ N(mu, v I), then draws counted until n rewards accept."""
    rng = np.random.default_rng(20250810)
    sigma2, kappa2, n = 1.0, 0.8, 5
    mu, v = [0.4, -0.3, 0.2, 0.1], 0.05
    d = len(mu)
    m = 200_000
    theta = np.asarray(mu) + math.sqrt(v) * rng.standard_normal((m, d))
    s = sigma2 + kappa2
    p = (1.0 + sigma2 / kappa2) ** (-d / 2.0) * np.exp(-(theta**2).sum(axis=1) / (2.0 * s))
    draws = n + rng.negative_binomial(n, p)
    mean, var = oracle.draws_moments(n, mu, v, sigma2, kappa2)
    se = math.sqrt(var / m)
    assert abs(draws.mean() - mean) < 4.0 * se, (draws.mean(), mean, se)
    assert math.isclose(draws.var(ddof=1), var, rel_tol=0.05), (draws.var(ddof=1), var)


def test_draws_moments_match_engine_selection():
    """E[N_0] against iterboot's own rejection step at a fixed theta."""
    sigma2, kappa2, theta0 = 1.0, 0.8, np.full(8, 0.5)
    n, reps = 20, 2000
    model = gaussian.GaussianModel(theta0, sigma2)
    reward = gaussian.ExpReward(kappa2)
    rng = np.random.default_rng(7)
    draws = np.array([engine.select_batch(model, reward, n, 1000 * n, rng)[1] for _ in range(reps)])
    mean, var = oracle.draws_moments(n, list(theta0), 0.0, sigma2, kappa2)
    assert abs(draws.mean() - mean) < 4.0 * math.sqrt(var / reps), (draws.mean(), mean)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
