"""Micro-probes of single layer calls on the toy model (d = 2, sigma2 = 1,
kappa2 = 2, theta = (1, 1)), each the median over repeated timed batches.
Prints one JSON object of per-layer metrics."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import replace

import numpy as np

from iterboot import analytic, engine, gaussian, policy

SIGMA2, KAPPA2 = 1.0, 2.0
THETA = np.array([1.0, 1.0])


def median_call_s(fn, batch: int, samples: int = 15) -> float:
    """Median over ``samples`` batches of the mean time of one call."""
    fn()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


def main() -> None:
    model = gaussian.GaussianModel(THETA, SIGMA2)
    reward = gaussian.ExpReward(KAPPA2)
    rng = np.random.default_rng(1)
    out = {}
    for n, batch in ((10, 200), (300, 50), (3000, 10)):
        out[f"engine.select.n{n}_us"] = 1e6 * median_call_s(
            lambda: engine.select_batch(model, reward, n, 1000 * n, rng), batch
        )
    seeds = iter(range(10**9))
    cfg = engine.RunConfig(
        theta0=THETA, schedule=policy.materialize(policy.Constant(10), 2),
        cost=engine.CostModel(0.0, 1.0), seed=0, sigma2=SIGMA2, kappa2=KAPPA2,
    )
    out["engine.run.n10x2_us"] = 1e6 * median_call_s(
        lambda: engine.run(replace(cfg, seed=next(seeds))), 50
    )
    toy = policy.materialize(policy.Exponential(10, 0.5), 15)
    cost = engine.CostModel(0.0, 1.0)
    out["analytic.cost_curve.ratio_us"] = 1e6 * median_call_s(
        lambda: analytic.cost_curve(toy, THETA, SIGMA2, KAPPA2, cost), 100
    )
    out["analytic.cost_curve.quadrature_ms"] = 1e3 * median_call_s(
        lambda: analytic.cost_curve(toy, THETA, SIGMA2, KAPPA2, cost, n_t_expectation="quadrature"), 2
    )
    out["analytic.optimal_schedule_us"] = 1e6 * median_call_s(
        lambda: analytic.optimal_schedule(sum(toy.n), 15, SIGMA2, KAPPA2), 100
    )
    out["analytic.brute_force_optimal.c60t4_ms"] = 1e3 * median_call_s(
        lambda: analytic.brute_force_optimal(60, 4, SIGMA2, KAPPA2), 2
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
