"""Frozen reference: the one-run-at-a-time selection, run loop and Monte
Carlo reduction that ``iterboot.engine`` executed before runs moved in
lockstep blocks, kept verbatim so tests can demand bit-for-bit equality
with it. Not imported by the package."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from iterboot.engine import (
    COMPLETED,
    DIVERGED,
    DRAW_CAP_HIT,
    DrawCapExceeded,
    IterationRecord,
    MonteCarloTrace,
    RunConfig,
    RunTrace,
    run_seed,
)
from iterboot.gaussian import GaussianNll
from iterboot.gdmodel import DivergenceError, LossModel, gd_update


def _select(
    sample_fn: Callable[[int], np.ndarray],
    reward_fn: Callable[[np.ndarray], np.ndarray],
    n_t: int,
    cap: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, int]:
    """Accept/reject until n_t acceptances; returns (D, N_t, n_clipped).

    Draws are vectorized in adaptive chunks, but N_t counts draws only
    up to the one that produced the n_t-th acceptance, so cap semantics
    match the one-sample-at-a-time loop exactly.
    """
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    if cap < n_t:
        raise ValueError(f"cap={cap} cannot be below n_t={n_t}")
    parts: list[np.ndarray] = []
    need = n_t
    drawn = 0
    accepted = 0
    clipped = 0
    chunk = min(cap, max(32, math.ceil(1.25 * n_t)))
    while True:
        x = sample_fn(chunk)
        if x.ndim == 1:
            x = x.reshape(chunk, -1)
        r = np.asarray(reward_fn(x), dtype=np.float64)
        bad = (r < 0.0) | (r > 1.0)
        if bad.any():
            clipped += int(bad.sum())
            r = np.clip(r, 0.0, 1.0)
        hits = np.flatnonzero(rng.random(chunk) < r)
        if hits.size >= need:
            stop = int(hits[need - 1])
            parts.append(x[hits[:need]])
            drawn += stop + 1
            return np.concatenate(parts, axis=0), drawn, clipped
        parts.append(x[hits])
        drawn += chunk
        need -= hits.size
        accepted += hits.size
        if drawn >= cap:
            raise DrawCapExceeded(drawn=drawn, accepted=accepted, needed=n_t)
        rate = max(accepted / drawn, 0.02)
        chunk = min(cap - drawn, max(32, math.ceil(1.4 * need / rate)))


def run(cfg: RunConfig) -> RunTrace:
    """Execute the full loop over cfg.schedule. Deterministic given the
    seed; divergence and draw-cap terminations yield flagged partial
    traces rather than exceptions."""
    rng = np.random.default_rng(cfg.seed)
    theta = cfg.theta0.copy()
    lm = cfg.loss_model
    if lm is None:
        lm = GaussianNll(cfg.sigma2, cfg.kappa2, cfg.theta0.size)
    # MLE is the Gaussian NLL gradient step with eta = sigma2.
    eta = cfg.eta if cfg.eta is not None else cfg.sigma2
    closed = getattr(lm, "expected_reward", None)
    sample_fn = lambda k: lm.sample(theta, rng, k)  # noqa: E731  (reads the current theta)

    records: list[IterationRecord] = []
    status = COMPLETED
    clipped_total = 0
    cum_cost = 0.0
    for t, n_t in enumerate(cfg.schedule.n):
        cap = cfg.max_draws_per_iter if cfg.max_draws_per_iter is not None else 1000 * n_t
        try:
            D, N_t, clipped = _select(sample_fn, lm.reward, n_t, cap, rng)
        except DrawCapExceeded:
            status = DRAW_CAP_HIT
            break
        clipped_total += clipped
        try:
            theta = gd_update(theta, D, lm, eta)
        except DivergenceError:
            status = DIVERGED
            break
        if float(np.linalg.norm(theta)) > cfg.divergence_cap:
            status = DIVERGED
            break
        cum_cost += cfg.cost.c_g * N_t + cfg.cost.c_t * n_t
        reward = closed(theta) if closed is not None else _mc_expected_reward(lm, theta, cfg, t)
        records.append(
            IterationRecord(
                t=t,
                n_t=n_t,
                N_t=N_t,
                theta_after=theta.copy(),
                expected_reward_after=float(reward),
                cum_cost=cum_cost,
            )
        )
    return RunTrace(
        records=tuple(records),
        seed=cfg.seed,
        status=status,
        clipped_rewards=clipped_total,
    )


def _mc_expected_reward(lm: LossModel, theta: np.ndarray, cfg: RunConfig, t: int) -> float:
    # Held-out estimate on its own per-iteration stream; not billed to
    # the cost ledger.
    eval_rng = np.random.default_rng(run_seed(cfg.seed, 0x45564C00 + t))
    x = lm.sample(theta, eval_rng, cfg.eval_samples)
    return float(np.mean(np.clip(lm.reward(x), 0.0, 1.0)))


def _run_arrays(
    cfg: RunConfig, seed: int
) -> tuple[str, np.ndarray, np.ndarray, np.ndarray, int]:
    trace = run(replace(cfg, seed=seed))
    reward = np.array([rec.expected_reward_after for rec in trace.records])
    cost = np.array([rec.cum_cost for rec in trace.records])
    draws = np.array([float(rec.N_t) for rec in trace.records])
    return trace.status, reward, cost, draws, trace.clipped_rewards


def monte_carlo(cfg: RunConfig, runs: int) -> MonteCarloTrace:
    """The serial Monte Carlo reduction over :func:`run`."""
    if runs < 2:
        raise ValueError(f"monte_carlo needs runs >= 2, got {runs}")
    seeds = [run_seed(cfg.seed, i) for i in range(runs)]
    results = [_run_arrays(cfg, s) for s in seeds]

    completed = [r for r in results if r[0] == COMPLETED]
    diverged = sum(1 for r in results if r[0] == DIVERGED)
    capped = sum(1 for r in results if r[0] == DRAW_CAP_HIT)
    if len(completed) == 0:
        raise RuntimeError("all Monte Carlo runs failed")
    if len(completed) < 2:
        raise RuntimeError(
            f"only {len(completed)} completed run(s); need >= 2 for standard errors"
        )
    m = len(completed)
    reward = np.stack([r[1] for r in completed])
    cost = np.stack([r[2] for r in completed])
    draws = np.stack([r[3] for r in completed])
    r_star = cfg.resolve_r_star()
    gap = r_star - reward

    def _se(a: np.ndarray) -> np.ndarray:
        return a.std(axis=0, ddof=1) / math.sqrt(m)

    return MonteCarloTrace(
        schedule=cfg.schedule,
        mean_gap=gap.mean(axis=0),
        se_gap=_se(gap),
        mean_cum_cost=cost.mean(axis=0),
        se_cum_cost=_se(cost),
        mean_N=draws.mean(axis=0),
        se_N=_se(draws),
        runs_completed=m,
        runs_diverged=diverged,
        runs_draw_capped=capped,
        r_star=r_star,
        clipped_rewards=sum(r[4] for r in results),
        traces=(),
    )
