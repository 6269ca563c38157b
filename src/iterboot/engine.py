"""Execution of the bootstrapping loop: reward-filtered selection,
parameter updates, cost accounting, and Monte Carlo aggregation.

One run owns all of its mutable state and is a pure function of its
config (same seed, bit-identical trace). The Monte Carlo layer derives
one seed per run from the master seed with a fixed 64-bit mixing rule,
so aggregates are identical whether runs execute serially or in a
process pool.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import gaussian
from .gdmodel import DivergenceError, GdUpdater, LossModel, gaussian_nll, gd_update
from .policy import CostModel, Schedule

__all__ = [
    "COMPLETED",
    "DIVERGED",
    "DRAW_CAP_HIT",
    "CostModel",
    "RunConfig",
    "IterationRecord",
    "RunTrace",
    "AggregateTrace",
    "DrawCapExceeded",
    "select_batch",
    "run",
    "monte_carlo",
    "mix64",
    "run_seed",
]

COMPLETED = "completed"
DIVERGED = "diverged"
DRAW_CAP_HIT = "draw_cap_hit"

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer; a fixed bijective 64-bit scrambler."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def run_seed(master_seed: int, index: int) -> int:
    """Seed of the ``index``-th Monte Carlo run: master XOR mix64(index)."""
    return (master_seed & _MASK64) ^ mix64(index)


class DrawCapExceeded(RuntimeError):
    """Selection hit the per-iteration draw cap before filling the batch."""

    def __init__(self, drawn: int, accepted: int, needed: int) -> None:
        super().__init__(
            f"draw cap hit: {accepted}/{needed} acceptances after {drawn} draws"
        )
        self.drawn = drawn
        self.accepted = accepted
        self.needed = needed


@dataclass(frozen=True)
class IterationRecord:
    """State after one iteration: counts, parameter, reward, cost."""

    t: int
    n_t: int
    N_t: int
    theta_after: np.ndarray
    expected_reward_after: float
    cum_cost: float


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration records of one run plus its termination status."""

    records: tuple[IterationRecord, ...]
    seed: int
    status: str
    clipped_rewards: int = 0

    @property
    def final_theta(self) -> np.ndarray:
        if not self.records:
            raise ValueError("trace has no completed iterations")
        return self.records[-1].theta_after


@dataclass(frozen=True)
class AggregateTrace:
    """Per-iteration mean/standard-error curves over completed runs."""

    T: np.ndarray
    n: tuple[int, ...]
    mean_gap: np.ndarray
    se_gap: np.ndarray
    mean_reward: np.ndarray
    se_reward: np.ndarray
    mean_cum_cost: np.ndarray
    se_cum_cost: np.ndarray
    mean_N: np.ndarray
    se_N: np.ndarray
    runs_completed: int
    runs_diverged: int
    runs_draw_capped: int
    r_star: float


@dataclass
class RunConfig:
    """Everything one run needs. With ``loss_model`` unset the generator
    is the Gaussian/exponential-reward pair (:func:`gaussian_nll`) built
    from ``sigma2``, ``kappa2`` and ``theta0``; a custom
    :class:`LossModel` supplies its own sampling/reward. Every run is
    updated by gradient descent with step ``eta``; ``eta = None`` means
    eta = sigma2, which for the Gaussian pair is exactly the MLE mean
    update. A custom loss model needs ``eta`` or ``sigma2``.

    ``max_draws_per_iter`` bounds generation per iteration (default
    1000 * n_t); ``divergence_cap`` bounds ||theta|| before a run is
    flagged diverged; ``eval_samples`` sizes the held-out Monte Carlo
    reward estimate used when no closed form is available (those draws
    are not billed to the cost ledger).
    """

    theta0: np.ndarray
    schedule: Schedule
    cost: CostModel
    seed: int
    sigma2: float | None = None
    kappa2: float | None = None
    eta: float | None = None
    loss_model: LossModel | None = None
    r_star: float | None = None
    max_draws_per_iter: int | None = None
    divergence_cap: float = 1e6
    eval_samples: int = 10_000

    def __post_init__(self) -> None:
        self.theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=np.float64))
        if not np.all(np.isfinite(self.theta0)):
            raise ValueError("theta0 must be finite")
        if self.loss_model is None:
            if self.sigma2 is None or self.kappa2 is None:
                raise ValueError("sigma2 and kappa2 are required without a loss_model")
        elif self.eta is None and self.sigma2 is None:
            raise ValueError("eta or sigma2 is required for a custom loss model")
        if self.max_draws_per_iter is not None:
            biggest = max(self.schedule.n)
            if self.max_draws_per_iter < biggest:
                raise ValueError(
                    f"max_draws_per_iter={self.max_draws_per_iter} is below the "
                    f"largest schedule entry {biggest}"
                )
        if self.eval_samples < 1:
            raise ValueError("eval_samples must be >= 1")

    @property
    def d(self) -> int:
        return self.theta0.size

    def resolve_r_star(self) -> float:
        if self.r_star is not None:
            return self.r_star
        if self.sigma2 is None or self.kappa2 is None:
            raise ValueError("r_star must be supplied for a custom loss model")
        return gaussian.optimal_reward(self.d, self.sigma2, self.kappa2)


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


def select_batch(
    model: gaussian.GaussianModel,
    reward_model: gaussian.ExpReward,
    n_t: int,
    cap: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Selection step for the Gaussian pair: draw from the model,
    accept each sample with probability equal to its reward, stop at
    exactly n_t acceptances. Returns the accepted batch and the number
    of draws consumed; raises :class:`DrawCapExceeded` if the cap would
    be exhausted first."""
    D, N_t, _ = _select(
        lambda k: gaussian.sample(model, rng, k),
        lambda x: gaussian.reward(reward_model, x),
        n_t,
        cap,
        rng,
    )
    return D, N_t


def run(cfg: RunConfig) -> RunTrace:
    """Execute the full loop over cfg.schedule. Deterministic given the
    seed; divergence and draw-cap terminations yield flagged partial
    traces rather than exceptions."""
    rng = np.random.default_rng(cfg.seed)
    theta = cfg.theta0.copy()
    lm = cfg.loss_model
    if lm is None:
        lm = gaussian_nll(cfg.sigma2, cfg.kappa2, cfg.d)
    # MLE is the Gaussian NLL gradient step with eta = sigma2.
    updater = GdUpdater(cfg.eta if cfg.eta is not None else cfg.sigma2)
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
            theta = gd_update(theta, D, lm, updater)
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
) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    trace = run(replace(cfg, seed=seed))
    reward = np.array([rec.expected_reward_after for rec in trace.records])
    cost = np.array([rec.cum_cost for rec in trace.records])
    draws = np.array([float(rec.N_t) for rec in trace.records])
    return trace.status, reward, cost, draws


def _worker(args: tuple[RunConfig, int]) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    return _run_arrays(*args)


def monte_carlo(cfg: RunConfig, runs: int, workers: int = 1) -> AggregateTrace:
    """Aggregate ``runs`` independent runs seeded by
    run_seed(cfg.seed, i). Diverged / draw-capped runs are excluded from
    the statistics and reported in the counts. Requires at least two
    completed runs. ``workers > 1`` executes runs in a process pool;
    results are reduced in run-index order either way, so the aggregate
    does not depend on the execution mode.
    """
    if runs < 2:
        raise ValueError(f"monte_carlo needs runs >= 2, got {runs}")
    seeds = [run_seed(cfg.seed, i) for i in range(runs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(_worker, [(cfg, s) for s in seeds], chunksize=max(1, runs // (4 * workers)))
            )
    else:
        results = [_run_arrays(cfg, s) for s in seeds]

    T = len(cfg.schedule.n)
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

    return AggregateTrace(
        T=np.arange(1, T + 1),
        n=cfg.schedule.n,
        mean_gap=gap.mean(axis=0),
        se_gap=_se(gap),
        mean_reward=reward.mean(axis=0),
        se_reward=_se(reward),
        mean_cum_cost=cost.mean(axis=0),
        se_cum_cost=_se(cost),
        mean_N=draws.mean(axis=0),
        se_N=_se(draws),
        runs_completed=m,
        runs_diverged=diverged,
        runs_draw_capped=capped,
        r_star=r_star,
    )
