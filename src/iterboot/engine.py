"""Execution of the bootstrapping loop: reward-filtered selection,
parameter updates, cost accounting, and Monte Carlo aggregation.

One run owns all of its mutable state and is a pure function of its
config (same seed, bit-identical trace). The Monte Carlo layer derives
one seed per run from the master seed with a fixed 64-bit mixing rule,
so aggregates are identical whether runs execute serially or in a
process pool. Runs execute in lockstep blocks that share each selection
step's reward evaluation; every run keeps its own generator and draws
exactly what it would draw alone, so neither the block size nor the
grouping changes any output.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Iterator

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


# Selection draws in adaptive chunks: the first is 1.25 * n_t rows (at
# least 32), later ones 1.4 * need / rate with the observed acceptance
# rate floored at 0.02.
#
# Runs move through each iteration in lockstep blocks of _BLOCK_RUNS. In
# every draw round a block's pending runs are split, in order, into groups
# whose chunks sum to at most _GROUP_ROWS rows; each run samples its chunk
# and then its uniforms from its own generator, and the group shares one
# reward call and one acceptance test. A run's stream, chunk sizes and
# outputs do not depend on which runs share its groups.
_BLOCK_RUNS = 16
_GROUP_ROWS = 8192


class _Selection:
    """One run's accept/reject state within one iteration. ``sample(k)``
    draws k rows, then ``rng`` draws their k acceptance uniforms.

    N_t (``drawn``) counts draws only up to the one that produced the
    n_t-th acceptance, so cap semantics match the one-sample-at-a-time
    loop exactly. On success ``batch`` holds the n_t accepted rows; on a
    draw-cap hit the selection ends with ``batch`` None."""

    __slots__ = (
        "sample", "rng", "owner", "n_t", "cap", "need", "drawn",
        "accepted", "clipped", "parts", "chunk", "batch",
    )

    def __init__(
        self,
        sample: Callable[[int], np.ndarray],
        rng: np.random.Generator,
        n_t: int,
        cap: int,
        owner: _Run | None = None,
    ) -> None:
        if n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {n_t}")
        if cap < n_t:
            raise ValueError(f"cap={cap} cannot be below n_t={n_t}")
        self.sample = sample
        self.rng = rng
        self.owner = owner
        self.n_t = n_t
        self.cap = cap
        self.need = n_t
        self.drawn = 0
        self.accepted = 0
        self.clipped = 0
        self.parts: list[np.ndarray] | None = []
        self.chunk = min(cap, max(32, math.ceil(1.25 * n_t)))
        self.batch: np.ndarray | None = None

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        """The next chunk's rows and their acceptance uniforms."""
        x = self.sample(self.chunk)
        if x.ndim == 1:
            x = x.reshape(self.chunk, -1)
        return x, self.rng.random(self.chunk)

    def take(self, x: np.ndarray, hits: np.ndarray, start: int) -> bool:
        """Account this run's chunk, rows ``start:start+chunk`` of ``x``
        with accepted row indices ``hits``; True once the selection ended."""
        need = self.need
        if hits.size >= need:
            self.parts.append(x[hits[:need]])
            self.drawn += int(hits[need - 1]) - start + 1
            self.batch = np.concatenate(self.parts, axis=0)
            self.parts = None
            return True
        self.parts.append(x[hits])
        self.drawn += self.chunk
        self.need -= hits.size
        self.accepted += hits.size
        if self.drawn >= self.cap:
            self.parts = None
            return True
        rate = max(self.accepted / self.drawn, 0.02)
        self.chunk = min(self.cap - self.drawn, max(32, math.ceil(1.4 * self.need / rate)))
        return False


def _groups(pending: list[_Selection]) -> Iterator[list[_Selection]]:
    """Consecutive groups of at most _GROUP_ROWS rows; a chunk larger than
    that is a group of its own."""
    group: list[_Selection] = []
    rows = 0
    for s in pending:
        if group and rows + s.chunk > _GROUP_ROWS:
            yield group
            group, rows = [], 0
        group.append(s)
        rows += s.chunk
    if group:
        yield group


def _draw_group(
    group: list[_Selection], reward_fn: Callable[[np.ndarray], np.ndarray]
) -> list[_Selection]:
    """Draw one chunk for every selection of ``group`` and accept each row
    with probability equal to its reward (clipped to [0, 1]); returns
    the selections that ended. The group's buffers are released on return."""
    if len(group) == 1:
        x, u = group[0].draw()
        bounds = [0, group[0].chunk]
    else:
        draws = [s.draw() for s in group]
        x = np.concatenate([d[0] for d in draws])
        u = np.concatenate([d[1] for d in draws])
        del draws
        bounds = list(accumulate((s.chunk for s in group), initial=0))
    r = np.asarray(reward_fn(x), dtype=np.float64)
    bad = (r < 0.0) | (r > 1.0)
    if bad.any():
        cuts = _cuts(np.flatnonzero(bad), bounds)
        for s, lo, hi in zip(group, cuts, cuts[1:]):
            s.clipped += hi - lo
        r = np.clip(r, 0.0, 1.0)
    hits = np.flatnonzero(u < r)
    cuts = _cuts(hits, bounds)
    return [
        s
        for s, lo, hi, start in zip(group, cuts, cuts[1:], bounds)
        if s.take(x, hits[lo:hi], start)
    ]


def _cuts(idx: np.ndarray, bounds: list[int]) -> list[int]:
    """Where each run's rows start in the sorted row indices ``idx``, and
    where the last run's end."""
    return [0, idx.size] if len(bounds) == 2 else idx.searchsorted(bounds).tolist()


def _select(
    sample_fn: Callable[[int], np.ndarray],
    reward_fn: Callable[[np.ndarray], np.ndarray],
    n_t: int,
    cap: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, int]:
    """Accept/reject until n_t acceptances; returns (D, N_t, n_clipped).
    The one-run case of the block selection; raises
    :class:`DrawCapExceeded` if the cap would be exhausted first."""
    s = _Selection(sample_fn, rng, n_t, cap)
    while not _draw_group([s], reward_fn):
        pass
    if s.batch is None:
        raise DrawCapExceeded(drawn=s.drawn, accepted=s.accepted, needed=n_t)
    return s.batch, s.drawn, s.clipped


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


class _Run:
    """Mutable state and per-iteration outputs of one run of a block."""

    __slots__ = ("seed", "rng", "theta", "status", "clipped", "cum_cost", "N", "theta_after", "reward", "cost")

    def __init__(self, seed: int, theta0: np.ndarray) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.theta = theta0.copy()
        self.status = COMPLETED
        self.clipped = 0
        self.cum_cost = 0.0
        self.N: list[int] = []
        self.theta_after: list[np.ndarray] = []
        self.reward: list[float] = []
        self.cost: list[float] = []


def _run_block(cfg: RunConfig, seeds: list[int]) -> list[_Run]:
    """Run one seed per run over cfg.schedule, all runs in lockstep.
    Each run is what a run alone with that seed would be, bit for bit;
    divergence and draw-cap terminations flag the run and stop it."""
    lm = cfg.loss_model
    if lm is None:
        lm = gaussian_nll(cfg.sigma2, cfg.kappa2, cfg.d)
    # MLE is the Gaussian NLL gradient step with eta = sigma2.
    updater = GdUpdater(cfg.eta if cfg.eta is not None else cfg.sigma2)
    closed = getattr(lm, "expected_reward", None)
    runs = [_Run(seed, cfg.theta0) for seed in seeds]
    active = runs
    for t, n_t in enumerate(cfg.schedule.n):
        cap = cfg.max_draws_per_iter if cfg.max_draws_per_iter is not None else 1000 * n_t
        pending = [_Selection(partial(lm.sample, r.theta, r.rng), r.rng, n_t, cap, r) for r in active]
        while pending:
            for group in _groups(pending):
                # A run updates as soon as its batch fills.
                for s in _draw_group(group, lm.reward):
                    _finish_iteration(s, cfg, t, lm, updater, closed)
            pending = [s for s in pending if s.parts is not None]
        active = [r for r in active if r.status == COMPLETED]
    return runs


def _finish_iteration(
    s: _Selection,
    cfg: RunConfig,
    t: int,
    lm: LossModel,
    updater: GdUpdater,
    closed: Callable[[np.ndarray], float] | None,
) -> None:
    """Update the run that owns the ended selection ``s``, or flag it."""
    r = s.owner
    if s.batch is None:
        r.status = DRAW_CAP_HIT
        return
    r.clipped += s.clipped
    D, s.batch = s.batch, None  # the run holds its accepted rows only until here
    try:
        theta = gd_update(r.theta, D, lm, updater)
    except DivergenceError:
        r.status = DIVERGED
        return
    if float(np.linalg.norm(theta)) > cfg.divergence_cap:
        r.status = DIVERGED
        return
    r.theta = theta
    r.cum_cost += cfg.cost.c_g * s.drawn + cfg.cost.c_t * s.n_t
    reward = closed(theta) if closed is not None else _mc_expected_reward(lm, theta, cfg, r.seed, t)
    r.N.append(s.drawn)
    r.theta_after.append(theta.copy())
    r.reward.append(float(reward))
    r.cost.append(r.cum_cost)


def run(cfg: RunConfig) -> RunTrace:
    """Execute the full loop over cfg.schedule. Deterministic given the
    seed; divergence and draw-cap terminations yield flagged partial
    traces rather than exceptions."""
    (r,) = _run_block(cfg, [cfg.seed])
    records = tuple(
        IterationRecord(
            t=t, n_t=n_t, N_t=N_t, theta_after=theta, expected_reward_after=reward, cum_cost=cost
        )
        for t, n_t, N_t, theta, reward, cost in zip(
            range(len(r.N)), cfg.schedule.n, r.N, r.theta_after, r.reward, r.cost
        )
    )
    return RunTrace(records=records, seed=cfg.seed, status=r.status, clipped_rewards=r.clipped)


def _mc_expected_reward(
    lm: LossModel, theta: np.ndarray, cfg: RunConfig, seed: int, t: int
) -> float:
    # Held-out estimate on its own per-iteration stream; not billed to
    # the cost ledger.
    eval_rng = np.random.default_rng(run_seed(seed, 0x45564C00 + t))
    x = lm.sample(theta, eval_rng, cfg.eval_samples)
    return float(np.mean(np.clip(lm.reward(x), 0.0, 1.0)))


def _block_worker(
    args: tuple[RunConfig, list[int]],
) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    """(status, expected reward, cumulative cost, N_t as floats) per run."""
    return [
        (r.status, np.array(r.reward), np.array(r.cost), np.array(r.N, dtype=np.float64))
        for r in _run_block(*args)
    ]


def monte_carlo(
    cfg: RunConfig,
    runs: int,
    workers: int = 1,
    executor: Executor | None = None,
) -> AggregateTrace:
    """Aggregate ``runs`` independent runs seeded by
    run_seed(cfg.seed, i). Diverged / draw-capped runs are excluded from
    the statistics and reported in the counts. Requires at least two
    completed runs. Runs execute in lockstep blocks; ``workers > 1``
    spreads the blocks over a process pool, ``executor`` when one is
    given (``workers`` is then its width), else a pool started for this
    call. Results are reduced in run-index order either way, so the
    aggregate does not depend on the execution mode.
    """
    if runs < 2:
        raise ValueError(f"monte_carlo needs runs >= 2, got {runs}")
    if executor is None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return monte_carlo(cfg, runs, workers, pool)
    seeds = [run_seed(cfg.seed, i) for i in range(runs)]
    # A pool gets about four blocks per worker or more, to keep its workers evenly loaded.
    size = _BLOCK_RUNS if executor is None else min(_BLOCK_RUNS, max(1, runs // (4 * workers)))
    tasks = [(cfg, seeds[i : i + size]) for i in range(0, runs, size)]
    blocks = map(_block_worker, tasks) if executor is None else executor.map(_block_worker, tasks)
    results = [r for block in blocks for r in block]

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
