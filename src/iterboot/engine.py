"""Execution of the bootstrapping loop: reward-filtered selection,
parameter updates, cost accounting, and Monte Carlo aggregation.

A run is a pure function of its config (same seed, bit-identical
trace). The Monte Carlo layer derives one seed per run from the master
seed with a fixed 64-bit mixing rule, so aggregates are identical
whether runs execute serially or in a process pool. Runs execute in
lockstep blocks that share each selection step's reward evaluation and
keep their thetas and records in block-wide arrays; every run keeps its
own generator and draws exactly what it would draw alone, so neither
the block size nor the grouping changes any output. A command's Monte
Carlo jobs go to :func:`monte_carlo_jobs` together: with a pool, which
it starts and shuts down, every block of every job is queued before the
first job is reduced, so the workers never wait for the caller between
jobs.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator

import numpy as np

from . import gaussian
from .gdmodel import DivergenceError, LossModel, gd_update
from .policy import CostModel, Schedule, check_positive, check_positive_int

__all__ = [
    "COMPLETED",
    "DIVERGED",
    "DRAW_CAP_HIT",
    "CostModel",
    "RunConfig",
    "IterationRecord",
    "RunTrace",
    "MonteCarloTrace",
    "DrawCapExceeded",
    "select_batch",
    "run",
    "monte_carlo",
    "monte_carlo_jobs",
    "mix64",
    "check_seed",
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


def check_seed(name: str, seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` is an int in [0, 2**64), the
    seeds :func:`run_seed` maps one to one, and not a bool."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")


def run_seed(master_seed: int, index: int) -> int:
    """Seed of the ``index``-th Monte Carlo run: master XOR mix64(index),
    for a master seed in [0, 2**64)."""
    return master_seed ^ mix64(index)


# np.random.default_rng(seed) seeds its PCG64 with the four 64-bit words
# of SeedSequence(seed).generate_state(4, np.uint64). For a seed below
# 2**64 its entropy is the seed's low and high 32-bit words, and the
# hash below is SeedSequence's (numpy/random/bit_generator.pyx) on that
# entropy, run on uint64 arrays of words below 2**32, one entry per seed.
_M32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(h: int, mult: int, n: int) -> list[int]:
    out = [h]
    for _ in range(n):
        h = h * mult & _M32
        out.append(h)
    return out


_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # pool mixing
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # state generation


def _hashmix(v, i: int, consts: list[int]):
    v = (v ^ consts[i]) * consts[i + 1] & _M32
    return v ^ v >> 16


def _state_words(lo, hi) -> list:
    """SeedSequence's four uint64 state words from entropy words lo, hi."""
    pool = [_hashmix(v, i, _HASH_A) for i, v in enumerate((lo, hi, 0, 0))]
    i = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                v = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], i, _HASH_A) & _M32
                pool[dst] = v ^ v >> 16
                i += 1
    s = [_hashmix(pool[j % 4], j, _HASH_B) for j in range(8)]
    return [s[j] | s[j + 1] << 32 for j in range(0, 8, 2)]


def _generators(seeds: list[int]) -> np.ndarray:
    """An object array of one generator per seed, each in the state
    ``np.random.default_rng(seed)`` gives it; the seeds are hashed into
    PCG64 seed words at once. Seeds must lie in [0, 2**64), the range of
    :func:`run_seed`."""
    if seeds and not (0 <= min(seeds) and max(seeds) <= _MASK64):
        raise ValueError(f"seeds must lie in [0, 2**64), got {min(seeds)}..{max(seeds)}")
    s = np.array(seeds, dtype=np.uint64)
    words = np.stack(_state_words(s & _M32, s >> 32), axis=1)
    make = _pcg64_generator()
    return np.array([make(w) for w in words], dtype=object)


@functools.cache
def _pcg64_generator() -> Callable[[np.ndarray], np.random.Generator]:
    # numpy.random loads on first use, so only a process that runs
    # selections pays for importing it. Its bit_generator imports secrets,
    # whose hmac would load OpenSSL (3.4 MB of libcrypto) through _hashlib.
    # Unless the process has loaded _hashlib already, it is hidden for this
    # import, so hmac and hashlib fall back to the stdlib's own code; the
    # hashlib and hmac loaded that way are dropped afterwards, so a later
    # import gets OpenSSL's. This saves memory only: no generator hashes,
    # so every stream is bit for bit what it was.
    hide = "_hashlib" not in sys.modules
    if hide:
        fallback = [name for name in ("hashlib", "hmac") if name not in sys.modules]
        sys.modules["_hashlib"] = None
    try:
        from numpy.random import PCG64, Generator
        from numpy.random.bit_generator import ISeedSequence
    finally:
        if hide:
            for name in ("_hashlib", *fallback):
                sys.modules.pop(name, None)

    class Words(ISeedSequence):
        """A seed sequence that hands PCG64 its precomputed state words."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds exactly PCG64's four uint64 seed words")
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


class DrawCapExceeded(RuntimeError):
    """Selection hit the per-iteration draw cap before filling the batch."""

    def __init__(self, drawn: int, accepted: int, needed: int) -> None:
        super().__init__(
            f"draw cap hit: {accepted}/{needed} acceptances after {drawn} draws"
        )
        self.drawn = drawn
        self.accepted = accepted
        self.needed = needed


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """State after one iteration: counts, parameter, reward, cost."""

    t: int
    n_t: int
    N_t: int
    theta_after: np.ndarray
    expected_reward_after: float
    cum_cost: float


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Per-iteration records of one run plus its termination status."""

    records: tuple[IterationRecord, ...]
    seed: int
    status: str
    clipped_rewards: int = 0


@dataclass(frozen=True, eq=False)
class MonteCarloTrace:
    """What :func:`monte_carlo` returns: the schedule the job ran; per
    iteration, entry T-1 for T = 1..len(schedule.n), the mean and
    standard error over completed runs of the gap, cumulative cost and
    draw count; the run counts by status; the r* the gaps are taken to,
    so the mean reward is r_star - mean_gap, with SE se_gap; the rewards
    clipped to [0, 1] over all runs (diverged and draw-capped ones
    included); and the full traces of the first runs asked for."""

    schedule: Schedule
    mean_gap: np.ndarray
    se_gap: np.ndarray
    mean_cum_cost: np.ndarray
    se_cum_cost: np.ndarray
    mean_N: np.ndarray
    se_N: np.ndarray
    runs_completed: int
    runs_diverged: int
    runs_draw_capped: int
    r_star: float
    clipped_rewards: int
    traces: tuple[RunTrace, ...]


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything one run needs. Its model comes one of two ways, each
    rejecting the other's parameters: the Gaussian/exponential-reward
    pair (:class:`~iterboot.gaussian.GaussianNll`) from ``sigma2`` and
    ``kappa2``, whose r* is :func:`~iterboot.gaussian.optimal_reward` and
    whose ``eta = None`` means eta = sigma2, the MLE mean update; or a
    custom :class:`LossModel` as ``loss_model``, with ``eta`` and, for
    Monte Carlo gaps, ``r_star``. Every run is updated by gradient descent
    with step ``eta``, a positive finite real. ``seed`` is an int in
    [0, 2**64). Frozen, its theta0 copy read-only, so what construction
    checked holds for every run.

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
        theta0 = gaussian.check_theta("theta0", self.theta0)
        theta0.flags.writeable = False
        object.__setattr__(self, "theta0", theta0)
        check_seed("seed", self.seed)
        if self.loss_model is None:
            if self.sigma2 is None or self.kappa2 is None:
                raise ValueError("sigma2 and kappa2 are required without a loss_model")
            if self.r_star is not None:
                raise ValueError("r_star goes only with a loss_model; the pair's is optimal_reward")
        elif self.sigma2 is not None or self.kappa2 is not None:
            raise ValueError("sigma2 and kappa2 set the Gaussian pair; a loss_model takes neither")
        elif self.eta is None:
            raise ValueError("eta is required with a loss_model")
        elif self.r_star is not None and not math.isfinite(self.r_star):
            raise ValueError(f"r_star must be finite, got {self.r_star!r}")
        if self.eta is not None:
            check_positive("eta", self.eta)
        if self.max_draws_per_iter is not None:
            cap = check_positive_int("max_draws_per_iter", self.max_draws_per_iter)
            object.__setattr__(self, "max_draws_per_iter", cap)
            biggest = max(self.schedule.n)
            if self.max_draws_per_iter < biggest:
                raise ValueError(
                    f"max_draws_per_iter={self.max_draws_per_iter} is below the "
                    f"largest schedule entry {biggest}"
                )
        samples = check_positive_int("eval_samples", self.eval_samples)
        object.__setattr__(self, "eval_samples", samples)
        if not self.divergence_cap > 0:  # nan included; inf means no cap
            raise ValueError(f"divergence_cap must be positive, got {self.divergence_cap!r}")

    def resolve_r_star(self) -> float:
        if self.loss_model is None:
            return gaussian.optimal_reward(self.theta0.size, self.sigma2, self.kappa2)
        if self.r_star is None:
            raise ValueError("r_star must be supplied for a custom loss model")
        return self.r_star


# Selection draws in adaptive chunks: the first is 1.25 * n_t rows (at
# least 32), later ones 1.4 * need / rate with the observed acceptance
# rate floored at 0.02, and at most _CHUNK_BYTES (1 MiB) of rows: 16 384
# rows at d = 8, 65 536 at d = 2. So a low rate cannot blow a chunk up to
# 70 * need rows, a chunk stays small enough for the cache, and few rows
# are drawn past a run's last needed acceptance, where they are thrown
# away. The first chunk is bounded by the batch it fills. A run that
# reaches the cap draws in more, smaller chunks, each rows then
# uniforms, so its stream differs from an uncapped one's; no chunk
# boundary decides an acceptance, so the law of its draws is the same.
#
# Runs move through each iteration in lockstep blocks of as many runs as
# _BATCH_BYTES (1 MiB) holds batches of the largest n_t at their d, at
# most the command's fair share (see _block_args): 6 runs at d = 8 and
# n_t = 2560, 22 at d = 2 and n_t = 2919. A block holds one selection's
# batch at a time, so beside its draw chunks it keeps at most 1 MiB of
# accepted rows, unless one run's batch alone is larger. In every draw
# round a block's pending runs are split, in order, into groups whose
# chunks sum to at most _GROUP_ROWS rows. A group owns one row buffer
# and one uniform buffer: each run fills its slice of both from its own
# generator, rows first. The group shares one reward call and one
# acceptance test, and its accepted rows go to the runs' slots of the
# block's batch buffer in one scatter for a group of at least
# _SCATTER_RUNS runs, where the scatter's fixed cost beats a loop over
# the runs, else in one slice copy per run. The round keeps its runs'
# counts in arrays and updates them all in one pass. A run's stream,
# chunk sizes and outputs do not depend on which runs share its groups.
_BATCH_BYTES = 1 << 20
_GROUP_ROWS = 8192
_CHUNK_BYTES = 1 << 20
_SCATTER_RUNS = 48


class _Draws:
    """The accept/reject state of one iteration's selections, one column
    per run: what each still needs, has drawn, and the size of its next
    chunk, as the rows of ``state`` and as views of them, and how many of
    its rewards were clipped. Run j's accepted rows fill ``batch[:, j]``
    (n_t rows of d floats) in draw order; its selection ends when that
    is full (``need`` 0) or on the draw cap. Until then it has accepted
    n_t - need rows. ``batch`` is a :func:`_batch_buffer`, allocated
    last, before the first round's chunk buffers that it outlives
    (allocated after the first, it raised the peak RSS of d = 8 blocks
    by 0.5 MB); :func:`_run_block` drops it once it has updated from it.

    N_t (``drawn``) counts draws only up to the one that produced the
    n_t-th acceptance, so cap semantics match the one-sample-at-a-time
    loop exactly."""

    def __init__(self, runs: int, n_t: int, cap: int, d: int) -> None:
        if n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {n_t}")
        if cap < n_t:
            raise ValueError(f"cap={cap} cannot be below n_t={n_t}")
        self.n_t = n_t
        self.cap = cap
        self.state = np.zeros((3, runs), dtype=np.int64)
        self.need, self.drawn, self.chunk = self.state
        self.need[:] = n_t
        self.chunk[:] = min(cap, max(32, math.ceil(1.25 * n_t)))
        self.clipped = np.zeros(runs, dtype=np.int64)
        self.batch: np.ndarray | None = _batch_buffer(n_t, runs, d)


# The next chunk of rows of each run of a group, one run after another,
# in one (rows, d) array: (the runs, their generators, their chunk sizes).
_Sample = Callable[[np.ndarray, np.ndarray, list[int]], np.ndarray]


def _draw(
    sel: _Draws,
    runs: np.ndarray,
    rngs: np.ndarray,
    sample: _Sample,
    reward_fn: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """One draw round of the selections ``runs`` of ``sel``, which are
    all pending, with generators ``rngs`` (an object array, one per entry
    of ``sel``); returns the runs still pending after it.

    Each group of consecutive runs whose chunks sum to at most
    _GROUP_ROWS rows (a larger chunk is a group of its own) is sampled
    into one buffer, each run then draws its chunk's uniforms after its
    rows, and a row is accepted with probability equal to its reward,
    clipped to [0, 1]; each run's accepted rows, up to what it needs,
    go to its batch slot. Then one pass over the runs updates their
    counts and next chunk sizes."""
    state = sel.state[:, runs]
    need, drawn, chunk = state
    edges = np.zeros(runs.size + 1, dtype=np.int64)  # where each run's rows start in the round
    np.cumsum(chunk, out=edges[1:])
    ends = edges.tolist()
    # Each run's accepted rows in its chunk, and the row of its chunk that
    # gave its last needed acceptance (read only if it got that far).
    k, stop = np.empty_like(chunk), np.empty_like(chunk)
    a = 0
    while a < runs.size:
        b = max(a + 1, bisect_right(ends, ends[a] + _GROUP_ROWS) - 1)
        base = ends[a]
        grngs = rngs[runs[a:b]]
        x = sample(runs[a:b], grngs, chunk[a:b].tolist())
        u = np.empty(x.shape[0])
        for rng, lo, hi in zip(grngs, ends[a:b], ends[a + 1 : b + 1]):
            rng.random(out=u[lo - base : hi - base])
        r = np.asarray(reward_fn(x), dtype=np.float64)
        bounds = edges[a : b + 1] - base
        if r.min() < 0.0 or r.max() > 1.0:
            out = np.flatnonzero((r < 0.0) | (r > 1.0))
            sel.clipped[runs[a:b]] += np.diff(out.searchsorted(bounds))
            r = np.clip(r, 0.0, 1.0)
        h = np.flatnonzero(u < r)
        cuts = h.searchsorted(bounds)
        first, ng = cuts[:-1], need[a:b]
        k[a:b] = kg = cuts[1:] - first
        _keep(sel.batch, x, h, runs[a:b], sel.n_t - ng, first, np.minimum(kg, ng))
        if h.size:
            stop[a:b] = h.take(first + ng - 1, mode="clip") - bounds[:-1]
        del x, u, r  # before the next group's buffers are allocated
        a = b
    # A run that filled its batch is billed up to its n_t-th acceptance,
    # any other for its whole chunk.
    done = k >= need
    drawn += np.where(done, stop + 1, chunk)
    need -= np.minimum(k, need)
    go = ~done & (drawn < sel.cap)
    if go.any():
        # The next chunk; only the pending runs' is read.
        rate = np.maximum((sel.n_t - need) / drawn, 0.02)
        most = max(1, _CHUNK_BYTES // (8 * sel.batch.shape[2]))
        nxt = np.minimum(np.maximum(np.ceil(1.4 * need / rate), 32), most)
        np.minimum(sel.cap - drawn, nxt, out=chunk, casting="unsafe")
    sel.state[:, runs] = state
    return runs[go]


def _keep(
    batch: np.ndarray,
    x: np.ndarray,
    hits: np.ndarray,
    runs: np.ndarray,
    got: np.ndarray,
    first: np.ndarray,
    take: np.ndarray,
) -> None:
    """Copy the first ``take[i]`` of run ``runs[i]``'s accepted rows of
    ``x``, ``hits[first[i]:]``, to rows ``got[i]:`` of its batch slot."""
    if runs.size >= _SCATTER_RUNS:
        owner = np.repeat(np.arange(runs.size), take)
        rank = np.arange(owner.size) - np.repeat(np.cumsum(take) - take, take)
        # Each row viewed as one item, which numpy moves faster than a row
        # of floats.
        row = np.dtype((np.void, x.itemsize * x.shape[1]))
        src = x.view(row)[hits[first[owner] + rank], 0]
        batch.view(row)[got[owner] + rank, runs[owner], 0] = src
        return
    rows = x.take(hits, axis=0)  # one gather; far faster than x[hits]
    for j, lo, at, n in zip(runs.tolist(), first.tolist(), got.tolist(), take.tolist()):
        batch[at : at + n, j] = rows[lo : lo + n]


def _select(
    sample_fn: Callable[[int], np.ndarray],
    reward_fn: Callable[[np.ndarray], np.ndarray],
    n_t: int,
    cap: int,
    d: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, int]:
    """Accept/reject samples of d floats until n_t acceptances; returns
    (D, N_t, n_clipped). The one-run case of the block selection, batch
    allocated first like a block's; raises :class:`DrawCapExceeded` if
    the cap would be exhausted first."""
    sel = _Draws(1, n_t, cap, d)
    rngs = np.array([rng], dtype=object)
    pending = np.zeros(1, dtype=np.intp)
    sample = lambda runs, rngs, sizes: np.reshape(sample_fn(sizes[0]), (sizes[0], d))  # noqa: E731
    while pending.size:
        pending = _draw(sel, pending, rngs, sample, reward_fn)
    need, drawn, clipped = int(sel.need[0]), int(sel.drawn[0]), int(sel.clipped[0])
    if need:
        raise DrawCapExceeded(drawn=drawn, accepted=n_t - need, needed=n_t)
    return sel.batch[:, 0], drawn, clipped


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
    be exhausted first, and ``ValueError`` unless n_t and cap are
    integers >= 1."""
    D, N_t, _ = _select(
        lambda k: gaussian.sample(model, rng, k),
        lambda x: gaussian.reward(reward_model, x),
        check_positive_int("n_t", n_t),
        check_positive_int("cap", cap),
        model.d,
        rng,
    )
    return D, N_t


@dataclass(eq=False)
class _Block:
    """The runs of one lockstep block, run i in row i: its seed, status,
    clipped-reward count and number of completed iterations, and for each
    completed iteration t its N_t, theta, expected reward and cumulative
    cost in column t. Columns past a run's completed iterations are 0."""

    seeds: list[int]
    status: list[str]
    clipped: np.ndarray  # (B,)
    done: np.ndarray  # (B,)
    N: np.ndarray  # (B, T)
    theta: np.ndarray  # (B, T, d); monte_carlo keeps the traced runs' rows
    reward: np.ndarray  # (B, T)
    cost: np.ndarray  # (B, T)


def _run_block(cfg: RunConfig, seeds: list[int]) -> _Block:
    """Run one seed per run over cfg.schedule, all runs in lockstep.
    Each run is what a run alone with that seed would be, bit for bit;
    divergence and draw-cap terminations flag the run and stop it."""
    lm = cfg.loss_model
    if lm is None:
        lm = gaussian.GaussianNll(cfg.sigma2, cfg.kappa2, cfg.theta0.size)
    # MLE is the Gaussian NLL gradient step with eta = sigma2.
    eta = cfg.eta if cfg.eta is not None else cfg.sigma2
    closed = getattr(lm, "expected_reward", None)
    into = getattr(lm, "sample_into", None)
    B, T, d = len(seeds), len(cfg.schedule.n), cfg.theta0.size
    out = _Block(
        seeds=list(seeds),
        status=[COMPLETED] * B,
        clipped=np.zeros(B, dtype=np.int64),
        done=np.full(B, T),
        N=np.zeros((B, T), dtype=np.int64),
        theta=np.zeros((B, T, d)),
        reward=np.zeros((B, T)),
        cost=np.zeros((B, T)),
    )
    gens = _generators(seeds)
    # The runs still going, with their thetas and cumulative costs.
    live = np.arange(B)
    theta = np.repeat(cfg.theta0[None], B, axis=0)
    cum_cost = np.zeros(B)

    def sample(runs: np.ndarray, rngs: np.ndarray, sizes: list[int]) -> np.ndarray:
        # The rows of live runs ``runs`` at their current thetas.
        x = np.empty((sum(sizes), d))
        if into is not None:
            into(theta[runs], rngs, sizes, x)
            return x
        for th, rng, k, lo in zip(theta[runs], rngs, sizes, accumulate(sizes, initial=0)):
            x[lo : lo + k] = np.reshape(lm.sample(th, rng, k), (k, d))
        return x

    for t, n_t in enumerate(cfg.schedule.n):
        cap = cfg.max_draws_per_iter if cfg.max_draws_per_iter is not None else 1000 * n_t
        sel = _Draws(live.size, n_t, cap, d)
        rngs = gens[live]
        pending = np.arange(live.size)
        while pending.size:
            pending = _draw(sel, pending, rngs, sample, lm.reward)
        need, drawn, clipped = sel.need, sel.drawn, sel.clipped
        filled = need == 0
        # A run's update cannot change another run's draws, so the block
        # updates once its whole selection has ended. Then the batch goes,
        # so the next selection's batch never sits beside it.
        theta, finite = _step(lm, eta, theta, sel.batch, filled)
        sel.batch = None
        # vecdot gives each row theta @ theta bit for bit, so its root is
        # np.linalg.norm(theta).
        ok = filled & finite & ~(np.sqrt(np.vecdot(theta, theta)) > cfg.divergence_cap)
        if clipped.any():
            out.clipped[live[filled]] += clipped[filled]
        if not ok.all():
            for i in live[~filled].tolist():
                out.status[i] = DRAW_CAP_HIT
            for i in live[filled & ~ok].tolist():
                out.status[i] = DIVERGED
            out.done[live[~ok]] = t
            live, theta, drawn, cum_cost = live[ok], theta[ok], drawn[ok], cum_cost[ok]
            if not live.size:
                break
        cum_cost += cfg.cost.bill(drawn, n_t)
        if closed is not None:
            reward = closed(theta)
        else:
            eval_seeds = [run_seed(seeds[i], 0x45564C00 + t) for i in live.tolist()]
            evals = _generators(eval_seeds)
            reward = [_mc_expected_reward(lm, th, cfg, rng) for th, rng in zip(theta, evals)]
        out.N[live, t] = drawn
        out.theta[live, t] = theta
        out.reward[live, t] = reward
        out.cost[live, t] = cum_cost
    return out


def _batch_buffer(n_t: int, runs: int, d: int) -> np.ndarray:
    """An (n_t, runs, d) buffer of zeros for a block's accepted rows, laid
    out so that ``mean(axis=0)`` sums each run's rows in the order that
    run's own (n_t, d) batch would: one row after another for d >= 2, so
    the rows of all runs interleave, and pairwise along the run's
    contiguous rows for d = 1. Zeros, so the unfilled slots of capped
    runs update harmlessly."""
    if d == 1:
        return np.zeros((runs, n_t, 1)).transpose(1, 0, 2)
    return np.zeros((n_t, runs, d))


def _step(
    lm: LossModel,
    eta: float,
    thetas: np.ndarray,
    batch: np.ndarray,
    filled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each run's updated theta, as rows of a fresh array, and where the
    step is finite; ``batch[:, i]`` holds run i's accepted rows where
    ``filled[i]``. A model's ``gd_step`` updates the whole stack at once."""
    step = getattr(lm, "gd_step", None)
    if step is not None:
        new = np.asarray(step(thetas, batch, eta), dtype=np.float64)
        return new, np.isfinite(new).all(axis=1)
    new = thetas.copy()
    finite = filled.copy()
    for i in np.flatnonzero(filled).tolist():
        try:
            new[i] = gd_update(thetas[i], batch[:, i], lm, eta)
        except DivergenceError:
            finite[i] = False
    return new, finite


def _trace(cfg: RunConfig, block: _Block, i: int) -> RunTrace:
    """The trace of run ``i`` of ``block``."""
    k = int(block.done[i])
    records = tuple(
        IterationRecord(
            t=t, n_t=n_t, N_t=N_t, theta_after=theta, expected_reward_after=reward, cum_cost=cost
        )
        for t, n_t, N_t, theta, reward, cost in zip(
            range(k),
            cfg.schedule.n,
            block.N[i, :k].tolist(),
            block.theta[i, :k],
            block.reward[i, :k].tolist(),
            block.cost[i, :k].tolist(),
        )
    )
    return RunTrace(
        records=records,
        seed=block.seeds[i],
        status=block.status[i],
        clipped_rewards=int(block.clipped[i]),
    )


def run(cfg: RunConfig) -> RunTrace:
    """Execute the full loop over cfg.schedule. Deterministic given the
    seed; divergence and draw-cap terminations yield flagged partial
    traces rather than exceptions."""
    return _trace(cfg, _run_block(cfg, [cfg.seed]), 0)


def _mc_expected_reward(
    lm: LossModel, theta: np.ndarray, cfg: RunConfig, eval_rng: np.random.Generator
) -> float:
    # Held-out estimate on its own per-iteration stream, seeded
    # run_seed(seed, 0x45564C00 + t); not billed to the cost ledger.
    x = lm.sample(theta, eval_rng, cfg.eval_samples)
    return float(np.mean(np.clip(lm.reward(x), 0.0, 1.0)))


def _mc_block(cfg: RunConfig, start: int, stop: int, traces: int) -> _Block:
    """Runs ``start`` to ``stop`` of a Monte Carlo job, seeded
    run_seed(cfg.seed, i), as one block that keeps the theta records of
    its first ``traces`` runs only, which are all its traces read."""
    block = _run_block(cfg, [run_seed(cfg.seed, i) for i in range(start, stop)])
    block.theta = block.theta[: max(traces, 0)].copy()
    return block


def monte_carlo(
    cfg: RunConfig,
    runs: int,
    workers: int = 1,
    traces: int = 0,
) -> MonteCarloTrace:
    """Aggregate ``runs`` independent runs seeded by
    run_seed(cfg.seed, i). Diverged / draw-capped runs are excluded from
    the statistics and reported in the counts; the full traces of the
    first ``traces`` runs come back too. Requires at least two
    completed runs. The one-job case of :func:`monte_carlo_jobs`, which
    says how the runs execute: serially, or with ``workers > 1`` on a
    pool at most that wide that lasts for this call. The aggregate does
    not depend on it.
    """
    (agg,) = monte_carlo_jobs([(cfg, runs)], workers, traces)
    return agg


def monte_carlo_jobs(
    jobs: Iterable[tuple[RunConfig, int]],
    workers: int = 1,
    traces: int = 0,
) -> Iterator[MonteCarloTrace]:
    """The :func:`monte_carlo` aggregate of each ``(cfg, runs)`` job, in
    job order, each with the traces of its first ``traces`` runs.

    Runs execute in lockstep blocks, sized by their batch bytes by one
    rule at every width (see :func:`_block_args`). Serially (``workers``
    1) a job's blocks run when its aggregate is asked for. ``workers >
    1`` starts one process pool of that width, or as wide as the jobs
    have blocks if they have fewer, which these jobs own: the blocks of
    every job are queued on it before any result is awaited, so the pool
    stays busy while the caller handles each aggregate as it comes.
    Blocks are reduced in run-index order either way, so no aggregate
    depends on the execution mode. The pool is shut down when the last
    aggregate has been taken, or when a job fails or the caller closes
    the generator early; then the blocks still queued are cancelled and
    the running ones are waited for.
    """
    jobs = [(cfg, check_positive_int("runs", runs)) for cfg, runs in jobs]
    workers = check_positive_int("workers", workers)
    for cfg, runs in jobs:
        if runs < 2:
            raise ValueError(f"monte_carlo needs runs >= 2, got {runs}")
        cfg.resolve_r_star()  # a custom model without r_star fails before any run
    if not isinstance(traces, int) or isinstance(traces, bool) or traces < 0:
        raise ValueError(f"traces must be an integer >= 0, got {traces!r}")
    # The jobs together get about two blocks per worker or more, to keep
    # a pool's workers evenly loaded to the end.
    most = max(1, sum(runs for _, runs in jobs) // (2 * workers))
    blocks = [(cfg, _block_args(cfg, runs, most, traces)) for cfg, runs in jobs]
    if workers == 1:
        for cfg, args in blocks:
            yield _reduce(cfg, [_mc_block(*a) for a in args], traces)
        return
    # A pool starts all its workers at the first submit; more than one a
    # block would sit idle.
    pool = ProcessPoolExecutor(max_workers=min(workers, sum(len(args) for _, args in blocks)))
    try:
        queued = [(cfg, [pool.submit(_mc_block, *a) for a in args]) for cfg, args in blocks]
        for cfg, futures in queued:
            yield _reduce(cfg, [f.result() for f in futures], traces)
            futures.clear()  # the futures hold the job's block arrays
    finally:
        pool.shutdown(cancel_futures=True)


def _block_args(
    cfg: RunConfig, runs: int, most: int, traces: int
) -> list[tuple[RunConfig, int, int, int]]:
    """The :func:`_mc_block` arguments of a job's blocks, each a range of
    run indices. A block takes as many runs as _BATCH_BYTES holds batch
    buffers of the largest n_t rows at the job's d, which spreads its
    array work (and its pool task) over more runs while its one batch
    stays small; at least one run, and never more than ``most``."""
    batch = 8 * cfg.theta0.size * max(cfg.schedule.n)
    size = min(max(1, _BATCH_BYTES // batch), most)
    return [(cfg, i, min(i + size, runs), traces - i) for i in range(0, runs, size)]


def _reduce(cfg: RunConfig, blocks: list[_Block], traces: int) -> MonteCarloTrace:
    """The aggregate of a job's blocks, taken in run-index order, with the
    traces of its first ``traces`` runs."""
    status = [s for b in blocks for s in b.status]
    ok = np.array([s == COMPLETED for s in status])
    m = int(ok.sum())
    if m == 0:
        raise RuntimeError("all Monte Carlo runs failed")
    if m < 2:
        raise RuntimeError(f"only {m} completed run(s); need >= 2 for standard errors")
    # (completed runs, T) and C-ordered, as one row per run stacked, so
    # the reductions below add in the same order as a stack of runs.
    reward = np.concatenate([b.reward for b in blocks])[ok]
    cost = np.concatenate([b.cost for b in blocks])[ok]
    draws = np.concatenate([b.N for b in blocks])[ok].astype(np.float64)
    r_star = cfg.resolve_r_star()
    gap = r_star - reward
    size = len(blocks[0].seeds)

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
        runs_diverged=status.count(DIVERGED),
        runs_draw_capped=status.count(DRAW_CAP_HIT),
        r_star=r_star,
        clipped_rewards=int(sum(b.clipped.sum() for b in blocks)),
        traces=tuple(_trace(cfg, blocks[j // size], j % size) for j in range(min(traces, len(status)))),
    )
