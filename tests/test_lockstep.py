"""Lockstep blocks against the frozen one-run-at-a-time reference.

Every run of a block must be the run the reference executes alone with
the same seed, bit for bit: status, N_t, theta, rewards, costs and
clipped-reward counts. Monte Carlo aggregates must match serially and
in a pool, whatever the block size and the rows per group.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

import reference_engine as ref
from iterboot import engine
from iterboot.engine import (
    COMPLETED,
    DIVERGED,
    DRAW_CAP_HIT,
    CostModel,
    RunConfig,
    monte_carlo,
    run,
    run_seed,
)
from iterboot.policy import BudgetConstant, Exponential, Schedule, materialize

RUNS = 37  # not a multiple of any block size below


class ClippedQuadratic:
    """Gaussian sampling, a reward that leaves [0, 1] on both sides, no
    ``gd_step`` (per-row gradients) and no closed-form expected reward."""

    def loss(self, x, theta):
        diff = np.asarray(x, dtype=float) - theta
        return float(diff @ diff) / 2.0

    def grad(self, x, theta):
        return np.asarray(theta, dtype=float) - np.asarray(x, dtype=float)

    def sample(self, theta, rng, size=None):
        shape = np.size(theta) if size is None else (size, np.size(theta))
        return theta + rng.standard_normal(shape)

    def reward(self, x):
        x = np.asarray(x, dtype=float)
        return 1.2 - 0.3 * np.sum(x * x, axis=-1)


def _cfg(theta0, schedule, **kw):
    kw.setdefault("cost", CostModel(0.0, 1.0))
    return RunConfig(theta0=np.asarray(theta0, dtype=float), schedule=schedule, **kw)


CASES = {
    "d1": _cfg([1.0], materialize(Exponential(10, 0.5), 8), seed=11, sigma2=1.0, kappa2=2.0),
    "d2_gd_eta": _cfg(
        [1.0, -0.5],
        materialize(BudgetConstant(4, 0.3), 8),
        seed=12,
        sigma2=1.0,
        kappa2=1.0,
        eta=0.6,
        cost=CostModel(0.5, 1.0),
    ),
    "d8_low_acceptance": _cfg(
        [0.5] * 8, materialize(Exponential(20, 1.0), 4), seed=13, sigma2=1.0, kappa2=0.8,
        cost=CostModel(1.0, 0.0),
    ),
    # Runs stop mid-iteration on the draw cap or the divergence cap while
    # the rest of their block goes on.
    "d2_capped_and_diverged": _cfg(
        [0.3, 0.3],
        Schedule((5, 8, 8, 8)),
        seed=14,
        sigma2=1.0,
        kappa2=0.5,
        eta=1.9,
        max_draws_per_iter=45,
        divergence_cap=1.0,
    ),
    "custom_clipped": _cfg(
        [0.8, 0.3],
        Schedule((6, 9, 12)),
        seed=15,
        eta=0.5,
        loss_model=ClippedQuadratic(),
        r_star=1.0,
        eval_samples=200,
    ),
}


@pytest.fixture(scope="module")
def reference():
    """Reference traces per case, one per run seed."""
    return {
        name: [ref.run(replace(cfg, seed=run_seed(cfg.seed, i))) for i in range(RUNS)]
        for name, cfg in CASES.items()
    }


def assert_same_run(got: engine.RunTrace, want: ref.RunTrace) -> None:
    assert got.status == want.status
    assert got.clipped_rewards == want.clipped_rewards
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert (a.N_t, a.expected_reward_after, a.cum_cost) == (
            b.N_t, b.expected_reward_after, b.cum_cost
        )
        assert a.theta_after.tobytes() == b.theta_after.tobytes()


def assert_same_aggregate(got, want) -> None:
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_cases_reach_every_status_and_clip(reference):
    stops = {(t.status, len(t.records)) for t in reference["d2_capped_and_diverged"]}
    # Both caps stop runs in more than one iteration.
    assert {(DIVERGED, 0), (DIVERGED, 2), (DRAW_CAP_HIT, 1), (DRAW_CAP_HIT, 3), (COMPLETED, 4)} <= stops
    assert all(t.clipped_rewards > 0 for t in reference["custom_clipped"])


@pytest.mark.parametrize("block_runs, group_rows", [(16, 8192), (5, 100), (RUNS, 1 << 20)])
@pytest.mark.parametrize("name", sorted(CASES))
def test_block_runs_equal_reference_runs(reference, monkeypatch, name, block_runs, group_rows):
    monkeypatch.setattr(engine, "_GROUP_ROWS", group_rows)
    cfg = CASES[name]
    seeds = [run_seed(cfg.seed, i) for i in range(RUNS)]
    blocks = [engine._run_block(cfg, seeds[i : i + block_runs]) for i in range(0, RUNS, block_runs)]
    got = [engine._trace(cfg, b, j) for b in blocks for j in range(len(b.seeds))]
    for g, want in zip(got, reference[name], strict=True):
        assert_same_run(g, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_equals_reference_run(reference, name):
    cfg = CASES[name]
    for i in range(4):
        got = run(replace(cfg, seed=run_seed(cfg.seed, i)))
        want = reference[name][i]
        assert (got.seed, got.status, got.clipped_rewards) == (
            want.seed, want.status, want.clipped_rewards
        )
        assert len(got.records) == len(want.records)
        for a, b in zip(got.records, want.records):
            assert (a.t, a.n_t, a.N_t, a.expected_reward_after, a.cum_cost) == (
                b.t, b.n_t, b.N_t, b.expected_reward_after, b.cum_cost
            )
            assert a.theta_after.tobytes() == b.theta_after.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_monte_carlo_equals_reference(monkeypatch, name):
    cfg = CASES[name]
    want = ref.monte_carlo(cfg, RUNS)
    assert_same_aggregate(monte_carlo(cfg, RUNS), want)
    assert_same_aggregate(monte_carlo(cfg, RUNS, workers=2), want)
    # One-run pooled blocks, each drawing in groups of one run.
    monkeypatch.setattr(engine, "_BATCH_BYTES", 1)
    monkeypatch.setattr(engine, "_GROUP_ROWS", 1)
    assert_same_aggregate(monte_carlo(cfg, RUNS, workers=2), want)


def test_select_is_the_one_run_case():
    model = ClippedQuadratic()
    theta = np.array([0.4, -0.2])
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    for n_t in (1, 40, 500):
        D, N_t, clipped = engine._select(lambda k: model.sample(theta, a, k), model.reward, n_t, 100 * n_t, theta.size, a)
        D0, N0, clipped0 = ref._select(lambda k: model.sample(theta, b, k), model.reward, n_t, 100 * n_t, b)
        assert (N_t, clipped) == (N0, clipped0)
        assert D.tobytes() == D0.tobytes()
    far = theta + 9.0
    with pytest.raises(engine.DrawCapExceeded) as got:
        engine._select(lambda k: model.sample(far, a, k), model.reward, 10, 500, theta.size, a)
    with pytest.raises(engine.DrawCapExceeded) as want:
        ref._select(lambda k: model.sample(far, b, k), model.reward, 10, 500, b)
    assert (got.value.drawn, got.value.accepted) == (want.value.drawn, want.value.accepted)
