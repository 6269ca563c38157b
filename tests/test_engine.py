"""Selection step, run execution, determinism, Monte Carlo aggregation."""

import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import reference_engine as ref
from iterboot import engine, gaussian
from iterboot.analytic import marginal
from iterboot.csvio import run_trace_csv_text
from iterboot.engine import (
    COMPLETED,
    DIVERGED,
    DRAW_CAP_HIT,
    CostModel,
    DrawCapExceeded,
    RunConfig,
    mix64,
    monte_carlo,
    run,
    run_seed,
    select_batch,
)
from iterboot.gaussian import (
    ExpReward,
    GaussianModel,
    GaussianNll,
    expected_reward,
    mle_update,
    post_selection_params,
)
from iterboot.policy import Exponential, Schedule, materialize


def toy_config(schedule, seed=42, theta0=(1.0, 1.0), **kw):
    return RunConfig(
        theta0=np.array(theta0, dtype=float),
        schedule=schedule,
        cost=CostModel(0.0, 1.0),
        seed=seed,
        sigma2=1.0,
        kappa2=2.0,
        **kw,
    )


def low_accept_config(schedule, seed):
    # The low_accept benchmark workload's model: acceptance near 2 % at theta0.
    return RunConfig(
        theta0=np.full(8, 0.5),
        schedule=schedule,
        cost=CostModel(1.0, 0.0),
        seed=seed,
        sigma2=1.0,
        kappa2=0.8,
    )


class TestCostModel:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            CostModel(0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel(-1.0, 1.0)

    @pytest.mark.parametrize("c_g, c_t", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf)])
    def test_rejects_a_coefficient_that_is_not_finite(self, c_g, c_t):
        with pytest.raises(ValueError, match="^cost coefficients must be finite"):
            CostModel(c_g, c_t)

    def test_bill_prices_generated_and_selected_samples(self):
        assert CostModel(0.5, 2.0).bill(10, 3) == 11.0
        assert CostModel(0.5, 2.0).bill(np.array([10, 4]), 3).tolist() == [11.0, 8.0]


class TestSeedSplitting:
    def test_mix64_is_stable(self):
        assert mix64(0) == mix64(0)
        assert mix64(1) != mix64(2)

    def test_run_seeds_distinct(self):
        seeds = {run_seed(12345, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    @staticmethod
    def assert_default_rng(gens, seeds):
        assert len(gens) == len(seeds)
        for gen, seed in zip(gens, seeds):
            want = np.random.default_rng(seed)
            assert gen.bit_generator.state == want.bit_generator.state, seed
            assert gen.random(3).tobytes() == want.random(3).tobytes(), seed
            assert gen.standard_normal(5).tobytes() == want.standard_normal(5).tobytes(), seed

    def test_batched_generators_are_default_rng(self):
        # A block's seeds are hashed at once, one row of words per seed.
        seeds = self.EDGE_SEEDS + [run_seed(987654321, i) for i in range(1000)]
        self.assert_default_rng(engine._generators(seeds), seeds)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_lone_generator_is_default_rng(self, seed):
        self.assert_default_rng(engine._generators([seed]), [seed])

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        for seeds in ([seed], [seed] + list(range(20))):
            with pytest.raises(ValueError, match="2\\*\\*64"):
                engine._generators(seeds)
        with pytest.raises(ValueError):
            run(toy_config(Schedule((5,)), seed=seed))

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy loads numpy.random on first use; a pooled command's main
        # process never uses it, so it should not pay for importing it.
        code = "import sys, iterboot.cli; assert 'numpy.random' not in sys.modules"
        src = str(Path(engine.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestSelectBatch:
    def test_reward_one_accepts_every_draw(self):
        # kappa2 -> infinity limit: reward == 1 up to rounding near x = 0
        rng = np.random.default_rng(1)
        m = GaussianModel(np.zeros(1), 1e-6)
        D, N = select_batch(m, ExpReward(1e9), 50, 5000, rng)
        assert N == 50
        assert D.shape == (50, 1)

    def test_draw_count_negative_binomial_moments(self):
        # N_t draws to reach n_t acceptances: mean n/r, variance n(1-r)/r^2
        rng = np.random.default_rng(7)
        m = GaussianModel(np.array([1.0, 1.0]), 1.0)
        rw = ExpReward(2.0)
        r = expected_reward(m, rw)
        n_t, trials = 100, 1000
        draws = np.array(
            [select_batch(m, rw, n_t, 100_000, rng)[1] for _ in range(trials)], dtype=float
        )
        mean_want = n_t / r
        var_want = n_t * (1 - r) / r**2
        assert abs(mean_want - 209.4) < 0.1
        assert abs(draws.mean() - mean_want) < 3 * math.sqrt(var_want / trials)
        m4 = np.mean((draws - draws.mean()) ** 4)
        se_var = math.sqrt(max(m4 - var_want**2, 0.0) / trials)
        assert abs(draws.var(ddof=1) - var_want) < 5 * se_var

    def test_capped_chunks_keep_the_negative_binomial_law(self, monkeypatch):
        # Acceptance near 3 %: uncapped, the chunks after the first would
        # be about 1.4 * need / rate rows, over 800; the cap allows 64.
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 64 * 2 * 8)
        chunks = []
        draw = engine._draw

        def spy(sel, runs, rngs, sample, reward_fn):
            chunks.extend(sel.chunk[runs].tolist())
            return draw(sel, runs, rngs, sample, reward_fn)

        monkeypatch.setattr(engine, "_draw", spy)
        n_t, runs = 20, 4000
        cfg = RunConfig(
            theta0=np.array([1.5, 1.5]),
            schedule=Schedule((n_t,)),
            cost=CostModel(1.0, 0.0),
            seed=7,
            sigma2=1.0,
            kappa2=0.25,
        )
        seeds = [run_seed(cfg.seed, i) for i in range(runs)]
        blocks = [engine._run_block(cfg, seeds[i : i + 16]) for i in range(0, runs, 16)]
        assert max(chunks) == 64 and chunks.count(64) > runs
        failures = np.concatenate([b.N[:, 0] for b in blocks]).astype(float) - n_t
        # Failures before the n_t-th acceptance: NegBin(n_t, p).
        p = expected_reward(GaussianModel(cfg.theta0, 1.0), ExpReward(0.25))
        assert 0.03 < p < 0.04
        mean_want = n_t * (1 - p) / p
        var_want = n_t * (1 - p) / p**2
        m4_want = var_want**2 * (3 + 6 / n_t + p**2 / (n_t * (1 - p)))
        assert abs(failures.mean() - mean_want) < 4 * math.sqrt(var_want / runs)
        assert abs(failures.var(ddof=1) - var_want) < 4 * math.sqrt((m4_want - var_want**2) / runs)

    def test_chunks_at_the_real_cap_keep_the_one_step_law(self, monkeypatch):
        # The low-acceptance model (d = 8, acceptance near 2 %): after a
        # first chunk of 500 rows, 1.4 * need / rate is about 24 000 rows,
        # past the cap of _CHUNK_BYTES of rows.
        d, n_t, runs = 8, 400, 320
        most = engine._CHUNK_BYTES // (8 * d)
        chunks = []
        draw = engine._draw

        def spy(sel, runs, rngs, sample, reward_fn):
            chunks.extend(sel.chunk[runs].tolist())
            return draw(sel, runs, rngs, sample, reward_fn)

        monkeypatch.setattr(engine, "_draw", spy)
        cfg = low_accept_config(Schedule((n_t,)), seed=2103)
        seeds = [run_seed(cfg.seed, i) for i in range(runs)]
        blocks = [engine._run_block(cfg, seeds[i : i + 16]) for i in range(0, runs, 16)]
        assert max(chunks) == most and chunks.count(most) > runs / 2
        p = expected_reward(GaussianModel(cfg.theta0, 1.0), ExpReward(0.8))
        assert 0.02 < p < 0.03
        # Failures before the n_t-th acceptance: NegBin(n_t, p).
        failures = np.concatenate([b.N[:, 0] for b in blocks]).astype(float) - n_t
        mean_want = n_t * (1 - p) / p
        var_want = n_t * (1 - p) / p**2
        m4_want = var_want**2 * (3 + 6 / n_t + p**2 / (n_t * (1 - p)))
        assert abs(failures.mean() - mean_want) < 4 * math.sqrt(var_want / runs)
        assert abs(failures.var(ddof=1) - var_want) < 4 * math.sqrt((m4_want - var_want**2) / runs)
        # theta_1 is the mean of n_t draws of the post-selection law
        # N(theta0 / (1+rho), sigma2 / (1+rho) I): each coordinate has mean
        # theta0 / (1+rho) and variance sigma2 / ((1+rho) n_t).
        rho = 1.0 / 0.8
        theta1 = np.concatenate([b.theta[:, 0] for b in blocks])
        var_want = 1.0 / ((1 + rho) * n_t)
        mean_err = np.abs(theta1.mean(axis=0) - 0.5 / (1 + rho))
        var_err = np.abs(theta1.var(axis=0, ddof=1) - var_want)
        assert (mean_err < 4 * math.sqrt(var_want / runs)).all(), mean_err
        assert (var_err < 4 * var_want * math.sqrt(2 / (runs - 1))).all(), var_err

    def test_a_block_holds_its_batch_and_a_few_chunks_at_most(self):
        # A chunk's rows take at most _CHUNK_BYTES, 1 MiB; its uniforms,
        # rewards and accepted rows take less. So a block's selection
        # peaks below its batch buffer plus three such chunks, however low
        # its acceptance rate. With 16 MiB chunks this block peaked near
        # 14 MB.
        d, n_t, runs = 8, 2560, 4
        cfg = low_accept_config(Schedule((n_t,)), seed=2104)
        seeds = [run_seed(cfg.seed, i) for i in range(runs)]
        engine._run_block(cfg, seeds[:1])  # numpy.random loads on first use
        tracemalloc.start()
        try:
            engine._run_block(cfg, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch = n_t * runs * d * 8
        assert peak < batch + 3 * (1 << 20), peak

    def test_a_block_holds_one_batch_at_a_time(self, monkeypatch):
        # Each selection's batch is freed once the block has updated from
        # it, before the next selection allocates its own.
        alive = []
        buffer = engine._batch_buffer

        def spy(n_t, runs, d):
            assert all(ref() is None for ref in alive), f"batch {len(alive) + 1} beside an older one"
            batch = buffer(n_t, runs, d)
            alive.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(engine, "_batch_buffer", spy)
        cfg = low_accept_config(Schedule((640, 1280, 2560)), seed=2105)
        block = engine._run_block(cfg, [run_seed(cfg.seed, i) for i in range(4)])
        assert block.status == [COMPLETED] * 4
        assert len(alive) == 3

    @staticmethod
    def spy_batches(monkeypatch, events):
        buffer = engine._batch_buffer

        def spy(*args):
            events.append("batch")
            return buffer(*args)

        monkeypatch.setattr(engine, "_batch_buffer", spy)

    def test_lone_selection_allocates_its_batch_before_its_first_chunk(self, monkeypatch):
        # The batch outlives the chunk buffers, so it comes first (see
        # _Draws); a lone selection keeps the block's order.
        events = []
        self.spy_batches(monkeypatch, events)
        m, rng = GaussianModel(np.array([1.0, 1.0]), 1.0), np.random.default_rng(4)

        def sample(k):
            events.append("sample")
            return gaussian.sample(m, rng, k)

        engine._select(sample, lambda x: gaussian.reward(ExpReward(0.5), x), 300, 10**5, 2, rng)
        assert events[:2] == ["batch", "sample"] and events.count("sample") > 1

    def test_block_allocates_each_batch_before_its_first_chunk(self, monkeypatch):
        events = []
        self.spy_batches(monkeypatch, events)
        sample_into = GaussianNll.sample_into

        def spy(*args):
            events.append("sample")
            return sample_into(*args)

        monkeypatch.setattr(GaussianNll, "sample_into", spy)
        cfg = low_accept_config(Schedule((40, 80, 160)), seed=2106)
        block = engine._run_block(cfg, [run_seed(cfg.seed, i) for i in range(4)])
        assert block.status == [COMPLETED] * 4
        # Each iteration: its batch, then all of its selection's chunks.
        runs = [e for i, e in enumerate(events) if i == 0 or events[i - 1] != e]
        assert runs == ["batch", "sample"] * 3 and events.count("sample") > 3

    def test_accepted_samples_follow_post_selection_law(self):
        rng = np.random.default_rng(3)
        m = GaussianModel(np.array([1.0]), 1.0)
        rw = ExpReward(2.0)
        pools = [select_batch(m, rw, 5000, 10**6, rng)[0] for _ in range(4)]
        pool = np.concatenate(pools)[:, 0]
        mean, var = post_selection_params(m.theta, m.sigma2, rw.kappa2)
        se = math.sqrt(var / pool.size)
        assert abs(pool.mean() - mean[0]) < 4 * se

    def test_draw_cap_exceeded(self):
        rng = np.random.default_rng(5)
        m = GaussianModel(np.array([50.0]), 1.0)  # reward ~ exp(-625) ~ 0
        with pytest.raises(DrawCapExceeded):
            select_batch(m, ExpReward(2.0), 10, 500, rng)

    def test_cap_below_batch_rejected(self):
        rng = np.random.default_rng(5)
        m = GaussianModel(np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            select_batch(m, ExpReward(2.0), 10, 5, rng)

    @pytest.mark.parametrize("scatter_runs", [1, 10**9])
    @pytest.mark.parametrize("group_rows", [8192, 100])
    def test_both_row_copies_equal_reference_runs(self, monkeypatch, scatter_runs, group_rows):
        # A group's accepted rows reach the batch by one scatter in a group
        # of many runs, else by a slice copy per run; force each on every
        # group, d = 1's batch layout included.
        from test_lockstep import CASES, RUNS, assert_same_run

        monkeypatch.setattr(engine, "_SCATTER_RUNS", scatter_runs)
        monkeypatch.setattr(engine, "_GROUP_ROWS", group_rows)
        for name, cfg in sorted(CASES.items()):
            seeds = [run_seed(cfg.seed, i) for i in range(RUNS)]
            block = engine._run_block(cfg, seeds)
            for i, seed in enumerate(seeds):
                assert_same_run(engine._trace(cfg, block, i), ref.run(replace(cfg, seed=seed)))


class TestRun:
    def test_one_step_law(self):
        # theta^(1) ~ N(theta0/1.5, (1/15) I_2); a draw sits within 5 sigma
        cfg = toy_config(Schedule((10,)))
        trace = run(cfg)
        assert trace.status == COMPLETED
        theta1 = trace.records[0].theta_after
        assert np.all(np.abs(theta1 - 2.0 / 3.0) < 5 * math.sqrt(1.0 / 15.0))

    def test_training_only_cost_is_total_selected(self):
        cfg = toy_config(Schedule((10, 15, 22)))
        trace = run(cfg)
        assert trace.records[-1].cum_cost == 47.0

    def test_generation_cost_uses_draw_counts(self):
        cfg = replace(toy_config(Schedule((10, 15))), cost=CostModel(1.0, 0.0))
        trace = run(cfg)
        assert trace.records[-1].cum_cost == float(sum(r.N_t for r in trace.records))

    def test_same_seed_same_bytes(self):
        cfg = toy_config(Schedule((10, 15, 22)), seed=42)
        a = run_trace_csv_text(run(cfg))
        b = run_trace_csv_text(run(cfg))
        assert a == b

    def test_different_seed_differs(self):
        base = toy_config(Schedule((10, 15, 22)))
        assert run_trace_csv_text(run(base)) != run_trace_csv_text(
            run(replace(base, seed=43))
        )

    def test_records_are_consistent(self):
        cfg = toy_config(materialize(Exponential(10, 0.5), 8))
        trace = run(cfg)
        costs = [r.cum_cost for r in trace.records]
        assert all(b >= a for a, b in zip(costs, costs[1:]))
        assert all(r.N_t >= r.n_t for r in trace.records)
        assert [r.n_t for r in trace.records] == list(cfg.schedule.n)

    def test_draw_cap_hit_flagging(self):
        cfg = toy_config(Schedule((10, 10)), theta0=(80.0,), max_draws_per_iter=200)
        trace = run(cfg)
        assert trace.status == DRAW_CAP_HIT
        assert len(trace.records) == 0

    def test_max_draws_must_cover_largest_batch(self):
        with pytest.raises(ValueError):
            toy_config(Schedule((10, 500)), max_draws_per_iter=100)

    @pytest.mark.parametrize("r_star", [math.nan, math.inf, -math.inf])
    def test_r_star_must_be_finite(self, r_star):
        # A nan r_star would make every mean gap nan without an error.
        with pytest.raises(ValueError, match="r_star must be finite"):
            RunConfig(
                theta0=np.array([0.0]),
                schedule=Schedule((10,)),
                cost=CostModel(0.0, 1.0),
                seed=42,
                eta=1.0,
                loss_model=ExplodingModel(),
                r_star=r_star,
            )

    def test_gd_equals_mle_trajectory_bitwise(self):
        sched = materialize(Exponential(10, 0.5), 10)
        mle = run(toy_config(sched, seed=99))
        gd = run(toy_config(sched, seed=99, eta=1.0))
        assert mle.status == gd.status == COMPLETED
        for a, b in zip(mle.records, gd.records):
            assert np.array_equal(a.theta_after, b.theta_after)
            assert a.N_t == b.N_t

    def test_mle_run_matches_gaussian_reference_bitwise(self):
        # The run loop (GD at eta = sigma2 on the Gaussian NLL) replays
        # selection and MLE updates written with the gaussian module.
        sched = materialize(Exponential(10, 0.5), 8)
        theta = np.array([1.0, -0.5])
        cfg = RunConfig(
            theta0=theta, schedule=sched, cost=CostModel(0.0, 1.0), seed=7, sigma2=2.5, kappa2=1.5
        )
        trace = run(cfg)
        assert trace.status == COMPLETED
        rng = np.random.default_rng(7)
        rw = ExpReward(1.5)
        for rec, n_t in zip(trace.records, sched.n, strict=True):
            D, N_t = select_batch(GaussianModel(theta, 2.5), rw, n_t, 1000 * n_t, rng)
            theta = mle_update(D)
            assert rec.N_t == N_t
            assert np.array_equal(rec.theta_after, theta)
            assert rec.expected_reward_after == expected_reward(GaussianModel(theta, 2.5), rw)

    def test_gd_with_other_eta_differs(self):
        sched = materialize(Exponential(10, 0.5), 6)
        mle = run(toy_config(sched, seed=99))
        gd = run(toy_config(sched, seed=99, eta=0.5))
        assert not np.array_equal(mle.records[-1].theta_after, gd.records[-1].theta_after)


class ExplodingModel:
    """Reward-one sampler whose gradient blows up once theta moves."""

    def loss(self, x, theta):
        return 0.0

    def grad(self, x, theta):
        return np.full_like(np.asarray(theta, dtype=float), 1e9)

    def sample(self, theta, rng, size=None):
        n = 1 if size is None else size
        out = np.asarray(theta, dtype=float) + rng.standard_normal((n, np.size(theta)))
        return out[0] if size is None else out

    def reward(self, x):
        x = np.asarray(x)
        return np.ones(x.shape[0]) if x.ndim > 1 else 1.0


class TestDivergenceHandling:
    def test_norm_cap_marks_run_diverged(self):
        cfg = RunConfig(
            theta0=np.array([0.0]),
            schedule=Schedule((5, 5, 5)),
            cost=CostModel(0.0, 1.0),
            seed=1,
            eta=1.0,
            loss_model=ExplodingModel(),
            r_star=1.0,
            divergence_cap=1e6,
        )
        trace = run(cfg)
        assert trace.status == DIVERGED
        assert len(trace.records) < 3

    @pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0])
    def test_rejects_a_cap_that_is_not_positive(self, cap):
        with pytest.raises(ValueError, match="^divergence_cap must be positive"):
            toy_config(Schedule((5,)), divergence_cap=cap)

    def test_infinite_cap_means_no_cap(self):
        # The exploding model's theta reaches 3e9, past the default cap.
        cfg = RunConfig(
            theta0=np.array([0.0]),
            schedule=Schedule((5, 5, 5)),
            cost=CostModel(0.0, 1.0),
            seed=1,
            eta=1.0,
            loss_model=ExplodingModel(),
            r_star=1.0,
            divergence_cap=math.inf,
        )
        trace = run(cfg)
        assert trace.status == COMPLETED
        assert len(trace.records) == 3

    def test_custom_model_requires_eta_or_sigma2(self):
        with pytest.raises(ValueError, match="^eta is required with a loss_model$"):
            RunConfig(
                theta0=np.array([0.0]),
                schedule=Schedule((5,)),
                cost=CostModel(0.0, 1.0),
                seed=1,
                loss_model=ExplodingModel(),
            )


class TestMonteCarlo:
    def test_minimum_two_runs(self):
        cfg = toy_config(Schedule((5, 5)))
        agg = monte_carlo(cfg, 2)
        assert agg.runs_completed == 2
        assert agg.se_gap.shape == (2,)
        assert np.all(np.isfinite(agg.se_gap))

    def test_rejects_single_run(self):
        with pytest.raises(ValueError):
            monte_carlo(toy_config(Schedule((5,))), 1)

    def test_one_completed_run_has_no_standard_error(self):
        cfg = toy_config(Schedule((5,)))
        block = engine._run_block(cfg, [run_seed(cfg.seed, i) for i in range(2)])
        block.status[1] = DIVERGED
        with pytest.raises(RuntimeError, match=r"^only 1 completed run\(s\); need >= 2 for standard errors$"):
            engine._reduce(cfg, [block], 0)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            monte_carlo(toy_config(Schedule((5,))), 2, workers=0)

    def test_serial_blocks_follow_the_pooled_rule(self, monkeypatch):
        # One block rule at every width: 200 runs at d = 2 and n_t <= 27
        # may take 2**20 // (8 * 2 * 27) = 2427 runs a block, capped at
        # 200 // 2 = 100.
        sizes = []
        block = engine._run_block

        def counting(cfg, seeds):
            sizes.append(len(seeds))
            return block(cfg, seeds)

        monkeypatch.setattr(engine, "_run_block", counting)
        cfg = toy_config(Schedule((10, 18, 27)), seed=5)
        monte_carlo(cfg, 200, workers=1)
        assert sizes == [100, 100]

    @pytest.mark.parametrize(
        "d, n, runs, most, sizes",
        [
            (8, 2560, 12, 100, [6, 6]),  # 2**20 // (8 * 8 * 2560) = 6
            (2, 2919, 44, 100, [22, 22]),  # 2**20 // (8 * 2 * 2919) = 22
            (2, 27, 800, 400, [400, 400]),  # the budget would allow 2427
            (8, 20_000, 3, 100, [1, 1, 1]),  # one run's batch takes 1.28 MB
        ],
    )
    def test_blocks_take_the_batches_a_mebibyte_holds(self, d, n, runs, most, sizes):
        cfg = toy_config(Schedule((n // 4, n)), theta0=(0.5,) * d)
        _, starts, stops, _ = zip(*engine._block_args(cfg, runs, most, traces=0))
        assert [b - a for a, b in zip(starts, stops)] == sizes
        # The run ranges tile the job in order.
        assert starts == (0,) + stops[:-1] and stops[-1] == runs

    def test_same_master_seed_identical_aggregates(self):
        cfg = toy_config(Schedule((10, 15)), seed=7)
        a = monte_carlo(cfg, 50)
        b = monte_carlo(cfg, 50)
        assert np.array_equal(a.mean_gap, b.mean_gap)
        assert np.array_equal(a.se_gap, b.se_gap)
        assert np.array_equal(a.mean_N, b.mean_N)

    def test_serial_and_parallel_agree_exactly(self):
        cfg = toy_config(Schedule((10, 15)), seed=7)
        serial = monte_carlo(cfg, 40, workers=1)
        parallel = monte_carlo(cfg, 40, workers=2)
        assert np.array_equal(serial.mean_gap, parallel.mean_gap)
        assert np.array_equal(serial.se_gap, parallel.se_gap)
        assert np.array_equal(serial.mean_cum_cost, parallel.mean_cum_cost)

    def test_all_failed_is_an_error(self):
        cfg = toy_config(Schedule((10,)), theta0=(80.0,), max_draws_per_iter=100)
        with pytest.raises(RuntimeError, match="failed"):
            monte_carlo(cfg, 3)

    def test_lemma_one_moments_at_ten_thousand_runs(self):
        cfg = toy_config(Schedule((10, 10)), seed=20240817, theta0=(1.0,))
        runs = 10_000
        seeds = [run_seed(cfg.seed, i) for i in range(runs)]
        # Lockstep blocks give each run what it gives alone, bit for bit.
        blocks = [
            engine._run_block(cfg, seeds[i : i + 16])
            for i in range(0, runs, 16)
        ]
        assert all(s == COMPLETED for b in blocks for s in b.status)
        finals = np.concatenate([b.theta[:, -1, 0] for b in blocks])
        law = marginal(1.0, cfg.schedule, 1.0, 2.0)
        se_mean = math.sqrt(law.sigma2_T / runs)
        assert abs(finals.mean() - law.mu[0]) < 4 * se_mean
        var = law.sigma2_T
        # Gaussian fourth moment: Var(s^2) = 2 var^2 / (n - 1)
        se_var = math.sqrt(2.0 * var**2 / (runs - 1))
        assert abs(finals.var(ddof=1) - var) < 5 * se_var

    def test_mean_final_reward_matches_analytic_oracle(self):
        from iterboot.analytic import expected_final_reward

        sched = materialize(Exponential(10, 0.5), 6)
        cfg = toy_config(sched, seed=11)
        agg = monte_carlo(cfg, 1000)
        want = expected_final_reward(marginal(cfg.theta0, sched, 1.0, 2.0), 1.0, 2.0)
        assert abs(agg.mean_reward[-1] - want) < 4 * agg.se_reward[-1]

    def test_increasing_schedule_converges_constant_stalls(self):
        # Thm-3/Thm-2 probes: an increasing schedule closes most of the
        # initial gap by T=15 while the budget-matched constant one stays
        # above half its analytic floor.
        from iterboot.analytic import (
            MarginalLaw,
            expected_final_reward,
            variance_floor,
        )
        from iterboot.gaussian import optimal_reward
        from iterboot.policy import BudgetConstant, is_increasing

        theta0 = np.array([1.0, 1.0])
        initial_gap = optimal_reward(2, 1.0, 2.0) - expected_reward(
            GaussianModel(theta0, 1.0), ExpReward(2.0)
        )
        increasing = materialize(Exponential(10, 0.5), 15)
        assert is_increasing(increasing)
        agg = monte_carlo(toy_config(increasing, seed=5), 200)
        assert agg.mean_gap[-1] < initial_gap / 5

        constant = materialize(BudgetConstant(10, 0.5), 15)
        agg_c = monte_carlo(toy_config(constant, seed=5), 200)
        floor_gap = optimal_reward(2, 1.0, 2.0) - expected_final_reward(
            MarginalLaw(mu=np.zeros(2), sigma2_T=variance_floor(constant.n[0], 1.0, 2.0)),
            1.0,
            2.0,
        )
        assert agg_c.mean_gap[-1] > floor_gap / 2

    def test_mixed_divergence_is_counted_and_excluded(self):
        class SometimesDiverges(ExplodingModel):
            def grad(self, x, theta):
                # explodes only when the batch mean is above the median
                return (
                    np.full_like(np.asarray(theta, dtype=float), np.inf)
                    if float(np.mean(x)) > 0
                    else np.zeros_like(np.asarray(theta, dtype=float))
                )

        cfg = RunConfig(
            theta0=np.array([0.0]),
            schedule=Schedule((3,)),
            cost=CostModel(0.0, 1.0),
            seed=123,
            eta=1.0,
            loss_model=SometimesDiverges(),
            r_star=1.0,
        )
        agg = monte_carlo(cfg, 40)
        assert agg.runs_completed + agg.runs_diverged == 40
        assert agg.runs_diverged > 0
        assert np.all(np.isfinite(agg.mean_gap))


class TestMonteCarloExtras:
    def test_clipped_rewards_sum_reference_counts(self):
        from test_lockstep import CASES, RUNS

        cfg = CASES["custom_clipped"]
        want = sum(ref.run(replace(cfg, seed=run_seed(cfg.seed, i))).clipped_rewards for i in range(RUNS))
        assert want > 0
        assert monte_carlo(cfg, RUNS).clipped_rewards == want
        assert monte_carlo(cfg, RUNS, workers=2).clipped_rewards == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traces_are_the_first_runs(self, workers):
        # Serial blocks hold 37 // 2 = 18 runs, and with two workers a
        # block holds 37 // (2 * 2) = 9, so the 20 traces span two blocks
        # serially and three pooled.
        cfg = toy_config(Schedule((10, 15, 20)), seed=9)
        agg = monte_carlo(cfg, 37, workers=workers, traces=20)
        assert len(agg.traces) == 20
        for i, got in enumerate(agg.traces):
            want = run(replace(cfg, seed=run_seed(cfg.seed, i)))
            assert (got.seed, got.status) == (want.seed, want.status)
            assert run_trace_csv_text(got) == run_trace_csv_text(want)
        assert monte_carlo(cfg, 37).traces == ()


class TestMonteCarloJobs:
    def test_pooled_jobs_equal_their_serial_aggregates(self):
        from test_lockstep import CASES, RUNS, assert_same_aggregate

        # One queue for jobs of every model and stop kind; its blocks are
        # sized against all 5 * 37 runs.
        jobs = [(cfg, RUNS) for _, cfg in sorted(CASES.items())]
        got = list(engine.monte_carlo_jobs(jobs, workers=2))
        assert len(got) == len(jobs)
        for agg, (cfg, runs) in zip(got, jobs):
            assert_same_aggregate(agg, monte_carlo(cfg, runs))

    def test_pool_is_no_wider_than_the_blocks(self, monkeypatch):
        # 3 runs on 8 workers make three one-run blocks. A pool starts all
        # its workers at the first submit, so 5 of 8 would sit idle.
        from test_lockstep import assert_same_aggregate

        widths = []

        class CountedPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                widths.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountedPool)
        cfg = toy_config(Schedule((5, 10)), seed=6)
        agg = monte_carlo(cfg, 3, workers=8)
        assert widths == [3]
        assert_same_aggregate(agg, monte_carlo(cfg, 3))

    @pytest.mark.parametrize("first_fails", [True, False], ids=["failed_job", "early_close"])
    def test_failed_job_cancels_queued_blocks(self, monkeypatch, first_fails):
        submitted = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=1)

            def submit(self, *args):
                submitted.append(super().submit(*args))
                return submitted[-1]

        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
        first = toy_config(Schedule((5, 5)), seed=3, divergence_cap=1e-9 if first_fails else 1e6)
        later = toy_config(Schedule((10, 20, 40)), seed=4)
        # Blocks of at most 602 // (2 * 2) = 150 runs: one for the first
        # job, then two for each later job.
        jobs = engine.monte_carlo_jobs([(first, 2)] + [(later, 200)] * 3, 2)
        if first_fails:
            with pytest.raises(RuntimeError, match="all Monte Carlo runs failed"):
                next(jobs)
        else:
            assert next(jobs).runs_completed == 2
            jobs.close()
        assert len(submitted) == 7
        assert sum(f.cancelled() for f in submitted) >= 4
        assert all(f.done() for f in submitted)


class TestMissingOptimum:
    """A custom model has no closed-form r*; a Monte Carlo job needs one
    for its gaps and fails before any of its runs, a lone run does not."""

    @staticmethod
    def missing():
        return RunConfig(
            theta0=np.array([0.0]),
            schedule=Schedule((5,)),
            cost=CostModel(0.0, 1.0),
            seed=1,
            eta=1.0,
            loss_model=ExplodingModel(),
        )

    def test_serial_job_runs_no_block(self, monkeypatch):
        run(self.missing())  # a lone run needs no r*
        calls = []
        block = engine._run_block

        def counting(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(engine, "_run_block", counting)
        with pytest.raises(ValueError, match="r_star must be supplied"):
            monte_carlo(self.missing(), 200)
        assert calls == []

    def test_pooled_job_starts_no_pool(self, monkeypatch):
        starts = []

        class CountedPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountedPool)
        with pytest.raises(ValueError, match="r_star must be supplied"):
            monte_carlo(self.missing(), 200, workers=2)
        assert starts == []

    def test_no_job_is_yielded_before_the_failing_one(self):
        got = []
        with pytest.raises(ValueError, match="r_star must be supplied"):
            for agg in engine.monte_carlo_jobs([(toy_config(Schedule((5,))), 2), (self.missing(), 2)]):
                got.append(agg)
        assert got == []


class TestOneWayPerModel:
    """The Gaussian pair comes from sigma2 and kappa2, a custom model from
    loss_model and eta; each way rejects the other's parameters, so r*,
    the variances and eta have one source."""

    @pytest.mark.parametrize("key", ["sigma2", "kappa2"])
    def test_loss_model_rejects_the_pairs_variances(self, key):
        # With them, every gap was taken to the Gaussian r*, not the model's.
        with pytest.raises(ValueError, match="^sigma2 and kappa2 set the Gaussian pair; a loss_model takes neither$"):
            replace(TestMissingOptimum.missing(), r_star=1.0, **{key: 2.0})

    @pytest.mark.parametrize("key", ["sigma2", "kappa2"])
    def test_pair_needs_both_variances(self, key):
        with pytest.raises(ValueError, match="^sigma2 and kappa2 are required without a loss_model$"):
            RunConfig(
                theta0=1.0, schedule=Schedule((5,)), cost=CostModel(0.0, 1.0), seed=0,
                **{"sigma2": 1.0, "kappa2": 2.0, key: None},
            )

    def test_pair_rejects_r_star(self):
        with pytest.raises(ValueError, match="^r_star goes only with a loss_model"):
            toy_config(Schedule((5,)), r_star=0.5)

    def test_pairs_r_star_is_optimal_reward(self):
        agg = monte_carlo(toy_config(Schedule((5,))), 2)
        assert agg.r_star == gaussian.optimal_reward(2, 1.0, 2.0)

    def test_checked_values_cannot_be_reassigned(self):
        # cfg.eta = 0.0 used to pass, and the Gaussian pair's runs then kept theta0.
        cfg = toy_config(Schedule((5,)))
        with pytest.raises(FrozenInstanceError):
            cfg.eta = 0.0

    def test_checked_theta0_cannot_be_written(self):
        # cfg.theta0[:] = np.nan used to pass after construction had checked
        # theta0 finite, and every later run then started from NaN.
        cfg = toy_config(Schedule((5,)))
        with pytest.raises(ValueError, match="read-only"):
            cfg.theta0[:] = np.nan

    def test_bad_eta_job_yields_nothing_and_runs_no_block(self, monkeypatch):
        # A bad eta used to fail inside the second job's first block, after
        # the first job's aggregate had been yielded.
        calls = []
        block = engine._run_block

        def counting(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(engine, "_run_block", counting)
        got = []
        with pytest.raises(ValueError, match="^eta must be a positive finite real"):
            jobs = [(toy_config(Schedule((5,))), 4), (toy_config(Schedule((5,)), eta=0.0), 4)]
            for agg in engine.monte_carlo_jobs(jobs):
                got.append(agg)
        assert got == [] and calls == []


class TestBlockBatchLayout:
    """The summation order of a batch mean that the block's batch buffer
    relies on. A numpy whose reduction order differs fails here, naming
    its version, before it shows up as a golden mismatch."""

    @staticmethod
    def pairwise(a):
        # numpy's pairwise summation of a contiguous float64 vector.
        n = len(a)
        if n < 8:
            total = np.float64(0.0)
            for v in a:
                total = total + v
            return total
        if n <= 128:
            acc = list(a[:8])
            stop = n - n % 8
            for i in range(8, stop, 8):
                acc = [p + q for p, q in zip(acc, a[i : i + 8])]
            total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
            for v in a[stop:]:
                total = total + v
            return total
        half = n // 2
        half -= half % 8
        return TestBlockBatchLayout.pairwise(a[:half]) + TestBlockBatchLayout.pairwise(a[half:])

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_mean_order_and_block_layout(self, d):
        rng = np.random.default_rng(d)
        version = f"numpy {np.__version__}"
        for n in (1, 7, 8, 10, 100, 129, 1000, 2919):
            runs = 5
            D = [rng.standard_normal((n, d)) * 3.0 + 0.5 for _ in range(runs)]
            for rows in D:
                alone = rows.mean(axis=0)
                if d == 1:
                    want = self.pairwise(rows[:, 0]) / n
                    assert alone[0] == want, f"{version}: d = 1 batch mean is not pairwise (n = {n})"
                else:
                    total = rows[0].copy()
                    for row in rows[1:]:
                        total += row
                    want = total / n
                    assert alone.tobytes() == want.tobytes(), (
                        f"{version}: d = {d} batch mean is not sequential over rows (n = {n})"
                    )
            batch = engine._batch_buffer(n, runs, d)
            for i, rows in enumerate(D):
                batch[:, i] = rows
            stacked = batch.mean(axis=0)
            for i, rows in enumerate(D):
                assert stacked[i].tobytes() == rows.mean(axis=0).tobytes(), (
                    f"{version}: the block layout changes run {i}'s batch mean (d = {d}, n = {n})"
                )
