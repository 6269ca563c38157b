"""Closed-form law, optimal schedules, brute-force oracle, cost curves."""

import math
from dataclasses import fields

import numpy as np
import pytest

from iterboot.analytic import (
    MarginalLaw,
    brute_force_optimal,
    continuous_optimum,
    cost_curve,
    expected_final_reward,
    marginal,
    optimal_schedule,
    t_star,
    variance_floor,
)
from iterboot.engine import CostModel, RunConfig, monte_carlo
from iterboot.gaussian import GaussianModel, ExpReward, expected_reward
from iterboot.policy import (
    BudgetConstant,
    BudgetLinear,
    Constant,
    Exponential,
    Schedule,
    materialize,
)

TRAIN_ONLY = CostModel(0.0, 1.0)


class TestMarginal:
    def test_single_step(self):
        law = marginal(1.0, [10], 1.0, 2.0)
        assert math.isclose(law.mu[0], 2.0 / 3.0)
        assert math.isclose(law.sigma2_T, 1.0 / 15.0)

    def test_two_steps(self):
        law = marginal(1.0, [10, 10], 1.0, 2.0)
        assert math.isclose(law.mu[0], 1.0 / 2.25)
        assert math.isclose(law.sigma2_T, 1.0 / 33.75 + 1.0 / 15.0)
        assert round(law.sigma2_T, 6) == 0.096296

    def test_zero_start_stays_centered(self):
        law = marginal(np.zeros(3), [5, 7, 9], 1.0, 1.0)
        assert np.array_equal(law.mu, np.zeros(3))

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError, match="^Schedule must have at least one iteration$"):
            marginal(1.0, [], 1.0, 2.0)

    def test_rejects_a_zero_count(self):
        # Used to divide by it and raise a bare ZeroDivisionError.
        with pytest.raises(ValueError, match="^schedule entry must be an integer >= 1, got 0$"):
            marginal(1.0, [0, 10], 1.0, 2.0)

    @pytest.mark.parametrize("theta0", [[math.nan, 1.0], [math.inf]])
    def test_rejects_a_non_finite_theta0(self, theta0):
        # Used to return mu = [nan, 0.444], and for inf a final reward of 0.0.
        with pytest.raises(ValueError, match="theta0 must be finite"):
            marginal(theta0, [10] * len(theta0), 1.0, 2.0)

    def test_mean_norm_contracts(self):
        norms = [
            float(np.linalg.norm(marginal(np.array([1.0, 1.0]), [10] * T, 1.0, 2.0).mu))
            for T in range(1, 8)
        ]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_is_the_cost_curve_row_exactly(self):
        # One step law feeds both, so they agree to the bit, not just to a tolerance.
        ns = (7, 3, 19, 11, 40, 2, 65, 23)
        theta0 = np.array([0.9, -2.3, 1.7])
        for sigma2, kappa2 in ((1.0, 2.0), (0.7, 0.3), (2.9, 1.1)):
            ev = cost_curve(ns, theta0, sigma2, kappa2, TRAIN_ONLY)
            for T in range(1, len(ns) + 1):
                law = marginal(theta0, ns[:T], sigma2, kappa2)
                assert law.sigma2_T == ev.sigma2_T[T - 1]
                assert law.mu.tolist() == ev.mu[T - 1].tolist()

    def test_recursion_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ns = [int(v) for v in rng.integers(1, 400, size=rng.integers(1, 12))]
            sigma2 = float(rng.uniform(0.2, 3.0))
            kappa2 = float(rng.uniform(0.2, 3.0))
            rho = sigma2 / kappa2
            direct = marginal(1.0, ns, sigma2, kappa2).sigma2_T
            acc = 0.0
            for n in ns:
                acc = acc / (1.0 + rho) ** 2 + sigma2 / (n * (1.0 + rho))
            assert math.isclose(direct, acc, rel_tol=1e-12)


class TestExpectedFinalReward:
    def test_law_holds_no_copy_of_d_or_T(self):
        # A d beside mu could disagree with mu.size: d = 2 with a
        # one-coordinate mu read a reward of 0.645 without an error.
        assert [f.name for f in fields(MarginalLaw)] == ["mu", "sigma2_T"]

    def test_noiseless_optimum(self):
        law = MarginalLaw(mu=np.zeros(2), sigma2_T=0.0)
        assert math.isclose(expected_final_reward(law, 1.0, 2.0), 2.0 / 3.0)

    def test_one_dim_value(self):
        law = marginal(1.0, [10], 1.0, 2.0)
        value = expected_final_reward(law, 1.0, 2.0)
        assert math.isclose(value, 0.7511230626998716, rel_tol=1e-12)

    def test_far_mean_vanishes(self):
        law = MarginalLaw(mu=np.array([300.0]), sigma2_T=0.1)
        assert expected_final_reward(law, 1.0, 2.0) < 1e-10

    def test_monte_carlo_over_the_law(self):
        # draw theta^(T) from the law, average the closed-form reward
        rng = np.random.default_rng(6)
        law = marginal(1.0, [10], 1.0, 2.0)
        thetas = rng.normal(law.mu[0], math.sqrt(law.sigma2_T), size=10**6)
        rewards = (2.0 / 3.0) ** 0.5 * np.exp(-thetas**2 / (2.0 * 3.0))
        se = rewards.std(ddof=1) / math.sqrt(rewards.size)
        assert abs(rewards.mean() - expected_final_reward(law, 1.0, 2.0)) < 3 * se


class TestOptimalSchedule:
    def test_exact_continuum_case(self):
        assert optimal_schedule(21, 3, 1.0, 1.0).n == (3, 6, 12)

    def test_apportioned_case(self):
        assert optimal_schedule(30, 3, 1.0, 1.0).n == (4, 9, 17)

    def test_single_iteration_takes_everything(self):
        assert optimal_schedule(100, 1, 1.0, 2.0).n == (100,)

    def test_budget_below_one_per_iteration(self):
        with pytest.raises(ValueError, match="budget below"):
            optimal_schedule(2, 3, 1.0, 1.0)

    def test_total_is_exact(self):
        for C, T in [(17, 3), (53, 4), (7, 5), (29, 2)]:
            assert sum(optimal_schedule(C, T, 1.0, 2.0).n) == C

    def test_zero_repair_keeps_feasibility(self):
        s = optimal_schedule(4, 3, 2.0, 1.0)  # rho=2, heavily skewed
        assert all(v >= 1 for v in s.n)
        assert sum(s.n) == 4

    def test_warns_when_hypothesis_violated(self):
        with pytest.warns(UserWarning, match="hypothesis"):
            optimal_schedule(10, 2, 1.0, 2.0, theta0=np.array([100.0]))

    def test_no_warning_for_small_theta(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimal_schedule(10, 2, 1.0, 2.0, theta0=np.array([1.0]))

    @pytest.mark.parametrize("sigma2, kappa2", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (1.0, -1.0)])
    def test_rejects_bad_variances(self, sigma2, kappa2):
        # nan and inf variances gave entries such as -2**63; zero and -1 passed.
        for fn in (continuous_optimum, optimal_schedule):
            with pytest.raises(ValueError, match="must be a positive finite real"):
                fn(21, 3, sigma2, kappa2)

    def test_rejects_non_finite_theta0(self):
        # A nan theta0 used to skip the hypothesis check without a word.
        with pytest.raises(ValueError, match="theta0 must be finite"):
            optimal_schedule(21, 3, 1.0, 1.0, theta0=np.array([math.nan, 1.0]))


class TestBeyondTheFloatRange:
    # At rho = 1, (1+rho)**k exceeds the float range from k = 1024; at
    # rho = 1e200, from k = 2.
    def test_marginal_beyond_the_float_range(self):
        law = marginal(np.array([1.0, 1.0]), [10] * 1100, 1.0, 1.0)
        assert law.mu.tolist() == [0.0, 0.0]
        assert math.isclose(law.sigma2_T, variance_floor(10, 1.0, 1.0), rel_tol=1e-12)

    def test_continuous_optimum_beyond_the_float_range_names_the_horizon(self):
        with pytest.raises(ValueError, match="overflow a float at horizon T=1100"):
            continuous_optimum(5000, 1100, 1.0, 1.0)

    def test_hypothesis_bound_beyond_the_float_range(self):
        # (1+rho)**T overflows at rho = 1e100, T = 4; the weights do not.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimal_schedule(10, 4, 1e100, 1.0, theta0=np.array([1.0])).n == (1, 1, 1, 7)

    def test_brute_force_beyond_the_float_range(self):
        assert brute_force_optimal(21, 3, 1e200, 1.0)[0].n == (1, 1, 19)

    def test_cost_curve_beyond_the_float_range(self):
        ev = cost_curve([10, 10], 0.0, 1e200, 1.0, CostModel(0.0, 1.0))
        assert np.allclose(ev.sigma2_T, [0.1, 0.1], rtol=1e-12, atol=0.0)


class TestBruteForce:
    def test_exact_case(self):
        sched, sig2 = brute_force_optimal(21, 3, 1.0, 1.0)
        assert sched.n == (3, 6, 12)
        assert math.isclose(sig2, 7.0 / 96.0)

    def test_uniform_is_strictly_suboptimal(self):
        _, best = brute_force_optimal(21, 3, 1.0, 1.0)
        uniform = marginal(0.0, [7, 7, 7], 1.0, 1.0).sigma2_T
        assert math.isclose(uniform, 0.09375)
        assert best < uniform

    def test_forced_composition(self):
        sched, _ = brute_force_optimal(3, 3, 1.0, 1.0)
        assert sched.n == (1, 1, 1)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimal(61, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimal(20, 5, 1.0, 1.0)

    def test_grid_against_apportionment(self):
        # Over the whole small grid the apportioned schedule's variance
        # is within 5% of the enumerated optimum, and the enumerated
        # optimum stays inside the rounding neighborhood of the
        # continuous solution.
        for rho in (0.5, 1.0, 2.0):
            sigma2, kappa2 = rho, 1.0
            for T in (1, 2, 3):
                for C in range(T, 41):
                    best, best_sig2 = brute_force_optimal(C, T, sigma2, kappa2)
                    sched = optimal_schedule(C, T, sigma2, kappa2)
                    sig2 = marginal(0.0, sched, sigma2, kappa2).sigma2_T
                    assert sig2 <= best_sig2 * 1.05
                    # rounding neighborhood around the apportioned entries
                    lo = np.array([max(1, v - 1) for v in sched.n], dtype=float)
                    hi = np.array([v + 1 for v in sched.n], dtype=float)
                    for t in range(T - 1):
                        assert best.n[t + 1] / best.n[t] >= lo[t + 1] / hi[t] - 1e-12
                        assert best.n[t + 1] / best.n[t] <= hi[t + 1] / lo[t] + 1e-12


class TestVarianceFloor:
    def test_value(self):
        assert math.isclose(variance_floor(10, 1.0, 2.0), 0.12)

    def test_matches_long_horizon_sum(self):
        floor = variance_floor(10, 1.0, 2.0)
        long_run = marginal(0.0, [10] * 100, 1.0, 2.0).sigma2_T
        assert math.isclose(floor, long_run, rel_tol=1e-9)

    def test_scales_inversely_with_batch(self):
        assert math.isclose(
            variance_floor(20, 1.0, 2.0) / variance_floor(10, 1.0, 2.0), 0.5
        )

    def test_vanishes_for_large_batches(self):
        assert variance_floor(10**9, 1.0, 2.0) < 1e-8
        assert variance_floor(10**12, 1.0, 2.0) < 1e-11

    def test_no_overflow_at_a_large_rho(self):
        # (1+rho)**2 leaves the float range; the floor is kappa2 / n0.
        assert variance_floor(10, 1e200, 1.0) == 0.1

    def test_no_division_by_zero_at_a_tiny_rho(self):
        # (1+rho)**2 - 1 rounds to 0; the floor is kappa2 / (2 * n0).
        assert variance_floor(10, 1e-300, 1.0) == 0.05


class TestCostCurve:
    def test_rejects_a_fractional_count(self):
        # Used to cut 2.5 to 2 and return n = (2, 10).
        with pytest.raises(ValueError, match="^schedule entry must be an integer >= 1, got 2.5$"):
            cost_curve([2.5, 10], 1.0, 1.0, 2.0, TRAIN_ONLY)

    def test_rejects_a_negative_count(self):
        # Used to return a negative parameter variance, sigma2_T = [-0.222, -0.032].
        with pytest.raises(ValueError, match="^schedule entry must be an integer >= 1, got -3$"):
            cost_curve([-3, 10], 1.0, 1.0, 2.0, TRAIN_ONLY)

    def test_rejects_integral_floats(self):
        # A count is an integer, as in a Schedule; 10.0 used to run as 10.
        # Counts read back from CSV are ints (AggRow.n_t), not floats.
        with pytest.raises(ValueError, match="^schedule entry must be an integer >= 1, got 10.0$"):
            cost_curve([10.0, 15], 1.0, 1.0, 2.0, TRAIN_ONLY)

    def test_training_only_cost_is_prefix_sum(self):
        sched = materialize(Exponential(10, 0.5), 6)
        ev = cost_curve(sched, np.array([1.0, 1.0]), 1.0, 2.0, TRAIN_ONLY)
        assert np.array_equal(ev.cum_cost, np.cumsum(sched.n).astype(float))

    def test_generation_only_first_step_uses_initial_rate(self):
        theta0 = np.array([1.0, 1.0])
        ev = cost_curve(Schedule((10,)), theta0, 1.0, 2.0, CostModel(1.0, 0.0))
        r0 = expected_reward(GaussianModel(theta0, 1.0), ExpReward(2.0))
        assert math.isclose(ev.cum_cost[0], 10.0 / r0, rel_tol=1e-12)

    def test_gap_nonnegative_and_sigma_matches_marginal(self):
        sched = materialize(Exponential(10, 0.5), 8)
        theta0 = np.array([1.0, 1.0])
        ev = cost_curve(sched, theta0, 1.0, 2.0, TRAIN_ONLY)
        assert np.all(ev.gap >= 0)
        for T in (1, 4, 8):
            law = marginal(theta0, sched.n[:T], 1.0, 2.0)
            assert math.isclose(ev.sigma2_T[T - 1], law.sigma2_T, rel_tol=1e-12)
            assert math.isclose(
                ev.reward[T - 1], expected_final_reward(law, 1.0, 2.0), rel_tol=1e-12
            )

    def test_quadrature_matches_lognormal_closed_form(self):
        # E[1/r(theta)] for theta ~ N(mu, v I_d) has the closed form
        # (1+rho)^(d/2) * prod_i sqrt(s/(s-v)) * exp(mu_i^2/(2(s-v))), s = sigma2+kappa2.
        sched = materialize(Exponential(10, 0.5), 6)
        theta0 = np.array([1.0, 1.0])
        sigma2, kappa2 = 1.0, 2.0
        s = sigma2 + kappa2
        rho = sigma2 / kappa2
        ev = cost_curve(sched, theta0, sigma2, kappa2, CostModel(1.0, 0.0))
        running = 0.0
        for T in range(len(sched.n)):
            if T == 0:
                mu, v = theta0, 0.0
            else:
                law = marginal(theta0, sched.n[:T], sigma2, kappa2)
                mu, v = law.mu, law.sigma2_T
            closed = (1.0 + rho) ** (len(mu) / 2.0)
            for c in mu:
                closed *= math.sqrt(s / (s - v)) * math.exp(c**2 / (2.0 * (s - v)))
            running += sched.n[T] * closed
            assert math.isclose(ev.cum_cost[T], running, rel_tol=1e-10)

    def test_quadrature_exceeds_ratio_approximation(self):
        # Jensen: E[1/r] >= 1/E[r], so mean_N is at least the ratio
        # approximation n_t / E[r(theta before t)], with equality only at
        # the point mass before t = 1.
        sched = materialize(Constant(5), 6)
        theta0 = np.array([1.0])
        ev = cost_curve(sched, theta0, 1.0, 2.0, CostModel(1.0, 0.0))
        r0 = expected_reward(GaussianModel(theta0, 1.0), ExpReward(2.0))
        ratio = np.array(sched.n) / np.concatenate([[r0], ev.reward[:-1]])
        assert math.isclose(ev.mean_N[0], ratio[0], rel_tol=1e-14)
        assert np.all(ev.mean_N[1:] > ratio[1:])

    @pytest.mark.parametrize(
        "kappa2, counts",
        [pytest.param(2.0, (10, 15, 22, 33), id="toy"), pytest.param(0.8, (1,) * 6, id="n1")],
    )
    def test_mean_N_matches_simulation(self, kappa2, counts):
        # 40 000 serial runs at seed 12345 read |z| <= 1.4 here. The ratio
        # approximation n_t / E[r] reads 8.7 SE low at the toy's T = 2,
        # and 16.8 to 20.2 SE low at T = 2..6 with n_t = 1.
        theta0 = np.array([1.0, 1.0])
        cost = CostModel(1.0, 1.0)
        ev = cost_curve(counts, theta0, 1.0, kappa2, cost)
        cfg = RunConfig(
            theta0=theta0, schedule=Schedule(counts), cost=cost, seed=12345, sigma2=1.0, kappa2=kappa2
        )
        sim = monte_carlo(cfg, 40_000)
        z = (ev.mean_N - sim.mean_N) / sim.se_N
        assert np.all(np.abs(z) < 4.0), z

    # "ratio" and "quadrature" are two accepted names of one closed form,
    # so each must give the same error and the same pinned bits.
    @pytest.mark.parametrize("mode", ["ratio", "quadrature"])
    def test_underflowing_reward_names_iteration(self, mode):
        # E[r(theta0)] = (2/3) * exp(-7200/6) underflows to 0.0, and
        # E[1/r] overflows.
        sched = materialize(Exponential(10, 0.5), 3)
        with pytest.raises(ValueError, match="infinite at T=1"):
            cost_curve(sched, np.array([60.0, 60.0]), 1.0, 2.0, TRAIN_ONLY, mode)

    # float.hex of cost_curve((5, 8, 13, 21, 34), theta0=(0.7, -1.2, 0.4),
    # sigma2=2.0, kappa2=1.7, CostModel(c_g=0.5, c_t=1.0)). Unlike the goldens
    # (c_g = 0, d = 2, rho = 0.5), this case prices generation, so mean_N
    # and cum_cost pin the last bits of the closed-form E[N_t].
    PINNED_ROWS = {
        "reward": ["0x1.182ba6fbccb5fp-2", "0x1.286cc33271be8p-2", "0x1.313d278837797p-2",
                   "0x1.3673d72207f20p-2", "0x1.39aa17a331bedp-2"],
        "sigma2_T": ["0x1.7863a1e717863p-3", "0x1.3ab33b9c1ef56p-3", "0x1.a665ff291a1e0p-4",
                     "0x1.0c670b884c5e2p-4", "0x1.4eb9ffa213e69p-5"],
        "mu": ["0x1.49572daa34956p-2", "-0x1.1a4ab96d51a4ap-1", "0x1.7863a1e717863p-3",
               "0x1.2ea3230b1b902p-3", "-0x1.0367429bce7b9p-2", "0x1.59df037a68a4cp-4",
               "0x1.16195e78e8e54p-4", "-0x1.dcbdc68621891p-4", "0x1.3dd3d9aec1061p-5",
               "0x1.ff19de0ea51aep-6", "-0x1.b6162c0c8d84dp-5", "0x1.240ec8085e589p-6",
               "0x1.d5a9113de3d37p-7", "-0x1.9290ea350c6c2p-6", "0x1.0c609c235d9d7p-7"],
    }
    PINNED_DRAWS = {
        "mean_N": ["0x1.54b462c28d222p+4", "0x1.d85ccf4290696p+4", "0x1.6893b7db69799p+5",
                   "0x1.1a2b61d668700p+6", "0x1.c0cdd11709731p+6"],
        "cum_cost": ["0x1.f4b462c28d222p+3", "0x1.33444c814762ep+5", "0x1.27c714377e0fdp+6",
                     "0x1.046e62915923ep+7", "0x1.b8a1d6d71b80ap+7"],
    }

    @pytest.mark.parametrize("mode", ["ratio", "quadrature"])
    def test_pinned_bits_with_generation_cost(self, mode):
        ev = cost_curve(
            (5, 8, 13, 21, 34), np.array([0.7, -1.2, 0.4]), 2.0, 1.7, CostModel(0.5, 1.0), mode
        )
        for field, expected in {**self.PINNED_ROWS, **self.PINNED_DRAWS}.items():
            got = [float(v).hex() for v in np.ravel(getattr(ev, field))]
            assert got == expected, field

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            cost_curve(Schedule((5,)), np.array([1.0]), 1.0, 2.0, TRAIN_ONLY, "exact")


class TestConstantPolicyFloor:
    def test_gap_flattens_above_positive_floor(self):
        theta0 = np.array([1.0])
        ev = cost_curve(materialize(Constant(10), 60), theta0, 1.0, 2.0, TRAIN_ONLY)
        floor_gap = ev.r_star - expected_final_reward(
            MarginalLaw(mu=np.zeros(1), sigma2_T=variance_floor(10, 1.0, 2.0)),
            1.0,
            2.0,
        )
        diffs = np.abs(np.diff(ev.gap))
        assert diffs[-1] < 1e-6
        assert ev.gap[-1] > 0.9 * floor_gap
        assert all(b <= a for a, b in zip(diffs[40:], diffs[41:]))


class TestRateProbes:
    def test_exponential_policy_log_gap_is_affine(self):
        sched = materialize(Exponential(10, 0.5), 20)
        ev = cost_curve(sched, np.array([1.0, 1.0]), 1.0, 2.0, TRAIN_ONLY)
        mask = (ev.T >= 3) & (ev.T <= 20)
        x = ev.T[mask].astype(float)
        y = np.log(ev.gap[mask])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        r2 = 1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))
        assert slope < 0
        assert r2 >= 0.99

    def test_constant_policy_log_gap_flattens(self):
        ev = cost_curve(materialize(Constant(10), 20), np.array([1.0, 1.0]), 1.0, 2.0, TRAIN_ONLY)
        y = np.log(ev.gap)
        early = np.polyfit(ev.T[0:5].astype(float), y[0:5], 1)[0]
        late = np.polyfit(ev.T[14:20].astype(float), y[14:20], 1)[0]
        assert abs(late) < 0.1 * abs(early)


class TestTStar:
    def test_loose_tolerance_is_immediate(self):
        ev = cost_curve(materialize(Constant(10), 5), np.array([1.0]), 1.0, 2.0, TRAIN_ONLY)
        assert t_star(ev, 1.0) == 1

    def test_below_floor_never_reached(self):
        ev = cost_curve(materialize(Constant(10), 80), np.array([1.0]), 1.0, 2.0, TRAIN_ONLY)
        floor_gap = ev.r_star - expected_final_reward(
            MarginalLaw(mu=np.zeros(1), sigma2_T=variance_floor(10, 1.0, 2.0)),
            1.0,
            2.0,
        )
        assert t_star(ev, 0.5 * floor_gap) is None

    def test_rejects_nonpositive_eps(self):
        ev = cost_curve(materialize(Constant(10), 5), np.array([1.0]), 1.0, 2.0, TRAIN_ONLY)
        with pytest.raises(ValueError):
            t_star(ev, 0.0)

    def test_rejects_nan_eps(self):
        # nan compares false against every gap, which would read as never.
        ev = cost_curve(materialize(Constant(10), 5), np.array([1.0]), 1.0, 2.0, TRAIN_ONLY)
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            t_star(ev, math.nan)

    def test_scheme_ordering_at_two_percent(self):
        # cumulative training cost to reach gap <= 0.02:
        # exponential < budget-matched linear < budget-matched constant
        theta0 = np.array([1.0, 1.0])
        T = 15
        exp_ev = cost_curve(materialize(Exponential(10, 0.5), T), theta0, 1.0, 2.0, TRAIN_ONLY)
        lin_ev = cost_curve(materialize(BudgetLinear(10, 0.5), T), theta0, 1.0, 2.0, TRAIN_ONLY)
        con_ev = cost_curve(materialize(BudgetConstant(10, 0.5), T), theta0, 1.0, 2.0, TRAIN_ONLY)
        costs = []
        for ev in (exp_ev, lin_ev, con_ev):
            ts = t_star(ev, 0.02)
            assert ts is not None
            costs.append(float(ev.cum_cost[ts - 1]))
        assert costs[0] < costs[1] < costs[2]


_BAD_VARIANCE_CALLS = {
    "marginal": lambda sigma2, kappa2: marginal(1.0, [10, 10], sigma2, kappa2),
    "continuous_optimum": lambda sigma2, kappa2: continuous_optimum(21, 3, sigma2, kappa2),
    "brute_force_optimal": lambda sigma2, kappa2: brute_force_optimal(21, 3, sigma2, kappa2),
    "variance_floor": lambda sigma2, kappa2: variance_floor(10, sigma2, kappa2),
    "cost_curve": lambda sigma2, kappa2: cost_curve([10, 10], np.array([1.0]), sigma2, kappa2, TRAIN_ONLY),
}


@pytest.mark.parametrize("fn", sorted(_BAD_VARIANCE_CALLS))
@pytest.mark.parametrize("name", ["sigma2", "kappa2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_every_closed_form_rejects_a_bad_variance(fn, name, value):
    # A nan sigma2 gave marginal mu = [nan] and brute force a schedule
    # with a nan sigma2_T; kappa2 = 0 raised a bare ZeroDivisionError.
    with pytest.raises(ValueError, match=f"^{name} must be a positive finite real, got {value!r}$"):
        _BAD_VARIANCE_CALLS[fn](**{"sigma2": 1.0, "kappa2": 2.0, name: value})
