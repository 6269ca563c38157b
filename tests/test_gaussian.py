"""Gaussian generator, exponential reward, and their closed forms."""

import math

import numpy as np
import pytest

from iterboot.gaussian import (
    ExpReward,
    GaussianModel,
    GaussianNll,
    expected_reward,
    mle_update,
    optimal_reward,
    post_selection_params,
    reward,
    sample,
)


class TestConstruction:
    def test_rejects_degenerate_variance(self):
        with pytest.raises(ValueError):
            GaussianModel(np.array([0.0]), 0.0)
        with pytest.raises(ValueError):
            GaussianModel(np.array([0.0]), -1.0)

    def test_rejects_nonfinite_theta(self):
        with pytest.raises(ValueError):
            GaussianModel(np.array([np.inf]), 1.0)

    def test_reward_needs_positive_kappa2(self):
        with pytest.raises(ValueError):
            ExpReward(0.0)


class TestReward:
    def test_maximum_at_origin(self):
        assert reward(ExpReward(2.0), np.zeros(3)) == 1.0

    def test_formula_values(self):
        assert math.isclose(reward(ExpReward(2.0), np.array([1.0, 1.0])), math.exp(-0.5))
        assert math.isclose(reward(ExpReward(0.5), np.array([1.0, 0.0])), math.exp(-1.0))

    def test_batch_shape(self):
        r = reward(ExpReward(1.0), np.zeros((5, 2)))
        assert r.shape == (5,)
        assert np.all(r == 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_batch_is_the_einsum_expression_bit_for_bit(self, d):
        # d = 2 sums its two columns directly; that and every other d give
        # the bits of the einsum expression.
        x = np.random.default_rng(d).standard_normal((257, d)) * 3.0
        want = np.exp(-0.5 * np.einsum("ij,ij->i", x, x) / 0.7)
        assert reward(ExpReward(0.7), x).tobytes() == want.tobytes()


class TestExpectedReward:
    def test_at_origin_equals_optimal(self):
        m = GaussianModel(np.zeros(2), 1.0)
        assert math.isclose(expected_reward(m, ExpReward(2.0)), 2.0 / 3.0)

    def test_closed_form_value(self):
        m = GaussianModel(np.array([1.0, 1.0]), 1.0)
        want = (2.0 / 3.0) * math.exp(-2.0 / 6.0)
        assert math.isclose(expected_reward(m, ExpReward(2.0)), want)
        assert abs(want - 0.47769) < 5e-6

    def test_one_dim_origin(self):
        m = GaussianModel(np.zeros(1), 1.0)
        assert math.isclose(expected_reward(m, ExpReward(1.0)), 2.0**-0.5)

    def test_monte_carlo_cross_check(self):
        # Average reward over many draws agrees with the closed form.
        rng = np.random.default_rng(7)
        m = GaussianModel(np.array([1.0, 1.0]), 1.0)
        rw = ExpReward(2.0)
        x = sample(m, rng, 10**6)
        values = reward(rw, x)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - expected_reward(m, rw)) < 3 * se

    def test_bounded_by_optimal_with_equality_only_at_origin(self):
        rw = ExpReward(2.0)
        r_star = optimal_reward(2, 1.0, 2.0)
        for a in np.linspace(-2, 2, 9):
            for b in np.linspace(-2, 2, 9):
                value = expected_reward(GaussianModel(np.array([a, b]), 1.0), rw)
                if a == 0 and b == 0:
                    assert math.isclose(value, r_star)
                else:
                    assert value < r_star

    def test_rotation_invariance(self):
        # depends on theta only through its norm
        rng = np.random.default_rng(3)
        rw = ExpReward(2.0)
        theta = np.array([0.8, -0.4])
        base = expected_reward(GaussianModel(theta, 1.0), rw)
        for _ in range(10):
            phi = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            assert math.isclose(
                expected_reward(GaussianModel(rot @ theta, 1.0), rw), base, rel_tol=1e-12
            )


class TestOptimalReward:
    def test_values(self):
        assert math.isclose(optimal_reward(2, 1.0, 2.0), 2.0 / 3.0)
        assert math.isclose(optimal_reward(1, 1.0, 1.0), 1.0 / math.sqrt(2.0))
        assert math.isclose(optimal_reward(4, 1.0, 1.0), 0.25)

    @pytest.mark.parametrize(
        "sigma2, kappa2, name",
        [(math.nan, 1.0, "sigma2"), (math.inf, 1.0, "sigma2"), (1.0, math.inf, "kappa2"), (1.0, 0.0, "kappa2")],
    )
    def test_rejects_a_variance_that_is_not_positive_and_finite(self, sigma2, kappa2, name):
        bad = sigma2 if name == "sigma2" else kappa2
        with pytest.raises(ValueError, match=f"^{name} must be a positive finite real, got {bad!r}$"):
            optimal_reward(2, sigma2, kappa2)


class TestGaussianNll:
    """The loss-model form of the pair keeps the closed forms' values and
    their parameter checks."""

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_expected_reward_is_the_pairs_bit_for_bit(self, d):
        rng = np.random.default_rng(60 + d)
        for scale in (0.0, 0.3, 1.0, 4.0):
            theta = rng.standard_normal(d) * scale
            want = expected_reward(GaussianModel(theta, 0.7), ExpReward(1.3))
            got = GaussianNll(0.7, 1.3, d).expected_reward(theta)
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["sigma2", "kappa2"])
    def test_rejects_a_variance_that_is_not_positive_and_finite(self, name, bad):
        params = {"sigma2": 1.0, "kappa2": 2.0, "d": 2, name: bad}
        with pytest.raises(ValueError, match=f"^{name} "):
            GaussianNll(**params)

    def test_rejects_an_empty_dimension(self):
        with pytest.raises(ValueError, match="^d "):
            GaussianNll(1.0, 2.0, 0)


class TestSampling:
    def test_moments(self):
        rng = np.random.default_rng(11)
        m = GaussianModel(np.array([1.0, 1.0]), 1.0)
        x = sample(m, rng, 10**5)
        # 5 sigma/sqrt(n) per coordinate
        tol = 5.0 / math.sqrt(10**5)
        assert np.all(np.abs(x.mean(axis=0) - 1.0) < tol)
        assert np.all(np.abs(x.var(axis=0, ddof=1) - 1.0) < 0.03)

    def test_single_draw_shape(self):
        rng = np.random.default_rng(0)
        assert sample(GaussianModel(np.zeros(3), 1.0), rng).shape == (3,)


class TestMleUpdate:
    def test_mean(self):
        out = mle_update(np.array([[1.0, 1.0], [3.0, 3.0]]))
        assert np.array_equal(out, np.array([2.0, 2.0]))

    def test_singleton(self):
        assert np.array_equal(mle_update(np.array([[5.0]])), np.array([5.0]))

    def test_empty_batch_is_an_error(self):
        with pytest.raises(ValueError):
            mle_update(np.empty((0, 2)))

    def test_accepted_sample_mean_matches_post_selection_law(self):
        # Accept each draw with probability equal to its reward, then check
        # the MLE update lands near the post-selection mean.
        rng = np.random.default_rng(5)
        m = GaussianModel(np.array([1.0]), 1.0)
        rw = ExpReward(2.0)
        accepted = []
        while sum(a.shape[0] for a in accepted) < 10**4:
            x = sample(m, rng, 4096)
            keep = rng.random(4096) < reward(rw, x)
            accepted.append(x[keep])
        pool = np.concatenate(accepted)[: 10**4]
        mean, var = post_selection_params(m, rw)
        se = math.sqrt(var / pool.shape[0])
        assert abs(mle_update(pool)[0] - mean[0]) < 4 * se


class TestPostSelection:
    def test_values(self):
        m = GaussianModel(np.array([1.0]), 1.0)
        mean, var = post_selection_params(m, ExpReward(2.0))
        assert np.allclose(mean, [2.0 / 3.0])
        assert math.isclose(var, 2.0 / 3.0)

    def test_zero_theta_is_fixed(self):
        m = GaussianModel(np.zeros(2), 1.0)
        mean, var = post_selection_params(m, ExpReward(1.0))
        assert np.array_equal(mean, np.zeros(2))
        assert math.isclose(var, 0.5)

    def test_rho_one(self):
        m = GaussianModel(np.array([3.0]), 1.0)
        mean, var = post_selection_params(m, ExpReward(1.0))
        assert np.allclose(mean, [1.5])
        assert math.isclose(var, 0.5)

    def test_acceptance_rate_matches_expected_reward(self):
        rng = np.random.default_rng(19)
        m = GaussianModel(np.array([1.0, 1.0]), 1.0)
        rw = ExpReward(2.0)
        n = 2 * 10**5
        x = sample(m, rng, n)
        rate = float(np.mean(rng.random(n) < reward(rw, x)))
        r = expected_reward(m, rw)
        assert abs(rate - r) < 4 * math.sqrt(r * (1 - r) / n)

    def test_accepted_moments_match_law(self):
        rng = np.random.default_rng(23)
        m = GaussianModel(np.array([1.0]), 1.0)
        rw = ExpReward(2.0)
        x = sample(m, rng, 4 * 10**5)
        pool = x[rng.random(x.shape[0]) < reward(rw, x)][:, 0]
        mean, var = post_selection_params(m, rw)
        n = pool.size
        assert abs(pool.mean() - mean[0]) < 4 * math.sqrt(var / n)
        # SE of the sample variance via the empirical fourth moment
        m4 = np.mean((pool - pool.mean()) ** 4)
        se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
        assert abs(pool.var(ddof=1) - var) < 4 * se_var
