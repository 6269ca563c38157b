"""Gradient-descent updater, Gaussian NLL instance, gradient checking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterboot.gaussian import GaussianNll, mle_update, optimal_reward
from iterboot.gdmodel import (
    DivergenceError,
    GdUpdater,
    check_gradient,
    gd_update,
)


class QuarticLoss:
    """Non-quadratic test loss: sum((theta - x)^4); gradient 4*(theta-x)^3."""

    def loss(self, x, theta):
        return float(np.sum((np.asarray(theta) - np.asarray(x)) ** 4))

    def grad(self, x, theta):
        return 4.0 * (np.asarray(theta) - np.asarray(x)) ** 3

    def sample(self, theta, rng, size=None):
        raise NotImplementedError

    def reward(self, x):
        raise NotImplementedError


class TestGdUpdate:
    def test_full_step_equals_sample_mean(self):
        model = GaussianNll(1.0, 2.0, 1)
        out = gd_update(np.array([0.0]), np.array([[2.0], [4.0]]), model, GdUpdater(1.0))
        assert out[0] == 3.0

    def test_half_step(self):
        model = GaussianNll(1.0, 2.0, 1)
        out = gd_update(np.array([0.0]), np.array([[2.0], [4.0]]), model, GdUpdater(0.5))
        assert out[0] == 1.5

    def test_eta_equals_sigma2_is_bitwise_mle(self):
        rng = np.random.default_rng(77)
        model = GaussianNll(1.0, 2.0, 3)
        for _ in range(50):
            theta = rng.normal(size=3)
            D = rng.normal(size=(rng.integers(1, 40), 3)) + theta / 1.5
            gd = gd_update(theta, D, model, GdUpdater(1.0))
            assert np.array_equal(gd, mle_update(D))

    def test_eta_equals_sigma2_is_bitwise_mle_nonunit_variance(self):
        rng = np.random.default_rng(78)
        model = GaussianNll(2.5, 1.0, 2)
        theta = rng.normal(size=2)
        D = rng.normal(size=(17, 2))
        assert np.array_equal(gd_update(theta, D, model, GdUpdater(2.5)), mle_update(D))

    def test_empty_batch_is_an_error(self):
        model = GaussianNll(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            gd_update(np.array([0.0]), np.empty((0, 1)), model, GdUpdater(1.0))

    def test_nonfinite_step_raises_divergence(self):
        class BadGrad:
            def loss(self, x, theta):
                return 0.0

            def grad(self, x, theta):
                return np.array([np.nan])

            def sample(self, theta, rng, size=None):
                raise NotImplementedError

            def reward(self, x):
                raise NotImplementedError

        with pytest.raises(DivergenceError):
            gd_update(np.array([0.0]), np.array([[1.0]]), BadGrad(), GdUpdater(1.0))

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            GdUpdater(0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        eta=st.floats(0.01, 2.0),
        seed=st.integers(0, 10**6),
    )
    def test_step_size_bounded_by_mean_gradient_norm(self, eta, seed):
        rng = np.random.default_rng(seed)
        model = GaussianNll(1.0, 2.0, 2)
        theta = rng.normal(size=2)
        D = rng.normal(size=(rng.integers(1, 20), 2))
        new = gd_update(theta, D, model, GdUpdater(eta))
        bound = eta * np.mean([np.linalg.norm(model.grad(x, theta)) for x in D])
        assert np.linalg.norm(new - theta) <= bound + 1e-12


class TestGaussianNll:
    def test_loss_zero_at_sample(self):
        model = GaussianNll(1.0, 2.0, 2)
        x = np.array([0.3, -0.7])
        assert model.loss(x, x) == 0.0

    def test_grad_value(self):
        model = GaussianNll(1.0, 2.0, 1)
        assert np.array_equal(model.grad(np.array([0.0]), np.array([1.0])), np.array([1.0]))

    def test_loss_value(self):
        model = GaussianNll(2.0, 2.0, 1)
        assert model.loss(np.array([3.0]), np.array([1.0])) == 1.0

    def test_generic_path_matches_specialized_step(self):
        # strip gd_step to exercise the per-sample fallback
        model = GaussianNll(1.0, 2.0, 2)

        class NoStep:
            loss = model.loss
            grad = model.grad
            sample = model.sample
            reward = model.reward

        rng = np.random.default_rng(5)
        theta = rng.normal(size=2)
        D = rng.normal(size=(9, 2))
        a = gd_update(theta, D, NoStep(), GdUpdater(0.3))
        b = gd_update(theta, D, model, GdUpdater(0.3))
        assert np.allclose(a, b, rtol=0, atol=1e-14)


class TestCheckGradient:
    def test_gaussian_nll_small_h(self):
        model = GaussianNll(1.0, 2.0, 1)
        err = check_gradient(model, np.array([0.3]), np.array([1.1]), h=1e-5)
        assert err < 1e-6

    def test_quadratic_in_three_dims(self):
        rng = np.random.default_rng(2)
        model = GaussianNll(1.0, 2.0, 3)
        err = check_gradient(model, rng.normal(size=3), rng.normal(size=3), h=1e-5)
        assert err < 1e-6

    def test_large_h_still_tight_for_quadratic(self):
        # central differences are exact for quadratics up to rounding
        model = GaussianNll(1.0, 2.0, 1)
        err = check_gradient(model, np.array([0.3]), np.array([1.1]), h=1e-2)
        assert err < 1e-4

    def test_second_order_scaling_on_quartic(self):
        model = QuarticLoss()
        theta = np.array([0.7, -0.2])
        x = np.array([0.1, 0.4])
        e1 = check_gradient(model, theta, x, h=2e-3)
        e2 = check_gradient(model, theta, x, h=1e-3)
        assert e2 > 0
        assert e1 / e2 >= 3.0

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            check_gradient(GaussianNll(1.0, 2.0, 1), np.array([0.0]), np.array([1.0]), h=0.0)


class TestSampleInto:
    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("sigma2", [1.0, 0.7])
    @pytest.mark.parametrize("sizes", [[37], [32, 1, 500, 64]])
    def test_fill_is_sample_bit_for_bit(self, d, sigma2, sizes):
        lm = GaussianNll(sigma2, 2.0, d)
        thetas = [np.linspace(-1.0, 2.0, d) * (i + 1) for i in range(len(sizes))]
        got = [np.random.default_rng(100 + i) for i in range(len(sizes))]
        want = [np.random.default_rng(100 + i) for i in range(len(sizes))]
        out = np.empty((sum(sizes), d))
        lm.sample_into(thetas, got, sizes, out)
        expected = np.concatenate([lm.sample(th, rng, k) for th, rng, k in zip(thetas, want, sizes)])
        assert out.tobytes() == expected.tobytes()
        for a, b in zip(got, want):
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_reward_is_the_einsum_expression(self, d):
        x = np.random.default_rng(d).standard_normal((5000, d)) * 2.0
        want = np.exp(-0.5 * np.einsum("ij,ij->i", x, x) / 1.7)
        assert GaussianNll(1.0, 1.7, d).reward(x).tobytes() == want.tobytes()


class TestExpectedReward:
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_stack_is_each_theta_bit_for_bit(self, d):
        lm = GaussianNll(0.7, 1.3, d)
        rng = np.random.default_rng(40 + d)
        thetas = rng.standard_normal((3000, d)) * rng.choice([0.01, 1.0, 5.0], size=(3000, 1))
        got = lm.expected_reward(thetas)
        alone = [lm.expected_reward(theta) for theta in thetas]
        # The one-theta expression: its own dot product and math.exp.
        r_star = optimal_reward(d, 0.7, 1.3)
        want = [r_star * math.exp(-float(th @ th) / (2.0 * (0.7 + 1.3))) for th in thetas]
        assert got.dtype == np.float64 and got.shape == (3000,)
        assert got.tobytes() == np.array(alone).tobytes() == np.array(want).tobytes()
