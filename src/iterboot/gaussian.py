"""The exactly solvable generator/reward pair: isotropic Gaussian data
with an exponential reward.

The generator is N(theta, sigma2 * I_d) with a learnable mean and fixed
variance; the reward is exp(-||x||^2 / (2*kappa2)). Everything the
simulator needs about this pair has a closed form: the expected reward
of a parameter, its supremum, and the exact law of a reward-accepted
sample. :class:`GaussianNll` is the same pair as a loss model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policy import check_positive, check_positive_int

__all__ = [
    "check_theta",
    "GaussianModel",
    "ExpReward",
    "sample",
    "reward",
    "expected_reward",
    "optimal_reward",
    "mle_update",
    "post_selection_params",
    "GaussianNll",
]


def check_theta(name: str, theta: np.ndarray | float) -> np.ndarray:
    """A new 1-D float64 copy of ``theta``. Raises ``ValueError`` unless
    ``theta`` is a scalar or a non-empty vector of finite reals."""
    if np.iscomplexobj(theta):
        raise ValueError(f"{name} must be real, got {theta!r}")
    out = np.array(theta, dtype=np.float64, ndmin=1)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"{name} must be a scalar or a non-empty vector, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite, got {out.tolist()}")
    return out


@dataclass(eq=False)
class GaussianModel:
    """N(theta, sigma2 * I_d). ``theta`` is copied and checked at
    construction; nothing changes it later (runs keep thetas in arrays)."""

    theta: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        self.theta = check_theta("theta", self.theta)
        check_positive("sigma2", self.sigma2)

    @property
    def d(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class ExpReward:
    """R(x) = exp(-||x||^2 / (2*kappa2)); values lie in (0, 1]."""

    kappa2: float

    def __post_init__(self) -> None:
        check_positive("kappa2", self.kappa2)


def sample(m: GaussianModel, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw from N(theta, sigma2 * I_d).

    Returns a (d,) vector, or an (size, d) array when ``size`` is given.
    """
    scale = math.sqrt(m.sigma2)
    if size is None:
        return m.theta + scale * rng.standard_normal(m.d)
    return m.theta + scale * rng.standard_normal((size, m.d))


def reward(r: ExpReward | GaussianNll, x: np.ndarray) -> float | np.ndarray:
    """Reward of a single (d,) sample or a batch of shape (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim <= 1:
        return float(np.exp(-0.5 * float(x @ x) / r.kappa2))
    # exp(-0.5 * ||x||^2 / kappa2), computed in place. For d = 2 the
    # squared norm is one sum of two products, so column passes give
    # einsum's value bit for bit: 38 vs 68 us a call at 8192 rows, 8.7 vs
    # 11.2 us at 512, level (5.7 vs 6.0 us) at 64 (timeit, 2-core x86-64,
    # numpy 2.4).
    if x.shape[1] == 2:
        e = x[:, 0] * x[:, 0]
        e += x[:, 1] * x[:, 1]
    else:
        e = np.einsum("ij,ij->i", x, x)
    e *= -0.5
    e /= r.kappa2
    return np.exp(e, out=e)


def expected_reward(m: GaussianModel, r: ExpReward) -> float:
    """E_{x ~ N(theta, sigma2 I_d)}[R(x)], in closed form:
    (1 + sigma2/kappa2)^(-d/2) * exp(-||theta||^2 / (2*(sigma2+kappa2)))."""
    return GaussianNll(m.sigma2, r.kappa2, m.d).expected_reward(m.theta)


def optimal_reward(d: int, sigma2: float, kappa2: float) -> float:
    """sup_theta of the expected reward, attained at theta = 0:
    (1 + sigma2/kappa2)^(-d/2)."""
    d = check_positive_int("d", d)
    check_positive("sigma2", sigma2)
    check_positive("kappa2", kappa2)
    return (1.0 + sigma2 / kappa2) ** (-d / 2.0)


def mle_update(D: np.ndarray) -> np.ndarray:
    """Maximum-likelihood mean update: the coordinate-wise sample mean.

    ``D`` is an (n, d) array of accepted samples; an empty batch is a
    schedule bug and raises.
    """
    D = np.asarray(D, dtype=np.float64)
    if D.ndim == 1:
        D = D.reshape(-1, 1)
    if D.shape[0] == 0:
        raise ValueError("mle_update needs a non-empty batch")
    return D.mean(axis=0)


def post_selection_params(
    theta: np.ndarray | float, sigma2: float, kappa2: float
) -> tuple[np.ndarray, float]:
    """Exact law of an accepted sample: reweighting N(theta, sigma2 I_d)
    by exp(-||x||^2 / (2*kappa2)) gives N(theta/(1+rho), sigma2/(1+rho) * I_d)
    with rho = sigma2/kappa2. Raises ``ValueError`` as check_theta and check_positive do."""
    theta = check_theta("theta", theta)
    check_positive("sigma2", sigma2)
    check_positive("kappa2", kappa2)
    rho = sigma2 / kappa2
    return theta / (1.0 + rho), sigma2 / (1.0 + rho)


@dataclass(frozen=True)
class GaussianNll:
    """Gaussian negative log-likelihood, constant term dropped:
    loss(x, theta) = ||x - theta||^2 / (2*sigma2), grad = (theta - x)/sigma2.

    Sampling is :func:`sample`'s expression, and the reward and expected
    reward are :func:`reward` and :func:`expected_reward`, bit for bit, so
    a GD run over this model with eta = sigma2 is exactly the MLE run.
    :func:`optimal_reward` checks the parameters, once, at construction,
    and ``d`` is kept as an int.
    """

    sigma2: float
    kappa2: float
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_r_star", optimal_reward(self.d, self.sigma2, self.kappa2))
        object.__setattr__(self, "d", int(self.d))

    def loss(self, x: np.ndarray, theta: np.ndarray) -> float:
        diff = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        return float(diff @ diff) / (2.0 * self.sigma2)

    def grad(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return (np.asarray(theta, dtype=np.float64) - np.asarray(x, dtype=np.float64)) / self.sigma2

    def sample(
        self, theta: np.ndarray, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray:
        # sample's expression, without a GaussianModel per call.
        shape = self.d if size is None else (size, self.d)
        return theta + math.sqrt(self.sigma2) * rng.standard_normal(shape)

    def sample_into(
        self,
        thetas: np.ndarray,
        rngs: Sequence[np.random.Generator],
        sizes: list[int],
        out: np.ndarray,
    ) -> None:
        # Each run's normals in place from its own generator, then one
        # scale and one shift for all runs: theta + s*z is s*z + theta
        # bit for bit. A lone run's theta broadcasts, since repeating it
        # would double the memory of the large chunks of one-run groups.
        lo = 0
        for rng, k in zip(rngs, sizes):
            rng.standard_normal(out=out[lo : lo + k])
            lo += k
        out *= math.sqrt(self.sigma2)
        out += thetas[0] if len(thetas) == 1 else np.repeat(thetas, sizes, axis=0)

    def reward(self, x: np.ndarray) -> float | np.ndarray:
        return reward(self, x)  # the module's reward, which reads only kappa2

    def expected_reward(self, theta: np.ndarray) -> float | np.ndarray:
        # _r_star * exp(-||theta||^2 / (2*(sigma2+kappa2))). vecdot gives each
        # row theta @ theta bit for bit, and every theta keeps its own
        # math.exp, which np.exp does not always match.
        theta = np.asarray(theta, dtype=np.float64)
        norm2 = np.vecdot(theta, theta)
        scale = 2.0 * (self.sigma2 + self.kappa2)
        if norm2.ndim == 0:
            return self._r_star * math.exp(-float(norm2) / scale)
        return np.array([self._r_star * math.exp(-v / scale) for v in norm2.tolist()])

    def gd_step(self, theta: np.ndarray, D: np.ndarray, eta: float) -> np.ndarray:
        # (1-c)*theta + c*mean(D) with c = eta/sigma2 equals the averaged
        # gradient step exactly, and is bitwise mean(D) when eta == sigma2.
        c = eta / self.sigma2
        return (1.0 - c) * theta + c * D.mean(axis=0)
