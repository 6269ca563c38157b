"""Loss-based model interface and the gradient-descent updater.

A :class:`LossModel` bundles the four behaviors the bootstrapping loop
needs from a trainable generator: per-sample loss, its gradient in the
parameters, sampling, and a reward in [0, 1]. :func:`gd_update` applies
one averaged gradient step; :class:`GaussianNll` is the Gaussian
negative-log-likelihood instance whose GD step with eta = sigma2
coincides exactly with the MLE mean update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from . import gaussian

__all__ = [
    "LossModel",
    "GdUpdater",
    "DivergenceError",
    "gd_update",
    "GaussianNll",
    "gaussian_nll",
    "check_gradient",
]


class DivergenceError(RuntimeError):
    """Raised when an update produces a non-finite parameter vector."""


@runtime_checkable
class LossModel(Protocol):
    """Behavior contract for loss-driven models.

    Implementations must be stateless apart from construction
    parameters so they can be shared freely across runs. ``loss`` is
    non-negative; ``grad`` must be the true gradient of ``loss`` in
    theta (checkable with :func:`check_gradient`). ``sample`` of a
    size gives that many float64 rows of theta's dimension. Models may
    additionally provide ``gd_step(theta, D, eta)`` with an
    algebraically equivalent but numerically preferable form of the
    averaged gradient step, which also takes a stack of runs, thetas
    (B, d) and batches (n, B, d), and gives each run the step it would
    get alone; ``sample_into(thetas, rngs, sizes, out)``, which fills
    ``out`` with the rows ``sample(theta, rng, size)`` would return for
    each run in turn (thetas as rows of a (runs, d) array), bit for bit
    and from the same streams; and ``expected_reward(theta)`` when a
    closed form exists, which also takes a stack of thetas (B, d) and
    gives each the reward it would get alone.
    ``reward`` of an (n, d) batch gives each row the reward of that row
    alone, so the rows of several runs can share one call.
    """

    def loss(self, x: np.ndarray, theta: np.ndarray) -> float: ...

    def grad(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray: ...

    def sample(
        self, theta: np.ndarray, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray: ...

    def reward(self, x: np.ndarray) -> float | np.ndarray: ...


@dataclass(frozen=True)
class GdUpdater:
    """Plain gradient descent with a fixed learning rate."""

    eta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta!r}")


def gd_update(
    theta: np.ndarray, D: np.ndarray, model: LossModel, upd: GdUpdater
) -> np.ndarray:
    """One averaged gradient step: theta - (eta/|D|) * sum_x grad(x, theta).

    Uses the model's own ``gd_step`` when it provides one. Raises
    ``ValueError`` on an empty batch and :class:`DivergenceError` when
    the step produces non-finite coordinates.
    """
    theta = np.asarray(theta, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if D.ndim == 1:
        D = D.reshape(-1, theta.size)
    if D.shape[0] == 0:
        raise ValueError("gd_update needs a non-empty batch")
    step = getattr(model, "gd_step", None)
    if step is not None:
        new = np.asarray(step(theta, D, upd.eta), dtype=np.float64)
    else:
        grads = np.stack([np.asarray(model.grad(x, theta), dtype=np.float64) for x in D])
        new = theta - upd.eta * grads.mean(axis=0)
    if not np.all(np.isfinite(new)):
        raise DivergenceError(f"gradient step produced non-finite theta: {new}")
    return new


@dataclass(frozen=True)
class GaussianNll:
    """Gaussian negative log-likelihood, constant term dropped:
    loss(x, theta) = ||x - theta||^2 / (2*sigma2), grad = (theta - x)/sigma2.

    Sampling, reward and expected reward are those of the
    Gaussian/exponential-reward pair in :mod:`gaussian`, bit for bit, so
    a GD run over this model with eta = sigma2 is exactly the MLE run.
    The parameters are validated once, at construction.
    """

    sigma2: float
    kappa2: float
    d: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive, got {self.sigma2!r}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        object.__setattr__(self, "_reward", gaussian.ExpReward(self.kappa2))
        object.__setattr__(
            self, "_r_star", gaussian.optimal_reward(self.d, self.sigma2, self.kappa2)
        )

    def loss(self, x: np.ndarray, theta: np.ndarray) -> float:
        diff = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        return float(diff @ diff) / (2.0 * self.sigma2)

    def grad(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return (np.asarray(theta, dtype=np.float64) - np.asarray(x, dtype=np.float64)) / self.sigma2

    def sample(
        self, theta: np.ndarray, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray:
        # gaussian.sample's expression, without a GaussianModel per call.
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
        return gaussian.reward(self._reward, x)

    def expected_reward(self, theta: np.ndarray) -> float | np.ndarray:
        # gaussian.expected_reward's expression; _r_star = (1+rho)^(-d/2).
        # vecdot gives each row theta @ theta bit for bit, and every theta
        # keeps its own math.exp, which np.exp does not always match.
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


def gaussian_nll(sigma2: float, kappa2: float, d: int) -> GaussianNll:
    """Gaussian NLL loss model over N(theta, sigma2 I_d) with the
    exponential reward of flatness kappa2."""
    return GaussianNll(sigma2=sigma2, kappa2=kappa2, d=d)


def check_gradient(
    model: LossModel, theta: np.ndarray, x: np.ndarray, h: float = 1e-5
) -> float:
    """Max absolute error between ``model.grad`` and a central finite
    difference of ``model.loss``, coordinate by coordinate."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h!r}")
    theta = np.asarray(theta, dtype=np.float64)
    analytic = np.asarray(model.grad(x, theta), dtype=np.float64)
    worst = 0.0
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        numeric = (model.loss(x, theta + step) - model.loss(x, theta - step)) / (2.0 * h)
        worst = max(worst, abs(numeric - analytic[j]))
    return worst
