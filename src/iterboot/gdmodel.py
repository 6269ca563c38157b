"""Loss-based model interface and the gradient-descent updater.

A :class:`LossModel` bundles the four behaviors the bootstrapping loop
needs from a trainable generator: per-sample loss, its gradient in the
parameters, sampling, and a reward in [0, 1]. :func:`gd_update` applies
one averaged gradient step. The Gaussian instance,
:class:`~iterboot.gaussian.GaussianNll`, lives with the pair it models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .policy import check_positive

__all__ = [
    "LossModel",
    "GdUpdater",
    "DivergenceError",
    "gd_update",
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
        check_positive("eta", self.eta)


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


def check_gradient(
    model: LossModel, theta: np.ndarray, x: np.ndarray, h: float = 1e-5
) -> float:
    """Max absolute error between ``model.grad`` and a central finite
    difference of ``model.loss``, coordinate by coordinate."""
    check_positive("h", h)
    theta = np.asarray(theta, dtype=np.float64)
    analytic = np.asarray(model.grad(x, theta), dtype=np.float64)
    worst = 0.0
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        numeric = (model.loss(x, theta + step) - model.loss(x, theta - step)) / (2.0 * h)
        worst = max(worst, abs(numeric - analytic[j]))
    return worst
