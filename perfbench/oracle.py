"""Closed forms the benchmark checks iterboot's outputs against, derived
here from the model rather than taken from ``iterboot.analytic``.

Gaussian pair: samples x ~ N(theta, sigma2 I_d), reward
r(x) = exp(-||x||^2 / (2 kappa2)), rho = sigma2 / kappa2, s = sigma2 + kappa2.
An accepted sample is N(theta/(1+rho), sigma2/(1+rho) I_d), so the mean of
n accepted samples is N(theta/(1+rho), sigma2/((1+rho) n) I_d), and the GD
step theta' = (1-c) theta + c mean(D) with c = eta/sigma2 gives

    theta' = a theta + N(0, c^2 sigma2 / ((1+rho) n) I_d),  a = 1 - c rho/(1+rho).

From theta0 the law stays N(mu_t, v_t I_d). MLE is the case c = 1.
"""

from __future__ import annotations

import math
from typing import Sequence


def gd_law(
    theta0: Sequence[float], ns: Sequence[int], sigma2: float, kappa2: float, eta: float
) -> list[tuple[list[float], float]]:
    """[(mu_t, v_t)] for t = 0..T: the law of theta before iteration t
    (index 0 is the point mass at theta0, index T the final law)."""
    rho = sigma2 / kappa2
    c = eta / sigma2
    a = 1.0 - c * rho / (1.0 + rho)
    mu, v = [float(x) for x in theta0], 0.0
    laws = [(mu, v)]
    for n in ns:
        mu = [a * m for m in mu]
        v = a * a * v + c * c * sigma2 / ((1.0 + rho) * n)
        laws.append((mu, v))
    return laws


def optimal_reward(d: int, sigma2: float, kappa2: float) -> float:
    return (kappa2 / (sigma2 + kappa2)) ** (d / 2.0)


def mean_reward(mu: Sequence[float], v: float, sigma2: float, kappa2: float) -> float:
    """E[r] for theta ~ N(mu, v I_d):
    (kappa2 / (s + v))^(d/2) exp(-||mu||^2 / (2 (s + v)))."""
    s = sigma2 + kappa2
    norm2 = sum(m * m for m in mu)
    return (kappa2 / (s + v)) ** (len(mu) / 2.0) * math.exp(-norm2 / (2.0 * (s + v)))


def inverse_acceptance_moment(
    mu: Sequence[float], v: float, sigma2: float, kappa2: float, k: int
) -> float:
    """E[p(theta)^-k] for theta ~ N(mu, v I_d), where p(theta) =
    (1+rho)^(-d/2) exp(-||theta||^2 / (2 s)) is the acceptance rate:
    (1+rho)^(k d/2) (1 - k v/s)^(-d/2) exp(k ||mu||^2 / (2 (s - k v)))."""
    s = sigma2 + kappa2
    if k * v >= s:
        raise ValueError(f"E[p^-{k}] diverges: {k} v = {k * v:.6g} >= s = {s:.6g}")
    d = len(mu)
    norm2 = sum(m * m for m in mu)
    rho = sigma2 / kappa2
    return (
        (1.0 + rho) ** (k * d / 2.0)
        * (1.0 - k * v / s) ** (-d / 2.0)
        * math.exp(k * norm2 / (2.0 * (s - k * v)))
    )


def draws_moments(
    n: int, mu: Sequence[float], v: float, sigma2: float, kappa2: float
) -> tuple[float, float]:
    """Mean and variance of N_t, the draws needed for n acceptances when
    theta ~ N(mu, v I_d). Given theta, N_t - n is negative binomial with
    n successes at rate p, so E[N|theta] = n/p and Var[N|theta] = n(1-p)/p^2."""
    m1 = inverse_acceptance_moment(mu, v, sigma2, kappa2, 1)
    m2 = inverse_acceptance_moment(mu, v, sigma2, kappa2, 2)
    mean = n * m1
    var = (n * n + n) * m2 - n * m1 - mean * mean
    return mean, var

