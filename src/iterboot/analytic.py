"""Closed-form analytics for the Gaussian/exponential-reward setting.

Everything here derives from one MLE step, held by ``_StepLaw``: with
g = 1 + sigma2/kappa2, an iteration on n_t accepted samples maps the
parameter law N(mu, var*I_d) to N(mu/g, (var/g^2 + sigma2/(n_t*g))*I_d).
Iterated from theta0, it gives the exact marginal law of theta^(T), the
expected final reward, the gap to the optimum and the expected cost
curves; its powers of g give the budget-optimal schedule (counts
proportional to g^t) and its optimality hypothesis; its fixed point is
the variance floor of constant schedules. A brute-force enumerator over
integer compositions serves as an independent oracle for the
optimal-schedule construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Literal, Sequence

import numpy as np

from .gaussian import check_theta, optimal_reward
from .policy import CostModel, Schedule, check_positive, check_positive_int

__all__ = [
    "MarginalLaw",
    "PolicyEvaluation",
    "marginal",
    "expected_final_reward",
    "continuous_optimum",
    "optimal_schedule",
    "brute_force_optimal",
    "t_star",
    "variance_floor",
    "cost_curve",
    "BRUTE_FORCE_MAX_BUDGET",
    "BRUTE_FORCE_MAX_ITERS",
]

BRUTE_FORCE_MAX_BUDGET = 60
BRUTE_FORCE_MAX_ITERS = 4


@dataclass(frozen=True, eq=False)
class MarginalLaw:
    """Exact law of theta^(T) under MLE updates: N(mu, sigma2_T * I_d), d = mu.size."""

    mu: np.ndarray
    sigma2_T: float


@dataclass(frozen=True, eq=False)
class PolicyEvaluation:
    """Analytic curves over the prefixes T = 1..len(schedule.n) of
    ``schedule``, the :class:`Schedule` that :func:`cost_curve` built
    from its argument; entry T-1 of each curve is prefix T's.

    ``reward`` is the expected final reward E[r(theta^(T))], ``gap`` is
    r* minus that, ``cum_cost`` the expected cumulative cost, and
    ``mean_N`` the exact expected draw count E[N_t] of each iteration,
    which the generation term bills. ``mu`` (shape (T, d)) and
    ``sigma2_T`` carry the marginal-law trajectory.
    """

    schedule: Schedule
    reward: np.ndarray
    gap: np.ndarray
    cum_cost: np.ndarray
    mean_N: np.ndarray
    mu: np.ndarray
    sigma2_T: np.ndarray
    r_star: float


def _check_budget(C: int, T: int) -> tuple[int, int]:
    """C and T as ints, after checking that both are integers >= 1 and
    C >= T."""
    C, T = check_positive_int("C", C), check_positive_int("T", T)
    if C < T:
        raise ValueError(f"budget below one sample per iteration: C={C} < T={T}")
    return C, T


class _StepLaw:
    """The MLE step on the parameter law N(mu, var*I_d), with
    g = 1 + sigma2/kappa2: theta' ~ N(mu/g, (var/g^2 + sigma2/(n_t*g))*I_d).
    It divides by g: multiplying by 1/g would move the last bits of the
    analytic output files. Raises ``ValueError`` unless sigma2 and kappa2
    are positive finite reals."""

    def __init__(self, sigma2: float, kappa2: float) -> None:
        check_positive("sigma2", sigma2)
        check_positive("kappa2", kappa2)
        self.rho = sigma2 / kappa2
        self.g = 1.0 + self.rho
        self.sigma2 = sigma2

    def power(self, k: float) -> float:
        """g**k, or inf where that exceeds the float range; the terms
        it divides then vanish, as they do in exact arithmetic."""
        try:
            return self.g**k
        except OverflowError:
            return math.inf

    def trajectory(
        self, theta0: np.ndarray, ns: Sequence[int]
    ) -> Iterator[tuple[np.ndarray, float]]:
        """(mu_t, var_t) of theta^(t) for t = 1..len(ns), starting from
        the point mass at theta0."""
        mu, var = theta0, 0.0
        for n in ns:
            mu = mu / self.g
            var = var / self.power(2) + self.sigma2 / (n * self.g)
            yield mu, var


def _reward(mu: np.ndarray, var: float, d: int, sigma2: float, kappa2: float) -> float:
    s = sigma2 + kappa2 + var
    return (kappa2 / s) ** (d / 2.0) * math.exp(-float(mu @ mu) / (2.0 * s))


def marginal(
    theta0: np.ndarray | float,
    schedule: Schedule | Sequence[int],
    sigma2: float,
    kappa2: float,
) -> MarginalLaw:
    """Marginal law of theta^(T) after ``schedule``, the step law's last row:

    mu_T = theta0 / (1+rho)^T,
    sigma2_T = sigma2 * sum_t 1 / (n_t * (1+rho)^(2(T-t)-1)).

    A sequence is read as ``Schedule(tuple(schedule))``. Raises
    ``ValueError`` where :class:`Schedule` does (an empty schedule, an
    entry that is not an integer >= 1), for a theta0 that ``check_theta``
    rejects, or sigma2, kappa2 not positive finite.
    """
    ns = (schedule if isinstance(schedule, Schedule) else Schedule(tuple(schedule))).n
    theta0 = check_theta("theta0", theta0)
    *_, (mu, var) = _StepLaw(sigma2, kappa2).trajectory(theta0, ns)
    return MarginalLaw(mu=mu, sigma2_T=var)


def expected_final_reward(law: MarginalLaw, sigma2: float, kappa2: float) -> float:
    """E over theta^(T) of the expected reward, in closed form:
    (kappa2 / (sigma2+kappa2+sigma2_T))^(d/2)
        * exp(-||mu||^2 / (2*(sigma2+kappa2+sigma2_T))).
    """
    return _reward(law.mu, law.sigma2_T, law.mu.size, sigma2, kappa2)


def continuous_optimum(C: int, T: int, sigma2: float, kappa2: float) -> np.ndarray:
    """Real-valued budget-optimal counts n_t = C*(1+rho)^t / sum_k (1+rho)^k.
    Raises ``ValueError`` for T < 1, C < T, sigma2, kappa2 not positive
    finite, or weights C*(1+rho)^t beyond the float range."""
    C, T = _check_budget(C, T)
    law = _StepLaw(sigma2, kappa2)
    with np.errstate(over="ignore"):
        weights = np.array([law.power(t) for t in range(T)])
        total = weights.sum()
        if not math.isfinite(C * total):
            raise ValueError(f"weights C*(1+rho)**t overflow a float at horizon T={T}")
    return C * weights / total


def optimal_schedule(
    C: int,
    T: int,
    sigma2: float,
    kappa2: float,
    theta0: np.ndarray | float | None = None,
) -> Schedule:
    """Budget-optimal schedule: counts proportional to (1+rho)^t.

    The :func:`continuous_optimum` is rounded by largest-remainder
    apportionment so the entries sum to C exactly; zero entries
    (possible when C barely exceeds T) are repaired by moving units
    from the largest entry and flagged via ``clamped``. Proportionality
    fixes the schedule only up to shifts for a fixed T, so the
    t=0-anchored representative is returned.

    When ``theta0`` is supplied, warns if it violates the
    initial-condition hypothesis ||theta0|| <= (1+rho)^T*sqrt(d*(sigma2+kappa2))
    under which this schedule is provably optimal. Raises ``ValueError``
    where :func:`continuous_optimum` does, and for a theta0 ``check_theta`` rejects.
    """
    continuous = continuous_optimum(C, T, sigma2, kappa2)
    if theta0 is not None:
        theta0 = check_theta("theta0", theta0)
    floors = np.floor(continuous).astype(int)
    remainder = int(C - floors.sum())
    # Stable sort on descending fractional part; earlier index wins ties.
    order = np.argsort(-(continuous - floors), kind="stable")
    floors[order[:remainder]] += 1
    clamped = False
    while (floors == 0).any():
        clamped = True
        floors[int(np.argmax(floors == 0))] += 1
        floors[int(np.argmax(floors))] -= 1
    if theta0 is not None:
        bound = _StepLaw(sigma2, kappa2).power(T) * math.sqrt(theta0.size * (sigma2 + kappa2))
        norm = float(np.linalg.norm(theta0))
        if norm > bound:
            warnings.warn(
                f"||theta0|| = {norm:.6g} exceeds the optimality hypothesis "
                f"bound {bound:.6g}; the schedule may not be optimal",
                stacklevel=2,
            )
    return Schedule(tuple(int(v) for v in floors), clamped=clamped)


def brute_force_optimal(
    C: int, T: int, sigma2: float, kappa2: float
) -> tuple[Schedule, float]:
    """Exhaustively minimize sigma2_T over all compositions of C into T
    positive parts. Independent oracle for :func:`optimal_schedule`;
    capped at C <= 60, T <= 4 to keep the enumeration manageable."""
    C, T = _check_budget(C, T)
    if C > BRUTE_FORCE_MAX_BUDGET or T > BRUTE_FORCE_MAX_ITERS:
        raise ValueError(
            f"instance too large for enumeration: need C <= {BRUTE_FORCE_MAX_BUDGET} "
            f"and T <= {BRUTE_FORCE_MAX_ITERS}, got C={C}, T={T}"
        )
    law = _StepLaw(sigma2, kappa2)
    w = np.array([sigma2 / law.power(2 * (T - t) - 1) for t in range(T)])
    if T == 1:
        comps = np.array([[C]])
    else:
        cuts = np.array(list(combinations(range(1, C), T - 1)))
        bounds = np.hstack(
            [np.zeros((len(cuts), 1), dtype=int), cuts, np.full((len(cuts), 1), C)]
        )
        comps = np.diff(bounds, axis=1)
    values = (w / comps).sum(axis=1)
    best = int(np.argmin(values))
    return Schedule(tuple(int(v) for v in comps[best])), float(values[best])


def variance_floor(n0: int, sigma2: float, kappa2: float) -> float:
    """Limit of sigma2_T as T grows under the constant schedule n_t = n0,
    the step law's fixed point (sigma2/n0) * (1+rho) / ((1+rho)^2 - 1),
    written as kappa2 * (1+rho) / (n0 * (2+rho)) (since sigma2/rho = kappa2),
    which neither overflows at a large rho nor divides by 0 at a tiny one."""
    n0 = check_positive_int("n0", n0)
    law = _StepLaw(sigma2, kappa2)
    return kappa2 * law.g / (n0 * (2.0 + law.rho))


def cost_curve(
    schedule: Schedule | Sequence[int],
    theta0: np.ndarray | float,
    sigma2: float,
    kappa2: float,
    cost: CostModel,
    n_t_expectation: Literal["ratio", "quadrature"] = "ratio",
) -> PolicyEvaluation:
    """Analytic reward/gap/cost curves over prefixes of ``schedule``.

    The generation term bills E[N_t] = n_t * E[1/r(theta)] exactly, over
    the law N(mu, v*I_d) of theta before iteration t (the point mass at
    theta0 for t = 1), with s = sigma2 + kappa2:
    E[1/r] = (1+rho)^(d/2) * (s/(s-v))^(d/2) * exp(||mu||^2 / (2*(s-v))).
    v < s, since with every count >= 1 v stays below variance_floor(1)
    = kappa2*(1+rho)/(2+rho), under s/2.

    ``n_t_expectation`` is an accepted name only: "ratio" and
    "quadrature" both select this closed form. It is kept because
    perfbench's probes pass it, and goes when they stop.

    A sequence is read as ``Schedule(tuple(schedule))``. Raises
    ``ValueError`` where :class:`Schedule` does (an empty schedule, an
    entry that is not an integer >= 1), for any other ``n_t_expectation``,
    a theta0 that ``check_theta`` rejects, or sigma2, kappa2 not positive
    finite, and one naming the iteration T at which E[1/r] overflows.
    """
    schedule = schedule if isinstance(schedule, Schedule) else Schedule(tuple(schedule))
    theta0 = check_theta("theta0", theta0)
    if n_t_expectation not in ("ratio", "quadrature"):
        raise ValueError(f"unknown n_t_expectation {n_t_expectation!r}")
    law = _StepLaw(sigma2, kappa2)
    d = theta0.size
    r_star = optimal_reward(d, sigma2, kappa2)
    # Row t holds the law of theta^(t), row 0 the point mass at theta0.
    rows = [(theta0, 0.0), *law.trajectory(theta0, schedule.n)]
    mus = np.array([mu for mu, _ in rows])
    sig2s = np.array([var for _, var in rows])
    rewards = np.array([_reward(mu, var, d, sigma2, kappa2) for mu, var in rows[1:]])

    # E[N_t] reads the law before iteration t, rows 0..T-1. power(d/2)
    # stays a factor of its own: folded into s it would overflow first.
    norm2, slack = np.vecdot(mus[:-1], mus[:-1]), sigma2 + kappa2 - sig2s[:-1]
    with np.errstate(over="ignore"):
        inv_r = law.power(d / 2.0) * ((sigma2 + kappa2) / slack) ** (d / 2.0)
        inv_r *= np.exp(norm2 / (2.0 * slack))
    if not np.isfinite(inv_r).all():
        t = int(np.argmin(np.isfinite(inv_r)))
        raise ValueError(
            f"expected draws per accepted sample are infinite at T={t + 1}: "
            f"||mu||^2 = {norm2[t]:.6g}, parameter variance {sig2s[t]:.6g}"
        )
    counts = np.array(schedule.n, dtype=float)
    mean_N = counts * inv_r

    return PolicyEvaluation(
        schedule=schedule,
        reward=rewards,
        gap=r_star - rewards,
        cum_cost=np.cumsum(cost.bill(mean_N, counts)),
        mean_N=mean_N,
        mu=mus[1:],
        sigma2_T=sig2s[1:],
        r_star=r_star,
    )


def t_star(evaluation: PolicyEvaluation, eps: float) -> int | None:
    """Smallest evaluated T with gap <= eps, or None if never reached
    within the evaluated range (constant policies have a positive gap
    floor, so None is a real outcome, not just a truncation)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    hits = np.flatnonzero(evaluation.gap <= eps)
    if hits.size == 0:
        return None
    return int(hits[0]) + 1
