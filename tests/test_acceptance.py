"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the printed
lines; every tolerance is fixed here, not tuned at runtime.
"""

import math
from itertools import product

import numpy as np
import pytest

from iterboot import engine
from iterboot.analytic import (
    MarginalLaw,
    brute_force_optimal,
    cost_curve,
    expected_final_reward,
    marginal,
    optimal_schedule,
    t_star,
    variance_floor,
)
from iterboot.cli import main
from iterboot.csvio import read_agg_csv, write_agg_csv
from iterboot.engine import (
    CostModel,
    RunConfig,
    monte_carlo,
    run,
    run_seed,
    select_batch,
)
from iterboot.gaussian import ExpReward, GaussianModel, expected_reward, optimal_reward
from iterboot.policy import (
    BudgetConstant,
    BudgetLinear,
    Exponential,
    Schedule,
    materialize,
)

MASTER_SEED = 20250810
TRAIN_ONLY = CostModel(0.0, 1.0)
SIGMA2, KAPPA2 = 1.0, 2.0


def check(name: str, conditions: list[tuple[str, bool]]) -> None:
    failed = [label for label, ok in conditions if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {name}" + (f" (failed: {failed})" if failed else ""))
    assert not failed, f"{name}: failed {failed}"


@pytest.fixture(scope="module")
def toy():
    """The two-dimensional comparison experiment: three schemes, 1000 runs."""
    theta0 = np.array([1.0, 1.0])
    T = 15
    schedules = {
        "exponential": materialize(Exponential(10, 0.5), T),
        "linear": materialize(BudgetLinear(10, 0.5, "verbatim"), T),
        "constant": materialize(BudgetConstant(10, 0.5), T),
    }
    sims = {}
    anas = {}
    for label, sched in schedules.items():
        cfg = RunConfig(
            theta0=theta0,
            schedule=sched,
            cost=TRAIN_ONLY,
            seed=MASTER_SEED,
            sigma2=SIGMA2,
            kappa2=KAPPA2,
        )
        sims[label] = monte_carlo(cfg, 1000)
        anas[label] = cost_curve(sched, theta0, SIGMA2, KAPPA2, TRAIN_ONLY)
    return schedules, sims, anas


def test_criterion_1_lemma_moments():
    """d=1, theta0=1, schedule [10,10]: moments of theta^(2) over 1e5 runs."""
    runs = 100_000
    cfg = RunConfig(
        theta0=np.array([1.0]),
        schedule=Schedule((10, 10)),
        cost=TRAIN_ONLY,
        seed=MASTER_SEED,
        sigma2=SIGMA2,
        kappa2=KAPPA2,
    )
    seeds = [run_seed(cfg.seed, i) for i in range(runs)]
    # Lockstep blocks give each run what it gives alone, bit for bit.
    blocks = [
        engine._run_block(cfg, seeds[i : i + 16])
        for i in range(0, runs, 16)
    ]
    assert all(s == engine.COMPLETED for b in blocks for s in b.status)
    finals = np.concatenate([b.theta[:, -1, 0] for b in blocks])
    mean_want, var_want = 0.44444, 0.096296
    se_mean = math.sqrt(var_want / runs)
    se_var = math.sqrt(2.0 * var_want**2 / (runs - 1))
    check(
        "criterion 1: moments of the exact two-step law",
        [
            (f"mean {finals.mean():.5f} within 4se of {mean_want}",
             abs(finals.mean() - mean_want) <= 4 * se_mean),
            (f"variance {finals.var(ddof=1):.6f} within 5se of {var_want}",
             abs(finals.var(ddof=1) - var_want) <= 5 * se_var),
        ],
    )


def test_criterion_2_analytic_simulation_agreement(toy):
    """Every policy, every T: |simulated mean gap - analytic gap| <= 4 SE."""
    schedules, sims, anas = toy
    conditions = []
    for label in schedules:
        agg, ev = sims[label], anas[label]
        diff = np.abs(agg.mean_gap - ev.gap)
        worst = float(np.max(diff / (4 * agg.se_gap)))
        conditions.append((f"{label}: worst |diff|/4SE = {worst:.3f}", bool(np.all(diff <= 4 * agg.se_gap))))
        conditions.append(
            (f"{label}: costs match exactly", bool(np.allclose(agg.mean_cum_cost, ev.cum_cost)))
        )
    check("criterion 2: analytic-simulation agreement over all (policy, T)", conditions)


def test_criterion_3_policy_ordering(toy):
    """Gap ordering exp < linear < constant with >= 2 combined SEs, and the
    analytic cost-to-reach-epsilon ordering at eps = 2x the constant floor gap."""
    schedules, sims, anas = toy
    g = {k: float(sims[k].mean_gap[-1]) for k in schedules}
    se = {k: float(sims[k].se_gap[-1]) for k in schedules}

    def separated(a, b):
        return g[b] - g[a] >= 2.0 * math.hypot(se[a], se[b])

    n_const = schedules["constant"].n[0]
    floor_gap = optimal_reward(2, SIGMA2, KAPPA2) - expected_final_reward(
        MarginalLaw(mu=np.zeros(2), sigma2_T=variance_floor(n_const, SIGMA2, KAPPA2)),
        SIGMA2,
        KAPPA2,
    )
    eps = 2.0 * floor_gap
    costs = {}
    for label, ev in anas.items():
        ts = t_star(ev, eps)
        costs[label] = float(ev.cum_cost[ts - 1]) if ts is not None else math.inf
    check(
        "criterion 3: scheme ordering at matched budget and by cost-to-epsilon",
        [
            (f"gap exp {g['exponential']:.2e} < linear {g['linear']:.2e} (2 SE)",
             separated("exponential", "linear")),
            (f"gap linear {g['linear']:.2e} < constant {g['constant']:.2e} (2 SE)",
             separated("linear", "constant")),
            (f"cost-to-eps exp {costs['exponential']:.0f} < linear {costs['linear']:.0f}",
             costs["exponential"] < costs["linear"]),
            (f"cost-to-eps linear {costs['linear']:.0f} < constant {costs['constant']:.0f}",
             costs["linear"] < costs["constant"]),
        ],
    )


def test_criterion_4_brute_force_optimality():
    """Enumerated optimum vs apportioned schedule on the pinned cases."""
    cases = [
        (21, 3, 1.0, 1.0),
        (30, 3, 1.0, 1.0),
        (40, 3, 1.0, 2.0),  # rho = 0.5
        (24, 4, 1.0, 1.0),
    ]
    conditions = []
    for C, T, s2, k2 in cases:
        best, best_sig2 = brute_force_optimal(C, T, s2, k2)
        # independent re-enumeration with plain loops
        rho = s2 / k2
        w = [s2 / (1.0 + rho) ** (2 * (T - t) - 1) for t in range(T)]
        lowest = math.inf
        for head in product(range(1, C), repeat=T - 1):
            tail = C - sum(head)
            if tail < 1:
                continue
            comp = (*head, tail)
            lowest = min(lowest, sum(wi / ni for wi, ni in zip(w, comp)))
        sched = optimal_schedule(C, T, s2, k2)
        sig2 = marginal(0.0, sched, s2, k2).sigma2_T
        tag = f"(C={C},T={T},rho={rho:g})"
        conditions.append((f"{tag} brute matches exhaustive minimum", math.isclose(best_sig2, lowest, rel_tol=1e-12)))
        conditions.append((f"{tag} apportioned within 5% of brute", sig2 <= 1.05 * best_sig2))
        if (C, T) == (21, 3):
            conditions.append(("(21,3) brute is [3,6,12]", best.n == (3, 6, 12)))
            conditions.append(("(21,3) apportioned is [3,6,12]", sched.n == (3, 6, 12)))
    check("criterion 4: budget-optimal schedule vs exhaustive enumeration", conditions)


def test_criterion_5_constant_policy_floor():
    """Constant n0=10, d=1, T=60: the gap settles on the variance-floor value."""
    n0, T, runs = 10, 60, 1000
    theta0 = np.array([1.0])
    sched = Schedule((n0,) * T)
    ev = cost_curve(sched, theta0, SIGMA2, KAPPA2, TRAIN_ONLY)
    limit_gap = optimal_reward(1, SIGMA2, KAPPA2) - expected_final_reward(
        MarginalLaw(mu=np.zeros(1), sigma2_T=variance_floor(n0, SIGMA2, KAPPA2)),
        SIGMA2,
        KAPPA2,
    )
    cfg = RunConfig(
        theta0=theta0, schedule=sched, cost=TRAIN_ONLY, seed=MASTER_SEED,
        sigma2=SIGMA2, kappa2=KAPPA2,
    )
    agg = monte_carlo(cfg, runs)
    final_gap = float(agg.mean_gap[-1])
    final_se = float(agg.se_gap[-1])
    check(
        "criterion 5: constant-policy gap floor",
        [
            (f"analytic gap at T=60 within 1e-4 of limit {limit_gap:.6f}",
             abs(float(ev.gap[-1]) - limit_gap) <= 1e-4),
            (f"simulated mean gap {final_gap:.6f} within 4se of limit",
             abs(final_gap - limit_gap) <= 4 * final_se),
            ("simulated gap never falls below half the floor",
             bool(np.all(agg.mean_gap >= 0.5 * limit_gap))),
        ],
    )


def test_criterion_6_convergence_rate_probes():
    """Geometric convergence for the optimal-growth exponential schedule;
    flattening log-gap for the constant schedule."""
    theta0 = np.array([1.0, 1.0])
    exp_ev = cost_curve(materialize(Exponential(10, 0.5), 20), theta0, SIGMA2, KAPPA2, TRAIN_ONLY)
    T = np.arange(1, len(exp_ev.schedule.n) + 1)
    mask = (T >= 3) & (T <= 20)
    x = T[mask].astype(float)
    y = np.log(exp_ev.gap[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(resid @ resid) / float((y - y.mean()) @ (y - y.mean()))

    con_ev = cost_curve(Schedule((10,) * 20), theta0, SIGMA2, KAPPA2, TRAIN_ONLY)
    ly = np.log(con_ev.gap)
    early = np.polyfit(T[0:5].astype(float), ly[0:5], 1)[0]
    late = np.polyfit(T[14:20].astype(float), ly[14:20], 1)[0]
    check(
        "criterion 6: geometric-rate fit and constant-policy flattening",
        [
            (f"log-gap fit R^2 = {r2:.5f} >= 0.99 with negative slope", r2 >= 0.99 and slope < 0),
            (f"late slope {late:.2e} below 10% of early slope {early:.2e}",
             abs(late) < 0.1 * abs(early)),
        ],
    )


def test_criterion_7_gd_equals_mle():
    """gaussian NLL with eta = sigma2: trajectories bit-identical to MLE."""
    sched = materialize(Exponential(10, 0.5), 10)
    conditions = []
    for seed in (MASTER_SEED, MASTER_SEED + 1):
        base = dict(
            theta0=np.array([1.0, 1.0]), schedule=sched, cost=TRAIN_ONLY,
            seed=seed, sigma2=SIGMA2, kappa2=KAPPA2,
        )
        mle = run(RunConfig(**base))
        gd = run(RunConfig(eta=SIGMA2, **base))
        same = all(
            np.array_equal(a.theta_after, b.theta_after) and a.N_t == b.N_t
            for a, b in zip(mle.records, gd.records)
        )
        conditions.append((f"seed {seed}: bit-identical trajectory", same))
    check("criterion 7: gradient descent at eta=sigma2 reduces to MLE", conditions)


def test_criterion_8_selection_step_law():
    """theta=1, sigma2=1, kappa2=2: accepted-sample law and draw counts."""
    rng = np.random.default_rng(MASTER_SEED)
    m = GaussianModel(np.array([1.0]), SIGMA2)
    rw = ExpReward(KAPPA2)
    pool = np.concatenate(
        [select_batch(m, rw, 25_000, 10**6, rng)[0] for _ in range(4)]
    )[:, 0]
    n = pool.size
    mean_want = var_want = 2.0 / 3.0
    se_mean = math.sqrt(var_want / n)
    se_var = math.sqrt(2.0 * var_want**2 / (n - 1))

    n_t, trials = 100, 1000
    r = expected_reward(m, rw)
    draws = np.array([select_batch(m, rw, n_t, 10**5, rng)[1] for _ in range(trials)], float)
    nb_mean = n_t / r
    nb_se = math.sqrt(n_t * (1 - r) / r**2 / trials)
    check(
        "criterion 8: selection-step law",
        [
            (f"pooled mean {pool.mean():.4f} within 4se of 2/3",
             abs(pool.mean() - mean_want) <= 4 * se_mean),
            (f"pooled variance {pool.var(ddof=1):.4f} within 5se of 2/3",
             abs(pool.var(ddof=1) - var_want) <= 5 * se_var),
            (f"mean draw count {draws.mean():.2f} within 4se of {nb_mean:.1f} (~209.4)",
             abs(draws.mean() - nb_mean) <= 4 * nb_se),
        ],
    )


CONFIG_TEXT = """\
spec_version = 1

[model]
sigma2 = 1.0
kappa2 = 2.0
theta0 = 1.0, 1.0

[policy exp]
family = exponential
n0 = 10
u = 0.5

[policy const]
family = budget_constant
n0 = 10
u = 0.5

[run]
T = 6
runs = 60
master_seed = 20250810

[cost]
c_g = 0.0
c_t = 1.0

[output]
emit_svg = true
"""


def test_criterion_9_determinism_and_round_trip(tmp_path):
    """Fixed master seed: byte-identical CSV and SVG across invocations;
    CSV parse/emit round-trips exactly."""
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    args = ["simulate", "--config", str(cfg_path), "--out", str(out)]
    assert main(args) == 0
    csv_first = (out / "exp_agg.csv").read_bytes()
    svg_first = (out / "gap_vs_cost.svg").read_bytes()
    assert main(args) == 0
    csv_second = (out / "exp_agg.csv").read_bytes()
    svg_second = (out / "gap_vs_cost.svg").read_bytes()

    rows = read_agg_csv(out / "exp_agg.csv")
    write_agg_csv(out / "rewritten.csv", rows)
    round_trip = (out / "rewritten.csv").read_bytes() == csv_second
    check(
        "criterion 9: determinism and byte-exact round trips",
        [
            ("CSV byte-identical across invocations", csv_first == csv_second),
            ("SVG byte-identical across invocations", svg_first == svg_second),
            ("CSV parse/emit round-trips exactly", round_trip),
        ],
    )
