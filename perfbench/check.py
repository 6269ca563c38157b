"""Correctness checks of each workload's outputs, against the closed forms
in ``oracle`` and against properties the method must have.

Each ``check_<workload>`` takes the workload's successful rounds (as
recorded by run.py) and returns (problems, operations attempted,
operations failed); no problems means correct. CSV files are parsed here
with the csv module, not with iterboot's reader.

Simulated means are pooled over the rounds of a run (rounds are
independent seeds) and compared with the closed forms in units of their
standard error. A run makes m such comparisons (m is fixed by the
workload), so each must lie within z_m SE, where z_m makes the m
comparisons of correct output fail together as rarely as one comparison
at 4 SE (two-sided, P = 6.3e-5): z_1 = 4, z_32 = 4.76, z_45 = 4.82,
z_108 = 5.00. Held to 4 SE each, the 108 comparisons of a small_sweep
run would fail by chance about once in 150 correct runs.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path
from statistics import NormalDist

import oracle

ALPHA = 2.0 * (1.0 - NormalDist().cdf(4.0))  # false-alarm rate of one 4-SE comparison


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            if key not in ("policy_label", "source"):
                row[key] = float(value)
    return sorted(rows, key=lambda r: r["T"])


class Agreement:
    """Simulated means against closed forms, judged as one family."""

    def __init__(self) -> None:
        self.items: list[tuple[str, float, float, float]] = []

    def add(self, what: str, got: float, want: float, se: float) -> None:
        self.items.append((what, got, want, se))

    def problems(self) -> list[str]:
        if not self.items:
            return []
        z_m = NormalDist().inv_cdf(1.0 - ALPHA / (2 * len(self.items)))
        out = []
        worst = 0.0
        for what, got, want, se in self.items:
            if not se > 0:
                out.append(f"{what}: standard error {se!r} is not positive")
                continue
            z = abs(got - want) / se
            worst = max(worst, z)
            if z > z_m:
                out.append(f"{what}: {got:.9g} vs {want:.9g} is {z:.2f} SE apart (limit {z_m:.2f})")
        print(f"check: worst of {len(self.items)} comparisons {worst:.2f} SE (limit {z_m:.2f})", file=sys.stderr)
        return out


def pooled(per_round: list[list[dict]]) -> list[dict]:
    """Rows of one policy pooled over rounds: means weighted by completed
    runs, standard errors of the pooled mean, runs summed."""
    out = []
    for rows in zip(*per_round):
        c = [r["runs_completed"] for r in rows]
        total = sum(c)
        out.append(
            {
                "T": rows[0]["T"],
                "n_t": int(rows[0]["n_t"]),
                "runs_completed": total,
                "mean_gap": sum(ci * r["mean_gap"] for ci, r in zip(c, rows)) / total,
                "se_gap": math.sqrt(sum((ci * r["se_gap"]) ** 2 for ci, r in zip(c, rows))) / total,
                "mean_N_t": sum(ci * r["mean_N_t"] for ci, r in zip(c, rows)) / total,
            }
        )
    return out


def compare_with_law(agree, problems, where, rows, model, eta, every_gap, check_draws) -> None:
    """Pooled gaps (at every T, or the final one) and, if asked, mean_N_t
    of one policy against the GD law. Under MLE (eta = sigma2) the gaps
    are compared with ``iterboot.analytic.cost_curve``, which must equal
    the law's own."""
    ns = [r["n_t"] for r in rows]
    sigma2, kappa2, theta0 = model["sigma2"], model["kappa2"], model["theta0"]
    laws = oracle.gd_law(theta0, ns, sigma2, kappa2, eta)
    r_star = oracle.optimal_reward(len(theta0), sigma2, kappa2)
    gaps = [r_star - oracle.mean_reward(mu, v, sigma2, kappa2) for mu, v in laws[1:]]
    source = "GD law"
    if eta == sigma2:
        from iterboot import analytic, engine

        ev = analytic.cost_curve(ns, theta0, sigma2, kappa2, engine.CostModel(0.0, 1.0))
        for t, (gap, own) in enumerate(zip(ev.gap, gaps)):
            if not math.isclose(gap, own, rel_tol=1e-9):
                problems.append(f"{where} T={t + 1}: cost_curve gap {gap!r} != closed form {own!r}")
        gaps, source = [float(g) for g in ev.gap], "cost_curve"
    for t, row in enumerate(rows):
        if every_gap or t == len(rows) - 1:
            agree.add(f"{where} T={t + 1} gap vs {source}", row["mean_gap"], gaps[t], row["se_gap"])
        if check_draws:
            mu, v = laws[t]
            mean, var = oracle.draws_moments(ns[t], mu, v, sigma2, kappa2)
            agree.add(
                f"{where} T={t + 1} mean_N_t vs E[N_t]",
                row["mean_N_t"], mean, math.sqrt(var / row["runs_completed"]),
            )


def check_simulate(rounds, params, check_draws) -> tuple[list, "Agreement", int, int]:
    """Agreement of a ``simulate`` workload with the MLE law; returns
    (problems, comparisons, Monte Carlo runs attempted, runs failed)."""
    problems: list[str] = []
    agree = Agreement()
    attempted = failed = 0
    model = params["model"]
    for label in params["labels"]:
        per_round = [read_rows(Path(rnd["out"]) / f"{label}_agg.csv") for rnd in rounds]
        for rows in per_round:
            attempted += params["runs"]
            failed += params["runs"] - int(rows[-1]["runs_completed"])
        compare_with_law(agree, problems, label, pooled(per_round), model, model["sigma2"], True, check_draws)
    return problems, agree, attempted, failed


def check_paper_toy(rounds, params) -> tuple[list, int, int]:
    problems, agree, attempted, failed = check_simulate(rounds, params, False)
    golden = Path(params["golden"])
    for rnd in rounds:
        out = Path(rnd["out"])
        final = {}
        for label in params["labels"]:
            rows = read_rows(out / f"{label}_agg.csv")
            final[label] = rows[-1]["mean_gap"]
            total = 0
            for row in rows:
                total += int(row["n_t"])
                if row["mean_cum_cost"] != total:
                    problems.append(
                        f"round {rnd['index']} {label} T={int(row['T'])}: mean_cum_cost "
                        f"{row['mean_cum_cost']!r} != sum n_t {total}"
                    )
        if not final["exponential"] < final["linear"] < final["constant"]:
            problems.append(f"round {rnd['index']}: final gaps not ordered exponential < linear < constant: {final}")
        if rnd["seed"] is None:
            for name in params["golden_files"]:
                if (out / name).read_bytes() != (golden / name).read_bytes():
                    problems.append(f"round {rnd['index']}: {name} differs from {golden / name}")
    return problems + agree.problems(), attempted, failed


def check_low_accept(rounds, params) -> tuple[list, int, int]:
    problems, agree, attempted, failed = check_simulate(rounds, params, True)
    return problems + agree.problems(), attempted, failed


def check_small_sweep(rounds, params) -> tuple[list, int, int]:
    problems: list[str] = []
    agree = Agreement()
    attempted = failed = 0
    want = len(params["values"]) * len(params["labels"])
    for rnd in rounds:
        with open(Path(rnd["out"]) / "sweep_summary.csv", newline="", encoding="utf-8") as fh:
            keys = [(row["value"], row["policy_label"]) for row in csv.DictReader(fh)]
        if len(keys) != want or len(set(keys)) != want:
            problems.append(f"round {rnd['index']}: summary has {len(set(keys))} distinct of {len(keys)} rows, want {want}")
    for value in params["values"]:
        model = {**params["model"], "kappa2": value}
        for label in params["labels"]:
            where = f"kappa2={value:g} {label}"
            per_round = [
                read_rows(Path(rnd["out"]) / f"sweep_model_kappa2_{value:g}" / f"{label}_agg.csv")
                for rnd in rounds
            ]
            for rnd, rows in zip(rounds, per_round):
                attempted += params["runs"]
                failed += params["runs"] - int(rows[-1]["runs_completed"])
                cum = 0.0
                for row in rows:
                    cum += params["c_g"] * row["mean_N_t"] + params["c_t"] * row["n_t"]
                    if not math.isclose(row["mean_cum_cost"], cum, rel_tol=1e-7):
                        problems.append(
                            f"round {rnd['index']} {where} T={int(row['T'])}: mean_cum_cost "
                            f"{row['mean_cum_cost']!r} != {cum!r}"
                        )
            compare_with_law(agree, problems, where, pooled(per_round), model, params["eta"], False, True)
    return problems + agree.problems(), attempted, failed

