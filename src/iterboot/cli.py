"""Command-line front end.

Subcommands:

* ``simulate``       Monte Carlo runs per configured policy; aggregate CSVs
                     plus an optional gap-vs-cost SVG.
* ``analytic``       closed-form curves for the same config, same CSV schema.
* ``optimal-policy`` budget-optimal schedule for (C, T, sigma2, kappa2),
                     with an optional brute-force check.
* ``sweep``          repeat ``simulate`` along one numeric config axis.
* ``compare``        join simulated and analytic CSVs and report the worst
                     gap disagreement in standard-error units.

Exit codes: 0 success, 1 validation problem, 2 runtime failure. All
state flows through flags and the config file; no environment variables.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytic, engine
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_override,
    build_schedule,
    load_config,
)
from .csvio import (
    aggregate_rows,
    analytic_rows,
    format_float,
    law_csv_text,
    read_agg_csv,
    run_trace_csv_text,
    write_agg_csv,
    write_text_atomic,
)
from .svgplot import Series, render_gap_vs_cost

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _apply_flag_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "svg", None) is not None:
        cfg = replace(cfg, emit_svg=args.svg)
    return cfg


def _check_counts(args: argparse.Namespace) -> None:
    """Reject a pool width below 1 and a negative trace count."""
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if getattr(args, "traces", 0) < 0:
        raise ConfigError(f"--traces must be >= 0, got {args.traces}")


def _run_config(cfg: ExperimentConfig, schedule) -> engine.RunConfig:
    return engine.RunConfig(
        theta0=cfg.theta0,
        schedule=schedule,
        cost=engine.CostModel(cfg.c_g, cfg.c_t),
        seed=cfg.master_seed,
        sigma2=cfg.sigma2,
        kappa2=cfg.kappa2,
        eta=cfg.eta,
        max_draws_per_iter=cfg.max_draws_per_iter,
        divergence_cap=cfg.divergence_cap,
        eval_samples=cfg.eval_samples,
    )


def _simulate_into(
    points: list[tuple[ExperimentConfig, Path]], workers: int, traces: int = 0
) -> list[dict]:
    """Run every configured policy of every ``(cfg, out_dir)`` point as
    one batch of Monte Carlo jobs, on one process pool when ``workers > 1``,
    and write each point's files as its aggregates arrive, while the pool
    runs the later jobs' blocks; returns each point's status summary. The
    same master seed drives every policy (common random numbers), which
    only sharpens cross-policy comparisons."""
    jobs = [
        (_run_config(cfg, build_schedule(p, cfg.T)), cfg.runs) for cfg, _ in points for p in cfg.policies
    ]
    summaries = []
    # Closing the generator on an error cancels the blocks still queued.
    with contextlib.closing(engine.monte_carlo_jobs(jobs, workers, traces=traces)) as aggs:
        for cfg, out_dir in points:
            out_dir.mkdir(parents=True, exist_ok=True)
            summary: dict[str, dict[str, int]] = {}
            series = []
            for p in cfg.policies:
                agg = next(aggs)
                write_agg_csv(out_dir / f"{p.label}_agg.csv", aggregate_rows(p.label, agg))
                for i, trace in enumerate(agg.traces):
                    write_text_atomic(out_dir / f"{p.label}_run{i}.csv", run_trace_csv_text(trace))
                summary[p.label] = {
                    "completed": agg.runs_completed,
                    "diverged": agg.runs_diverged,
                    "draw_cap_hit": agg.runs_draw_capped,
                    "clipped_rewards": agg.clipped_rewards,
                }
                series.append(Series(p.label, agg.mean_cum_cost, agg.mean_gap, agg.se_gap))
            if cfg.emit_svg:
                write_text_atomic(out_dir / "gap_vs_cost.svg", render_gap_vs_cost(series))
            summaries.append(summary)
    return summaries


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        _check_counts(args)
        cfg = _apply_flag_overrides(load_config(args.config), args)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    try:
        [summary] = _simulate_into([(cfg, Path(cfg.out_dir))], args.workers, args.traces)
    except (RuntimeError, ValueError) as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    print(json.dumps({"command": "simulate", "out": cfg.out_dir, "status": summary}, indent=2))
    return EXIT_OK


def cmd_analytic(args: argparse.Namespace) -> int:
    try:
        cfg = _apply_flag_overrides(load_config(args.config), args)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    if cfg.eta not in (None, cfg.sigma2):
        return _fail(
            "analytic curves hold for MLE updates only; eta must be unset or equal sigma2",
            EXIT_VALIDATION,
        )
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cost = engine.CostModel(cfg.c_g, cfg.c_t)
    series = []
    for p in cfg.policies:
        schedule = build_schedule(p, cfg.T)
        try:
            ev = analytic.cost_curve(schedule, cfg.theta0, cfg.sigma2, cfg.kappa2, cost)
        except ValueError as exc:
            return _fail(f"policy {p.label!r}: {exc}", EXIT_RUNTIME)
        write_agg_csv(out_dir / f"{p.label}_analytic.csv", analytic_rows(p.label, ev))
        write_text_atomic(out_dir / f"{p.label}_law.csv", law_csv_text(p.label, ev))
        series.append(Series(p.label, ev.cum_cost, ev.gap, None))
    if cfg.emit_svg:
        write_text_atomic(
            out_dir / "analytic_gap_vs_cost.svg",
            render_gap_vs_cost(series, title="analytic gap vs cumulative cost"),
        )
    print(json.dumps({"command": "analytic", "out": cfg.out_dir, "policies": [p.label for p in cfg.policies]}, indent=2))
    return EXIT_OK


def cmd_optimal_policy(args: argparse.Namespace) -> int:
    C, T = args.budget, args.iters
    theta0 = np.array(args.theta0, dtype=float) if args.theta0 else None
    try:
        schedule = analytic.optimal_schedule(C, T, args.sigma2, args.kappa2, theta0)
    except ValueError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    continuous = analytic.continuous_optimum(C, T, args.sigma2, args.kappa2)
    ns = list(schedule.n)
    sig2 = analytic.marginal(
        theta0 if theta0 is not None else 0.0, schedule, args.sigma2, args.kappa2
    ).sigma2_T
    print(f"continuous optimum: [{', '.join(format_float(v) for v in continuous)}]")
    print(f"integer schedule:   {ns}")
    print(f"sigma2_T:           {format_float(sig2)}")
    if args.verify:
        if C > analytic.BRUTE_FORCE_MAX_BUDGET or T > analytic.BRUTE_FORCE_MAX_ITERS:
            return _fail(
                f"--verify needs C <= {analytic.BRUTE_FORCE_MAX_BUDGET} and "
                f"T <= {analytic.BRUTE_FORCE_MAX_ITERS}",
                EXIT_VALIDATION,
            )
        best, best_sig2 = analytic.brute_force_optimal(C, T, args.sigma2, args.kappa2)
        print(f"brute force:        {list(best.n)}")
        print(f"brute sigma2_T:     {format_float(best_sig2)}")
        ratio = sig2 / best_sig2 if best_sig2 > 0 else float("inf")
        print(f"apportioned/brute sigma2_T ratio: {format_float(ratio)}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        _check_counts(args)
        cfg = _apply_flag_overrides(load_config(args.config), args)
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
        if not values:
            raise ConfigError("sweep needs a non-empty --values list")
        names = [f"{v:g}" for v in values]
        if len(set(names)) != len(names):
            # Point directories and summary rows are named by {value:g}.
            raise ConfigError(f"--values {args.values!r} repeat a point name: {names}")
        swept = [apply_override(cfg, args.axis, v) for v in values]
    except (ConfigError, ValueError) as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    base = Path(cfg.out_dir)
    axis_slug = args.axis.replace(".", "_")
    summary_lines = ["axis,value,policy_label,final_T,mean_gap,se_gap"]
    sub_dirs = [base / f"sweep_{axis_slug}_{value:g}" for value in values]
    try:
        _simulate_into(list(zip(swept, sub_dirs)), args.workers)
        for value, sub_cfg, sub_dir in zip(values, swept, sub_dirs):
            for p in sub_cfg.policies:
                rows = read_agg_csv(sub_dir / f"{p.label}_agg.csv")
                final = max(rows, key=lambda r: r.T)
                summary_lines.append(
                    ",".join(
                        [
                            args.axis,
                            f"{value:g}",
                            p.label,
                            str(final.T),
                            format_float(final.mean_gap),
                            format_float(final.se_gap),
                        ]
                    )
                )
    except (RuntimeError, ValueError) as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    base.mkdir(parents=True, exist_ok=True)
    write_text_atomic(base / "sweep_summary.csv", "\n".join(summary_lines) + "\n")
    print(json.dumps({"command": "sweep", "axis": args.axis, "values": values, "out": str(base)}, indent=2))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        cfg = _apply_flag_overrides(load_config(args.config), args)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    out_dir = Path(cfg.out_dir)
    report: dict[str, float] = {}
    worst = 0.0
    for p in cfg.policies:
        sim_path = out_dir / f"{p.label}_agg.csv"
        ana_path = out_dir / f"{p.label}_analytic.csv"
        if not sim_path.exists() or not ana_path.exists():
            return _fail(
                f"missing {sim_path.name} or {ana_path.name} in {out_dir} "
                f"(run simulate and analytic first)",
                EXIT_VALIDATION,
            )
        sim = {r.T: r for r in read_agg_csv(sim_path)}
        ana = {r.T: r for r in read_agg_csv(ana_path)}
        if {T: r.n_t for T, r in sim.items()} != {T: r.n_t for T, r in ana.items()}:
            return _fail(
                f"policy {p.label!r}: simulated and analytic rows differ in their T "
                f"values or n_t (was one of them run with another config?)",
                EXIT_VALIDATION,
            )
        zero_se = [T for T in sorted(sim) if sim[T].se_gap <= 0]
        if zero_se:
            return _fail(
                f"policy {p.label!r}: simulated se_gap is 0 at T={zero_se[0]}, "
                f"so the gap difference has no standard-error scale",
                EXIT_RUNTIME,
            )
        label_worst = max(
            (abs(sim[T].mean_gap - ana[T].mean_gap) / sim[T].se_gap for T in sim), default=0.0
        )
        report[p.label] = label_worst
        worst = max(worst, label_worst)
    print(
        json.dumps(
            {
                "command": "compare",
                "max_abs_gap_diff_over_se": {k: round(v, 6) for k, v in report.items()},
                "overall": round(worst, 6),
            },
            indent=2,
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterboot",
        description="Iterative synthetic-data bootstrapping: simulation and exact analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="master seed (overrides the config)")
        svg = p.add_mutually_exclusive_group()
        svg.add_argument("--svg", dest="svg", action="store_true", default=None)
        svg.add_argument("--no-svg", dest="svg", action="store_false", default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation per policy")
    add_common(p_sim)
    p_sim.add_argument("--workers", type=int, default=1, help="process-pool width")
    p_sim.add_argument(
        "--traces", type=int, default=0,
        help="also write the first N per-run trace CSVs per policy",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analytic", help="closed-form curves per policy")
    add_common(p_ana)
    p_ana.set_defaults(func=cmd_analytic)

    p_opt = sub.add_parser("optimal-policy", help="budget-optimal schedule")
    p_opt.add_argument("--budget", "-C", type=int, required=True)
    p_opt.add_argument("--iters", "-T", type=int, required=True)
    p_opt.add_argument("--sigma2", type=float, required=True)
    p_opt.add_argument("--kappa2", type=float, required=True)
    p_opt.add_argument("--theta0", type=float, nargs="+", help="initial mean, for the optimality-hypothesis check")
    p_opt.add_argument("--verify", action="store_true", help="cross-check by brute-force enumeration")
    p_opt.set_defaults(func=cmd_optimal_policy)

    p_sweep = sub.add_parser("sweep", help="repeat simulate along one numeric axis")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, help="dotted key, e.g. policy.exp.u or model.kappa2")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="report worst sim-vs-analytic gap disagreement")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
