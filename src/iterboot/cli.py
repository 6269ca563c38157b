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

Each ``cmd_*`` returns the text it prints on stdout, or raises; only
:func:`main` turns the outcome into an exit code: 0 success, 1 bad input
(:class:`ConfigError`), 2 runtime failure. All state flows through flags
and the config file; no environment variables. ``simulate`` and ``sweep``
run on as many pool workers as the process has usable CPUs unless
``--workers`` says otherwise, and on no more workers than they have
Monte Carlo blocks; every width writes the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytic, engine
from .config import ConfigError, ExperimentConfig, apply_override, load_config, split_list
from .csvio import (
    aggregate_rows,
    analytic_rows,
    csv_text,
    format_float,
    law_csv_text,
    read_agg_csv,
    run_trace_csv_text,
    write_agg_csv,
    write_text_atomic,
)
from .policy import materialize
from .svgplot import Series, render_gap_vs_cost

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

WORKERS_HELP = (
    "largest process-pool width (default: the CPUs this process may run on, "
    "by its CPU affinity, capped at its cgroup CPU quota rounded up), fewer "
    "if the command has fewer Monte Carlo blocks; 1 runs serially, and "
    "every width writes the same bytes"
)


def _load(args: argparse.Namespace) -> ExperimentConfig:
    """The config file, with --out and the command's --seed and --svg applied."""
    cfg = load_config(args.config)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "seed", None) is not None:
        try:
            engine.check_seed("--seed", args.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "svg", None) is not None:
        cfg = replace(cfg, emit_svg=args.svg)
    return cfg


def _usable_cpus(
    cgroups: Path = Path("/sys/fs/cgroup"), own: Path = Path("/proc/self/cgroup")
) -> int:
    """The CPUs this process may run on, the default pool width: its CPU
    affinity, capped at the CPU quota of its cgroup (``own`` names it,
    under the hierarchy root ``cgroups``)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    quota = _cpu_quota(cgroups, own)
    return cpus if quota is None else min(cpus, quota)


def _cpu_quota(cgroups: Path, own: Path) -> int | None:
    """The CPU quota of this process's cgroup in whole CPUs, rounded up:
    cgroup v2's ``cpu.max``, or v1's ``cpu.cfs_quota_us`` over
    ``cpu.cfs_period_us``, the lowest if several are set. None for no
    quota ("max" or -1), or files that are missing or unreadable."""
    try:
        lines = own.read_text().splitlines()
    except OSError:
        return None
    quotas = []
    for line in lines:
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        _, controllers, path = parts
        where = path.lstrip("/")
        try:
            if not controllers:  # v2: "0::<path>"
                quota, period = (cgroups / where / "cpu.max").read_text().split()
            elif "cpu" in controllers.split(","):  # v1: "<id>:cpu,cpuacct:<path>"
                v1 = cgroups / controllers / where
                quota = (v1 / "cpu.cfs_quota_us").read_text()
                period = (v1 / "cpu.cfs_period_us").read_text()
            else:
                continue
            # "max" fails int(); v1 writes -1.
            q, p = int(quota), int(period)
            if q > 0 and p > 0:
                quotas.append(-(-q // p))
        except (OSError, ValueError):
            continue
    return min(quotas, default=None)


def _check_counts(args: argparse.Namespace) -> int:
    """The pool width, --workers or else the usable CPUs; rejects a width
    below 1 and a negative trace count."""
    workers = _usable_cpus() if args.workers is None else args.workers
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    if getattr(args, "traces", 0) < 0:
        raise ConfigError(f"--traces must be >= 0, got {args.traces}")
    return workers


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
) -> list[dict[str, engine.MonteCarloTrace]]:
    """Run every configured policy of every ``(cfg, out_dir)`` point as
    one batch of Monte Carlo jobs, on one process pool when ``workers > 1``,
    and write each point's files as its aggregates arrive, while the pool
    runs the later jobs' blocks; returns each point's aggregates by policy
    label. Every policy's runs are seeded from the same master seed, but
    the schedules consume each run's stream differently, so the runs of
    two policies decouple after the first draw chunk. They are not common
    random numbers: on the toy config, run i's gaps at T = 15 under two
    policies correlate at -0.03 to 0.01, and pairing them leaves the SE
    of a gap difference within 1 % of the unpaired one."""
    jobs = [
        (_run_config(cfg, materialize(p.spec, cfg.T)), cfg.runs) for cfg, _ in points for p in cfg.policies
    ]
    results = []
    # Closing the generator on an error cancels the blocks still queued.
    with contextlib.closing(engine.monte_carlo_jobs(jobs, workers, traces=traces)) as aggs:
        for cfg, out_dir in points:
            out_dir.mkdir(parents=True, exist_ok=True)
            by_label = {p.label: next(aggs) for p in cfg.policies}
            for label, agg in by_label.items():
                write_agg_csv(out_dir / f"{label}_agg.csv", aggregate_rows(label, agg))
                for i, trace in enumerate(agg.traces):
                    write_text_atomic(out_dir / f"{label}_run{i}.csv", run_trace_csv_text(trace))
            if cfg.emit_svg:
                series = [Series(label, a.mean_cum_cost, a.mean_gap, a.se_gap) for label, a in by_label.items()]
                write_text_atomic(out_dir / "gap_vs_cost.svg", render_gap_vs_cost(series))
            results.append(by_label)
    return results


def _status(cfg: ExperimentConfig, aggs: dict[str, engine.MonteCarloTrace]) -> dict:
    """What went wrong in each policy's runs of one point, by policy
    label: its completed, diverged and draw-capped run counts, its
    clipped rewards, and whether its schedule was clamped."""
    clamped = {p.label: materialize(p.spec, cfg.T).clamped for p in cfg.policies}
    return {
        label: {
            "completed": agg.runs_completed,
            "diverged": agg.runs_diverged,
            "draw_cap_hit": agg.runs_draw_capped,
            "clipped_rewards": agg.clipped_rewards,
            "clamped": clamped[label],
        }
        for label, agg in aggs.items()
    }


def cmd_simulate(args: argparse.Namespace) -> str:
    workers = _check_counts(args)
    cfg = _load(args)
    [aggs] = _simulate_into([(cfg, Path(cfg.out_dir))], workers, args.traces)
    return json.dumps({"command": "simulate", "out": cfg.out_dir, "status": _status(cfg, aggs)}, indent=2)


def cmd_analytic(args: argparse.Namespace) -> str:
    cfg = _load(args)
    if cfg.eta not in (None, cfg.sigma2):
        raise ConfigError("analytic curves hold for MLE updates only; eta must be unset or equal sigma2")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cost = engine.CostModel(cfg.c_g, cfg.c_t)
    series = []
    clamped = {}
    for p in cfg.policies:
        schedule = materialize(p.spec, cfg.T)
        clamped[p.label] = schedule.clamped
        try:
            ev = analytic.cost_curve(schedule, cfg.theta0, cfg.sigma2, cfg.kappa2, cost)
        except ValueError as exc:
            raise RuntimeError(f"policy {p.label!r}: {exc}") from None
        write_agg_csv(out_dir / f"{p.label}_analytic.csv", analytic_rows(p.label, ev))
        write_text_atomic(out_dir / f"{p.label}_law.csv", law_csv_text(p.label, ev))
        series.append(Series(p.label, ev.cum_cost, ev.gap, None))
    if cfg.emit_svg:
        write_text_atomic(
            out_dir / "analytic_gap_vs_cost.svg",
            render_gap_vs_cost(series, title="analytic gap vs cumulative cost"),
        )
    return json.dumps(
        {"command": "analytic", "out": cfg.out_dir, "policies": list(clamped), "clamped": clamped}, indent=2
    )


def cmd_optimal_policy(args: argparse.Namespace) -> str:
    C, T, sigma2, kappa2 = args.budget, args.iters, args.sigma2, args.kappa2
    theta0 = np.array(args.theta0, dtype=float) if args.theta0 else None
    try:
        schedule = analytic.optimal_schedule(C, T, sigma2, kappa2, theta0)
        continuous = analytic.continuous_optimum(C, T, sigma2, kappa2)
        # sigma2_T does not depend on theta0.
        sig2 = analytic.marginal(0.0, schedule, sigma2, kappa2).sigma2_T
        brute = analytic.brute_force_optimal(C, T, sigma2, kappa2) if args.verify else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = [
        f"continuous optimum: [{', '.join(format_float(v) for v in continuous)}]",
        f"integer schedule:   {list(schedule.n)}",
        f"sigma2_T:           {format_float(sig2)}",
    ]
    if brute is not None:
        best, best_sig2 = brute
        ratio = sig2 / best_sig2 if best_sig2 > 0 else float("inf")
        lines += [
            f"brute force:        {list(best.n)}",
            f"brute sigma2_T:     {format_float(best_sig2)}",
            f"apportioned/brute sigma2_T ratio: {format_float(ratio)}",
        ]
    return "\n".join(lines)


def cmd_sweep(args: argparse.Namespace) -> str:
    workers = _check_counts(args)
    cfg = _load(args)
    # Each token is config text for the axis key and names its point as typed.
    try:
        names = split_list(args.values)
        swept = [apply_override(cfg, args.axis, name) for name in names]
    except ValueError as exc:
        raise ConfigError(f"--values {args.values!r}: {exc}") from None
    if len(set(names)) != len(names):
        raise ConfigError(f"--values {args.values!r} repeat a point name: {names}")
    base = Path(cfg.out_dir)
    axis_slug = args.axis.replace(".", "_")
    points = [(sub_cfg, base / f"sweep_{axis_slug}_{name}") for sub_cfg, name in zip(swept, names)]
    results = _simulate_into(points, workers)
    summary = [
        (args.axis, name, label, agg.T[-1], agg.mean_gap[-1], agg.se_gap[-1])
        for name, aggs in zip(names, results)
        for label, agg in aggs.items()
    ]
    header = ("axis", "value", "policy_label", "final_T", "mean_gap", "se_gap")
    write_text_atomic(base / "sweep_summary.csv", csv_text(header, summary))
    # Each point's status, by its name, the suffix of its directory.
    status = {name: _status(sub_cfg, aggs) for name, sub_cfg, aggs in zip(names, swept, results)}
    return json.dumps(
        {"command": "sweep", "axis": args.axis, "values": names, "out": str(base), "status": status},
        indent=2,
    )


def _read_rows(path: Path) -> dict:
    """A written aggregate CSV's rows by T; a malformed file is bad input."""
    try:
        return {r.T: r for r in read_agg_csv(path)}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_compare(args: argparse.Namespace) -> str:
    cfg = _load(args)
    out_dir = Path(cfg.out_dir)
    report: dict[str, float] = {}
    for p in cfg.policies:
        sim_path = out_dir / f"{p.label}_agg.csv"
        ana_path = out_dir / f"{p.label}_analytic.csv"
        if not sim_path.exists() or not ana_path.exists():
            raise ConfigError(
                f"missing {sim_path.name} or {ana_path.name} in {out_dir} "
                f"(run simulate and analytic first)"
            )
        sim, ana = _read_rows(sim_path), _read_rows(ana_path)
        for path, rows, columns in ((sim_path, sim, ("mean_gap", "se_gap")), (ana_path, ana, ("mean_gap",))):
            if not rows:
                raise ConfigError(f"policy {p.label!r}: {path} holds no rows")
            for T in sorted(rows):
                for col in columns:
                    value = getattr(rows[T], col)
                    if not math.isfinite(value):
                        raise ConfigError(f"policy {p.label!r}: {path} has {col} = {value} at T={T}")
        if {T: r.n_t for T, r in sim.items()} != {T: r.n_t for T, r in ana.items()}:
            raise ConfigError(
                f"policy {p.label!r}: simulated and analytic rows differ in their T "
                f"values or n_t (was one of them run with another config?)"
            )
        zero_se = [T for T in sorted(sim) if sim[T].se_gap <= 0]
        if zero_se:
            raise RuntimeError(
                f"policy {p.label!r}: simulated se_gap is 0 at T={zero_se[0]}, "
                f"so the gap difference has no standard-error scale"
            )
        report[p.label] = max(abs(sim[T].mean_gap - ana[T].mean_gap) / sim[T].se_gap for T in sim)
    return json.dumps(
        {
            "command": "compare",
            "max_abs_gap_diff_over_se": {k: round(v, 6) for k, v in report.items()},
            "overall": round(max(report.values(), default=0.0), 6),
        },
        indent=2,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterboot",
        description="Iterative synthetic-data bootstrapping: simulation and exact analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, svg: bool = True, runs: bool = True) -> None:
        """--config, --out, and --svg/--no-svg and --seed/--workers where read."""
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides the config)")
        if runs:
            p.add_argument("--seed", type=int, help="master seed (overrides the config)")
            p.add_argument("--workers", type=int, help=WORKERS_HELP)
        if svg:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--svg", dest="svg", action="store_true", default=None)
            group.add_argument("--no-svg", dest="svg", action="store_false", default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation per policy")
    add_common(p_sim)
    p_sim.add_argument(
        "--traces", type=int, default=0,
        help="also write the first N per-run trace CSVs per policy",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analytic", help="closed-form curves per policy")
    add_common(p_ana, runs=False)
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
    p_sweep.add_argument("--values", required=True, help="comma-separated config values, naming points as typed")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="report worst sim-vs-analytic gap disagreement")
    add_common(p_cmp, svg=False, runs=False)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: print what it reports and return 0, or print
    its error once and return 1 for bad input (:class:`ConfigError`) or
    2 for a failure while running (``RuntimeError``, ``ValueError`` or
    ``OSError``)."""
    args = build_parser().parse_args(argv)
    try:
        print(args.func(args))
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, ConfigError) else EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
