"""Benchmark of iterboot: three workloads, their end-to-end metrics, and a
traced run that gives per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. iterboot is imported from ``src/``;
every output goes under ``.perfbench/<workload>/``, which is emptied
first. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

For ``--seconds`` a run repeats whole rounds of the workload and, between
them, SETUP_PROBES cold set-ups of a fresh interpreter, paced so that the
set-ups spread evenly over the run; then it checks every round's outputs
(check.py). Each round is one fresh process, measured by wait4: wall time
from the moment the process is ready to work to the end of the work, CPU
time of the process and its pool workers after that moment, and peak
RSS. With ``--trace 1`` the rounds run with tracer.py installed and
probes.py times single calls; end-to-end numbers come only from untraced
runs.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 30
CHILD_TIMEOUT_S = 150.0

TOY_CONFIG = "configs/toy_kappa2.cfg"
TOY_GOLDEN = "out/toy_kappa2"
TOY_LABELS = ("exponential", "linear", "constant")

# small_sweep: many cheap runs. n_t <= 27, GD with eta != sigma2, and
# generation billed (c_g > 0), swept along kappa2 with a two-worker pool.
SWEEP_CONFIG = """spec_version = 1

[model]
d = 2
sigma2 = 1.0
kappa2 = 2.0
theta0 = 1.0, 1.0

[policy exponential]
family = exponential
n0 = 4
u = 0.3

[policy linear]
family = budget_linear
n0 = 4
u = 0.3
normalization = verbatim

[policy constant]
family = budget_constant
n0 = 4
u = 0.3

[run]
T = 8
runs = 200
master_seed = 1
update = gd
eta = 0.6

[cost]
c_g = 0.5
c_t = 1.0

[output]
directory = sweep
emit_svg = true
eval_samples = 10000
"""
SWEEP_VALUES = (1.0, 2.0, 4.0, 8.0)

# low_accept: d = 8 and acceptance of 2-4 %, doubling to 2560 per
# iteration, so most generated samples are rejected and chunks are large.
LOW_ACCEPT_CONFIG = """spec_version = 1

[model]
d = 8
sigma2 = 1.0
kappa2 = 0.8
theta0 = 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5

[policy exponential]
family = exponential
n0 = 20
u = 1.0

[policy constant]
family = budget_constant
n0 = 20
u = 1.0

[run]
T = 8
runs = 25
master_seed = 1
update = mle

[cost]
c_g = 1.0
c_t = 0.0

[output]
directory = low_accept
emit_svg = true
eval_samples = 10000
"""

def round_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class Workload:
    """One workload: its config, how a round is launched, its checks."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        if name == "paper_toy":
            self.config = ROOT / TOY_CONFIG
            self.params = {
                "model": {"sigma2": 1.0, "kappa2": 2.0, "theta0": [1.0, 1.0]},
                "labels": TOY_LABELS,
                "runs": 1000,
                "golden": str(ROOT / TOY_GOLDEN),
                "golden_files": [f"{label}_agg.csv" for label in TOY_LABELS] + ["gap_vs_cost.svg"],
            }
        elif name == "small_sweep":
            self.config = self._write("sweep.cfg", SWEEP_CONFIG)
            self.params = {
                "model": {"sigma2": 1.0, "kappa2": 2.0, "theta0": [1.0, 1.0]},
                "labels": TOY_LABELS,
                "runs": 200,
                "values": SWEEP_VALUES,
                "eta": 0.6,
                "c_g": 0.5,
                "c_t": 1.0,
            }
        elif name == "low_accept":
            self.config = self._write("low_accept.cfg", LOW_ACCEPT_CONFIG)
            self.params = {
                "model": {"sigma2": 1.0, "kappa2": 0.8, "theta0": [0.5] * 8},
                "labels": ("exponential", "constant"),
                "runs": 25,
            }
        else:
            raise ValueError(f"unknown workload {name!r}")

    def _write(self, name: str, text: str) -> Path:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return path

    def round_args(self, index: int, out: Path) -> tuple[list[str], int | None]:
        """Launcher arguments of round ``index`` and its master seed
        (None: the config's own). Round 0 of paper_toy keeps the config's
        seed, so its files can be compared with the committed ones."""
        seed = None if (self.name == "paper_toy" and index == 0) else round_seed(self.name, self.seed, index)
        common = ["--config", str(self.config), "--out", str(out)]
        if seed is not None:
            common += ["--seed", str(seed)]
        if self.name == "small_sweep":
            values = ",".join(f"{v:g}" for v in SWEEP_VALUES)
            return ["--", "sweep", *common, "--axis", "model.kappa2", "--values", values, "--workers", "2"], seed
        return ["--", "simulate", *common], seed


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(args: list[str], log: Path) -> tuple[float, int, object]:
    """Run ``launch.py args`` to its end; returns (spawn time, exit code,
    rusage of the process and its waited-for descendants)."""
    argv = [sys.executable, str(HERE / "launch.py"), *args]
    with open(log, "wb") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise RuntimeError(f"{argv} ended by signal {-proc.returncode}; see {log}")
    return t_spawn, proc.returncode, usage


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_probe(wl: Workload, index: int) -> dict:
    """One cold start; records setup_s (spawn to ready) and its phases."""
    status = wl.work / f"setup{index}.json"
    log = status.with_suffix(".log")
    t_spawn, rc, _ = spawn(["--status", str(status), "--setup", str(wl.config)], log)
    if rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {rc}; see {log}")
    probe = read_json(status)
    probe["setup_s"] = probe["ready"] - t_spawn
    return probe


def run_round(wl: Workload, index: int, trace_dir: Path | None) -> dict:
    out = wl.work / f"round{index}"
    status = wl.work / f"round{index}.json"
    args, seed = wl.round_args(index, out)
    launch = ["--status", str(status)]
    if trace_dir is not None:
        launch += ["--trace", str(trace_dir)]
    _, rc, usage = spawn(launch + args, wl.work / f"round{index}.log")
    rnd = {"index": index, "seed": seed, "out": str(out), "rc": rc}
    if rc == 0:
        st = read_json(status)
        rnd.update(
            wall_s=st["end"] - st["ready"],
            cpu_s=usage.ru_utime + usage.ru_stime - st["cpu_ready"],
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
    else:
        print(f"round {index}: exit code {rc}; see {wl.work / f'round{index}.log'}", file=sys.stderr)
    return rnd


def measure(wl: Workload, seconds: float, trace_dir: Path | None) -> tuple[list[dict], list[dict]]:
    """Whole rounds for ``seconds`` and SETUP_PROBES set-up probes.

    The machine's speed drifts over tens of seconds, so the set-ups are
    spread over the run, not bunched at its ends: before each round the
    probes catch up with the share of ``seconds`` that will have passed by
    the middle of that round (judged by the last round). A round starts
    only if, after those probes, at least half of it fits, so a run ends
    within half a round of ``seconds``; there is always at least one
    round. Returns (set-up probes, rounds)."""
    setup_probe(wl, -1)  # warm-up: fills the page cache and __pycache__
    setup: list[dict] = []
    rounds: list[dict] = []
    t_start = time.monotonic()
    last = 0.0

    def take_probes(due: int) -> None:
        while len(setup) < due:
            setup.append(setup_probe(wl, len(setup)))

    while True:
        share = (time.monotonic() - t_start + last / 2) / seconds
        take_probes(min(SETUP_PROBES, math.ceil(SETUP_PROBES * share)))
        if rounds and time.monotonic() - t_start + last / 2 > seconds:
            break
        t_round = time.monotonic()
        rounds.append(run_round(wl, len(rounds), trace_dir))
        last = time.monotonic() - t_round
    take_probes(SETUP_PROBES)
    return setup, rounds


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def layer_metrics(trace_dir: Path, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round layer metrics from every process's trace file."""
    groups: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    runs: list[tuple[float, float]] = []
    mcs: list[tuple[float, float]] = []
    for path in trace_dir.glob("*.json"):
        data = read_json(path)
        for g, (calls, total, self_s) in data["groups"].items():
            acc = groups.setdefault(g, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for k, v in data["counts"].items():
            counts[k] = counts.get(k, 0) + v
        iv = data["intervals"]
        runs += list(zip(iv["engine.run"][::2], iv["engine.run"][1::2]))
        mcs += list(zip(iv["engine.monte_carlo"][::2], iv["engine.monte_carlo"][1::2]))
    # Monte Carlo self time: time inside monte_carlo with no run executing
    # in any process (seeding, pool start-up and tear-down, reduction).
    covered = _union(runs)
    starts = [x for x, _ in covered]
    mc_self = 0.0
    for a, b in mcs:
        mc_self += b - a
        i = max(bisect.bisect_left(starts, a) - 1, 0)
        while i < len(covered) and covered[i][0] < b:
            x, y = covered[i]
            mc_self -= max(0.0, min(b, y) - max(a, x))
            i += 1

    def g(name: str, field: int) -> float:
        return groups.get(name, [0, 0.0, 0.0])[field]

    per = 1.0 / rounds
    draws = counts.get("engine.draws", 0)
    generated = counts.get("engine.samples_generated", 0)
    return {
        "engine.select_s": (g("engine.select", 1) * per, "s"),
        "engine.select_calls": (g("engine.select", 0) * per, "count"),
        "gaussian.sample_s": (g("gaussian.sample", 1) * per, "s"),
        "gaussian.reward_s": (g("gaussian.reward", 1) * per, "s"),
        "engine.draws": (draws * per, "count"),
        "engine.samples_generated": (generated * per, "count"),
        "engine.overdraw": (generated / draws if draws else 0.0, "ratio"),
        "engine.run_self_s": (g("engine.run", 2) * per, "s"),
        "engine.runs": (g("engine.run", 0) * per, "count"),
        "gaussian.expected_reward_s": (g("gaussian.expected_reward", 1) * per, "s"),
        "gaussian.mle_update_s": (g("gaussian.mle_update", 1) * per, "s"),
        "gdmodel.gd_update_s": (g("gdmodel.gd_update", 1) * per, "s"),
        "engine.monte_carlo_self_s": (mc_self * per, "s"),
        "engine.pool_starts": (counts.get("engine.pool_starts", 0) * per, "count"),
        "csvio.write_s": (g("csvio.write", 1) * per, "s"),
        "csvio.read_s": (g("csvio.read", 1) * per, "s"),
        "csvio.bytes": (counts.get("csvio.bytes", 0) * per, "bytes"),
        "svgplot.render_s": (g("svgplot.render", 1) * per, "s"),
        "svgplot.bytes": (counts.get("svgplot.bytes", 0) * per, "bytes"),
    }


def probe_metrics(wl: Workload) -> dict[str, tuple[float, str]]:
    log = wl.work / "probes.log"
    proc = subprocess.run(
        [sys.executable, str(HERE / "probes.py")],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    log.write_text(proc.stdout + proc.stderr, encoding="utf-8")
    if proc.returncode != 0:
        raise RuntimeError(f"probes failed with exit code {proc.returncode}; see {log}")
    units = {"_us": "us", "_ms": "ms"}
    return {k: (v, units[k[-3:]]) for k, v in json.loads(proc.stdout.splitlines()[-1]).items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper_toy", "small_sweep", "low_accept"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "iterboot" / "__init__.py", ROOT / TOY_CONFIG) if not p.is_file()]
    if missing:
        print(f"error: run from the root of an iterboot checkout; missing {missing}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, work)
    trace_dir = None
    if args.trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()

    setup, rounds = measure(wl, args.seconds, trace_dir)
    ok = [r for r in rounds if r["rc"] == 0]
    if not ok:
        print("error: every round failed; nothing was measured", file=sys.stderr)
        return 1
    # The checks import iterboot and numpy, so they run only after every
    # measured child: a child's peak RSS starts from its parent's.
    sys.path.insert(0, str(SRC))
    problems, attempted, failed = getattr(check, f"check_{wl.name}")(ok, wl.params)
    # Each round is one operation too (the CLI call).
    attempted += len(rounds)
    failed += len(rounds) - len(ok)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    for r in rounds:
        if r["rc"] == 0:
            print(
                f"round {r['index']}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
                f"rss {r['peak_rss_mb']:.1f} MB", file=sys.stderr,
            )
    if args.trace:
        metrics = {
            "cli.import_s": (statistics.median(p["import_s"] for p in setup), "s"),
            "config.load_config_ms": (statistics.median(p["load_config_ms"] for p in setup), "ms"),
            "policy.build_schedules_ms": (statistics.median(p["build_schedules_ms"] for p in setup), "ms"),
            **layer_metrics(trace_dir, len(rounds)),
            **probe_metrics(wl),
        }
    else:
        # The machine switches between a fast and a slow speed for minutes
        # at a time. The median of a run's few rounds takes one of the two
        # speeds; the mean moves with the share of the run spent at each,
        # and repeats better between runs (perfbench/README.md, "Noise on
        # this machine"). Set-up has 30 probes and keeps the median.
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
            "wall_s": (statistics.fmean(r["wall_s"] for r in ok), "s"),
            "cpu_s": (statistics.fmean(r["cpu_s"] for r in ok), "s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in ok), "MB"),
        }
    print(f"wall_s (mean of {len(ok)} rounds): {statistics.fmean(r['wall_s'] for r in ok):.4f}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
