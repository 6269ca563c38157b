"""End-to-end CLI behavior: subcommands, files, determinism, exit codes."""

import json
import math
import multiprocessing
import os
from dataclasses import replace

import pytest

from iterboot import cli, engine
from iterboot.cli import main
from iterboot.csvio import AGG_COLUMNS, read_agg_csv, write_agg_csv

SMALL = """\
spec_version = 1

[model]
sigma2 = 1.0
kappa2 = 2.0
theta0 = 1.0, 1.0

[policy exp]
family = exponential
n0 = 5
u = 0.5

[policy const]
family = budget_constant
n0 = 5
u = 0.5

[run]
T = 5
runs = 40
master_seed = 31416

[cost]
c_g = 0.0
c_t = 1.0

[output]
emit_svg = true
"""


# GD with eta != sigma2, billed generation, and a run count that is a
# multiple of no block size.
POOLED = (
    SMALL.replace("runs = 40", "runs = 37\nupdate = gd\neta = 0.6")
    .replace("c_g = 0.0", "c_g = 0.5")
)


def assert_same_files(want_dir, got_dir, count):
    """``got_dir`` holds the same ``count`` files as ``want_dir``, byte for
    byte, at any depth."""
    names = sorted(str(p.relative_to(want_dir)) for p in want_dir.rglob("*") if p.is_file())
    assert len(names) == count
    assert sorted(str(p.relative_to(got_dir)) for p in got_dir.rglob("*") if p.is_file()) == names
    for name in names:
        assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes(), name


# The real count; the fixture below replaces it in every test.
usable_cpus = cli._usable_cpus


@pytest.fixture(autouse=True)
def one_usable_cpu(monkeypatch):
    """A command without --workers runs serially, as on a one-CPU host, so
    what each test checks does not depend on the machine. A test of the
    default width sets its own count."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def out_args(small_cfg, tmp_path, *extra):
    return ["--config", str(small_cfg), "--out", str(tmp_path / "out"), *extra]


class TestSimulate:
    def test_writes_aggregates_and_svg(self, small_cfg, tmp_path, capsys):
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        out = tmp_path / "out"
        assert (out / "exp_agg.csv").exists()
        assert (out / "const_agg.csv").exists()
        assert (out / "gap_vs_cost.svg").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"]["exp"]["completed"] == 40
        assert summary["status"]["exp"]["diverged"] == 0
        assert summary["status"]["exp"]["clipped_rewards"] == 0

    def test_byte_identical_reruns(self, small_cfg, tmp_path):
        args = ["simulate", *out_args(small_cfg, tmp_path)]
        assert main(args) == 0
        out = tmp_path / "out"
        first_csv = (out / "exp_agg.csv").read_bytes()
        first_svg = (out / "gap_vs_cost.svg").read_bytes()
        assert main(args) == 0
        assert (out / "exp_agg.csv").read_bytes() == first_csv
        assert (out / "gap_vs_cost.svg").read_bytes() == first_svg

    def test_seed_override_changes_results(self, small_cfg, tmp_path):
        args = ["simulate", *out_args(small_cfg, tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "out" / "exp_agg.csv").read_bytes()
        assert main([*args, "--seed", "7"]) == 0
        assert (tmp_path / "out" / "exp_agg.csv").read_bytes() != first

    def test_no_svg_flag(self, small_cfg, tmp_path):
        assert main(["simulate", *out_args(small_cfg, tmp_path), "--no-svg"]) == 0
        assert not (tmp_path / "out" / "gap_vs_cost.svg").exists()

    def test_per_run_traces(self, small_cfg, tmp_path):
        assert main(["simulate", *out_args(small_cfg, tmp_path), "--traces", "2"]) == 0
        out = tmp_path / "out"
        for label in ("exp", "const"):
            for i in (0, 1):
                lines = (out / f"{label}_run{i}.csv").read_text().splitlines()
                assert lines[0].startswith("t,n_t,N_t,theta")
                assert len(lines) == 6  # header + T=5 iterations

    def test_workers_give_identical_csv(self, small_cfg, tmp_path):
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        serial = (tmp_path / "out" / "exp_agg.csv").read_bytes()
        assert main(["simulate", *out_args(small_cfg, tmp_path), "--workers", "2"]) == 0
        assert (tmp_path / "out" / "exp_agg.csv").read_bytes() == serial

    def test_pooled_simulate_writes_the_serial_bytes(self, tmp_path):
        # One policy, so the pool's blocks hold 37 // (2 * 2) = 9 runs and
        # both traces come from the first block.
        path = tmp_path / "one.cfg"
        path.write_text(POOLED.replace("[policy const]\nfamily = budget_constant\nn0 = 5\nu = 0.5\n", ""))
        for workers in ("1", "2"):
            args = ["--config", str(path), "--out", str(tmp_path / workers), "--traces", "2"]
            assert main(["simulate", *args, "--workers", workers]) == 0
        assert_same_files(tmp_path / "1", tmp_path / "2", 4)

    @pytest.mark.parametrize("cpus, want", [(2, [{"max_workers": 2}]), (1, [])])
    def test_default_width_is_the_usable_cpus(self, small_cfg, tmp_path, monkeypatch, cpus, want):
        starts = []

        class CountedPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        args = ["--config", str(small_cfg), "--out"]
        assert main(["simulate", *args, str(tmp_path / "default")]) == 0
        assert starts == want
        assert main(["simulate", *args, str(tmp_path / "serial"), "--workers", "1"]) == 0
        assert starts == want
        assert_same_files(tmp_path / "serial", tmp_path / "default", 3)

    @pytest.mark.parametrize(
        "own, files, want",
        [
            # cgroup v2: cpu.max holds "<quota> <period>", or "max".
            ("0::/jobs/a\n", {"jobs/a/cpu.max": "150000 100000\n"}, 2),
            ("0::/\n", {"cpu.max": "100000 100000\n"}, 1),
            ("0::/jobs/a\n", {"jobs/a/cpu.max": "max 100000\n"}, None),
            # cgroup v1: the cpu controller's own hierarchy, -1 for none.
            ("4:cpu,cpuacct:/b\n", {"cpu,cpuacct/b/cpu.cfs_quota_us": "250000\n",
                                    "cpu,cpuacct/b/cpu.cfs_period_us": "100000\n"}, 3),
            ("1:cpu:/\n3:cpuset:/jobs\n", {"cpu/cpu.cfs_quota_us": "-1\n",
                                            "cpu/cpu.cfs_period_us": "100000\n"}, None),
            # Both set: the lower quota binds.
            ("1:cpu:/\n0::/c\n", {"cpu/cpu.cfs_quota_us": "400000\n",
                                   "cpu/cpu.cfs_period_us": "100000\n",
                                   "c/cpu.max": "50000 100000\n"}, 1),
            # Missing or unreadable files, or a malformed line, set no cap.
            ("0::/gone\n", {}, None),
            ("garbage\n2:memory:/m\n", {"cpu.max": "1 1\n"}, None),
            ("0::/d\n", {"d/cpu.max": "lots\n"}, None),
            (None, {}, None),
        ],
    )
    def test_cpu_quota_of_a_fake_cgroup(self, tmp_path, own, files, want):
        root = tmp_path / "cgroup"
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        own_path = tmp_path / "self_cgroup"
        if own is not None:
            own_path.write_text(own)
        assert cli._cpu_quota(root, own_path) == want
        affinity = len(os.sched_getaffinity(0))
        assert usable_cpus(root, own_path) == (affinity if want is None else min(affinity, want))

    def test_usable_cpus_without_affinity_is_the_cpu_count(self, tmp_path, monkeypatch):
        # Platforms without os.sched_getaffinity fall back to os.cpu_count().
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        no_cgroup = tmp_path / "missing"
        assert usable_cpus(no_cgroup, no_cgroup) == 3

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", "0"), ("--workers", "-3"), ("--traces", "-2"), ("--seed", "-1"), ("--seed", str(2**64))],
    )
    def test_out_of_range_count_flag_is_validation_error(
        self, small_cfg, tmp_path, capsys, flag, value
    ):
        assert main(["simulate", *out_args(small_cfg, tmp_path), flag, value]) == 1
        assert f"{flag} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL.replace("runs = 40", "runs = 1"))
        assert main(["simulate", "--config", str(path)]) == 1
        assert "runs must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("theta0 = 1.0, 1.0", "theta0 = nan, 1.0"),
            ("[policy const]", "[policy con,stant]"),
            ("c_g = 0.0", "c_g = -1"),
            ("c_t = 1.0", "c_t = -1"),
            ("c_t = 1.0", "c_t = 0"),
        ],
    )
    def test_bad_input_is_validation_error_with_line(self, tmp_path, capsys, old, new):
        text = SMALL.replace(old, new)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"line {text.splitlines().index(new) + 1}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, line",
        [
            ("[output]", "eval_samples = 0"),
            ("[run]", "divergence_cap = -1"),
            ("[run]", "max_draws_per_iter = 10"),
        ],
    )
    def test_value_that_fails_at_run_time_is_validation_error(
        self, tmp_path, capsys, section, line
    ):
        text = SMALL.replace(section, f"{section}\n{line}")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"line {text.splitlines().index(line) + 1}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unwritable_out_is_runtime_error(self, small_cfg, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["simulate", "--config", str(small_cfg), "--out", str(blocker / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_horizon_beyond_the_float_range_is_validation_error(self, tmp_path, capsys):
        text = SMALL.replace("T = 5", "T = 2000")
        path = tmp_path / "long.cfg"
        path.write_text(text)
        for command in ("simulate", "analytic"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            line = text.splitlines().index("[policy exp]") + 1
            assert f"line {line}: policy 'exp': exponential counts overflow a float at horizon T=2000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_all_runs_failing_is_runtime_error(self, tmp_path, capsys):
        text = SMALL.replace("theta0 = 1.0, 1.0", "theta0 = 60.0, 60.0").replace(
            "master_seed = 31416", "master_seed = 31416\nmax_draws_per_iter = 50"
        )
        path = tmp_path / "cap.cfg"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "failed" in capsys.readouterr().err


# n = 0.5 floors to 0 selected samples, which the schedule clamps to 1.
CLAMPED = SMALL.replace("[policy const]", "[policy tiny]\nfamily = batch_constant\nn = 0.5\nB = 4\n\n[policy const]")


@pytest.mark.parametrize("command, kind", [("simulate", "agg"), ("analytic", "analytic"), ("sweep", "agg")])
def test_clamped_schedules_are_reported(tmp_path, capsys, command, kind):
    path = tmp_path / "clamped.cfg"
    path.write_text(CLAMPED)
    out = tmp_path / "out"
    # A sweep over the config's own kappa2 has one point, named 2.
    point = ["--axis", "model.kappa2", "--values", "2"] if command == "sweep" else []
    assert main([command, "--config", str(path), "--out", str(out), *point]) == 0
    summary = json.loads(capsys.readouterr().out)
    if command == "analytic":
        clamped = summary["clamped"]
    else:
        status = summary["status"]["2"] if command == "sweep" else summary["status"]
        assert status["exp"]["completed"] == 40 and status["exp"]["diverged"] == 0
        clamped = {label: entry["clamped"] for label, entry in status.items()}
    assert clamped == {"exp": False, "tiny": True, "const": False}
    if command == "sweep":
        out = out / "sweep_model_kappa2_2"
    assert [r.n_t for r in read_agg_csv(out / f"tiny_{kind}.csv")] == [1] * 5


@pytest.mark.parametrize(
    "command, flag", [("analytic", "--seed=1"), ("compare", "--seed=1"), ("compare", "--svg"), ("compare", "--no-svg")]
)
def test_flag_the_command_does_not_read_is_a_usage_error(small_cfg, tmp_path, capsys, command, flag):
    # analytic draws no random numbers; compare only reads written CSVs.
    with pytest.raises(SystemExit) as exit_info:
        main([command, *out_args(small_cfg, tmp_path), flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestAnalytic:
    def test_emits_shared_schema_and_law_detail(self, small_cfg, tmp_path, capsys):
        assert main(["analytic", *out_args(small_cfg, tmp_path)]) == 0
        out = tmp_path / "out"
        rows = read_agg_csv(out / "exp_analytic.csv")
        assert [r.T for r in rows] == [1, 2, 3, 4, 5]
        assert all(r.source == "analytic" for r in rows)
        assert (out / "exp_law.csv").exists()
        assert (out / "analytic_gap_vs_cost.svg").exists()

    def test_underflowing_reward_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "far.cfg"
        path.write_text(SMALL.replace("theta0 = 1.0, 1.0", "theta0 = 60.0, 60.0"))
        assert main(["analytic", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "T=1" in capsys.readouterr().err

    def test_law_detail_spot_value(self, tmp_path):
        text = SMALL.replace(
            "[policy exp]\nfamily = exponential\nn0 = 5\nu = 0.5",
            "[policy two]\nfamily = explicit\nschedule = 10, 10",
        ).replace("theta0 = 1.0, 1.0", "theta0 = 1.0").replace("T = 5", "T = 2")
        path = tmp_path / "two.cfg"
        path.write_text(text)
        assert main(["analytic", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        law = (tmp_path / "out" / "two_law.csv").read_text()
        assert "0.0962962963" in law

    def test_gd_with_other_eta_rejected(self, tmp_path, capsys):
        text = SMALL.replace("master_seed = 31416", "master_seed = 1\nupdate = gd\neta = 0.4")
        path = tmp_path / "gd.cfg"
        path.write_text(text)
        assert main(["analytic", "--config", str(path)]) == 1
        assert "MLE" in capsys.readouterr().err

    def test_gd_with_eta_equal_sigma2_accepted(self, tmp_path):
        text = SMALL.replace("master_seed = 31416", "master_seed = 1\nupdate = gd\neta = 1.0")
        path = tmp_path / "gd.cfg"
        path.write_text(text)
        assert main(["analytic", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


class TestCompare:
    def test_reports_worst_ratio(self, small_cfg, tmp_path, capsys):
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        assert main(["analytic", *out_args(small_cfg, tmp_path)]) == 0
        capsys.readouterr()
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["max_abs_gap_diff_over_se"]) == {"exp", "const"}
        assert report["overall"] >= 0.0

    @pytest.mark.parametrize(
        "old, new",
        [("T = 5", "T = 6"), ("n0 = 5\nu = 0.5\n\n[policy const]", "n0 = 6\nu = 0.5\n\n[policy const]")],
    )
    def test_other_horizon_or_counts_rejected(self, small_cfg, tmp_path, capsys, old, new):
        other = tmp_path / "other.cfg"
        other.write_text(SMALL.replace(old, new))
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        assert main(["analytic", *out_args(other, tmp_path)]) == 0
        capsys.readouterr()
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 1
        assert "policy 'exp'" in capsys.readouterr().err

    def test_zero_standard_error_is_runtime_error(self, small_cfg, tmp_path, capsys):
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        assert main(["analytic", *out_args(small_cfg, tmp_path)]) == 0
        path = tmp_path / "out" / "const_agg.csv"
        rows = read_agg_csv(path)
        rows[2] = replace(rows[2], se_gap=0.0)
        write_agg_csv(path, rows)
        capsys.readouterr()
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "policy 'const'" in err and "T=3" in err

    @pytest.mark.parametrize(
        "kind, column", [("agg", "mean_gap"), ("agg", "se_gap"), ("analytic", "mean_gap")]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_gap_is_validation_error(self, small_cfg, tmp_path, capsys, kind, column, value):
        # Python's max skips a nan ratio, so a nan mean_gap used to leave
        # overall as it was, and compare exited 0.
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        assert main(["analytic", *out_args(small_cfg, tmp_path)]) == 0
        path = tmp_path / "out" / f"const_{kind}.csv"
        rows = read_agg_csv(path)
        rows[4] = replace(rows[4], **{column: value})
        write_agg_csv(path, rows)
        capsys.readouterr()
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: policy 'const': {path} has {column} = {value} at T=5\n"

    def test_short_row_is_validation_error(self, small_cfg, tmp_path, capsys):
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        assert main(["analytic", *out_args(small_cfg, tmp_path)]) == 0
        path = tmp_path / "out" / "exp_agg.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 1
        assert f"error: line 4 of {path} has 10 fields" in capsys.readouterr().err

    def test_unparsable_cell_is_validation_error(self, small_cfg, tmp_path, capsys):
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        assert main(["analytic", *out_args(small_cfg, tmp_path)]) == 0
        path = tmp_path / "out" / "exp_agg.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index("T")] = "abc2"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 1
        assert f"error: line 2 of {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", ",".join(AGG_COLUMNS) + "\n"], ids=["empty", "header_only"])
    def test_files_without_rows_are_validation_errors(self, small_cfg, tmp_path, capsys, text):
        out = tmp_path / "out"
        out.mkdir()
        for label in ("exp", "const"):
            for kind in ("agg", "analytic"):
                (out / f"{label}_{kind}.csv").write_text(text)
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out / "exp_agg.csv") in captured.err

    def test_analytic_file_without_rows_is_named(self, small_cfg, tmp_path, capsys):
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        assert main(["analytic", *out_args(small_cfg, tmp_path)]) == 0
        path = tmp_path / "out" / "const_analytic.csv"
        path.write_text(",".join(AGG_COLUMNS) + "\n")
        capsys.readouterr()
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: policy 'const': {path} holds no rows\n"

    def test_missing_inputs_rejected(self, small_cfg, tmp_path, capsys):
        assert main(["compare", *out_args(small_cfg, tmp_path)]) == 1
        assert "run simulate and analytic first" in capsys.readouterr().err


class TestOptimalPolicy:
    def test_verified_schedule(self, capsys):
        code = main(
            ["optimal-policy", "-C", "21", "-T", "3", "--sigma2", "1", "--kappa2", "1", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # integer schedule and brute force agree (continuous is integral too)
        assert out.count("[3, 6, 12]") >= 2
        assert "brute force:        [3, 6, 12]" in out
        assert "sigma2_T" in out

    def test_single_iteration(self, capsys):
        assert main(["optimal-policy", "-C", "100", "-T", "1", "--sigma2", "1", "--kappa2", "1"]) == 0
        assert "[100]" in capsys.readouterr().out

    def test_budget_too_small(self, capsys):
        assert main(["optimal-policy", "-C", "2", "-T", "3", "--sigma2", "1", "--kappa2", "1"]) == 1
        assert "budget below one sample per iteration" in capsys.readouterr().err

    def test_verify_beyond_caps(self, capsys):
        code = main(
            ["optimal-policy", "-C", "300", "-T", "3", "--sigma2", "1", "--kappa2", "1", "--verify"]
        )
        assert code == 1
        assert "too large" in capsys.readouterr().err

    def test_verify_beyond_caps_prints_no_schedule(self, capsys):
        assert main(["optimal-policy", "-C", "300", "-T", "3", "--sigma2", "1", "--kappa2", "1", "--verify"]) == 1
        assert capsys.readouterr().out == ""

    def test_long_horizon(self, capsys):
        # sigma2_T sums terms 1 / (n_t * 2**(2(T-t)-1)), past the float range.
        assert main(["optimal-policy", "-C", "5000", "-T", "600", "--sigma2", "1", "--kappa2", "1"]) == 0
        assert "sigma2_T:           0.000461307349" in capsys.readouterr().out

    def test_horizon_beyond_the_float_range_is_validation_error(self, capsys):
        # The weights C * 2**t of the continuous optimum overflow.
        assert main(["optimal-policy", "-C", "5000", "-T", "1100", "--sigma2", "1", "--kappa2", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: weights C*(1+rho)**t overflow a float at horizon T=1100" in captured.err

    def test_theta0_beyond_the_hypothesis_warns_and_prints_the_schedule(self, capsys):
        flags = ["-C", "21", "-T", "3", "--sigma2", "1", "--kappa2", "1", "--theta0", "1e9", "1e9"]
        with pytest.warns(UserWarning, match="exceeds the optimality hypothesis bound 16;"):
            assert main(["optimal-policy", *flags]) == 0
        assert "integer schedule:   [3, 6, 12]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma2", "nan", "--kappa2", "1"], "sigma2 must be a positive finite real"),
            (["--sigma2", "inf", "--kappa2", "1"], "sigma2 must be a positive finite real"),
            (["--sigma2", "1", "--kappa2", "1", "--theta0", "nan", "1"], "theta0 must be finite"),
        ],
    )
    def test_non_finite_flags_are_validation_errors(self, capsys, flags, message):
        assert main(["optimal-policy", "-C", "21", "-T", "3", *flags]) == 1
        assert message in capsys.readouterr().err


class TestSweep:
    def test_sweep_u_values(self, small_cfg, tmp_path, capsys):
        code = main(
            [
                "sweep",
                *out_args(small_cfg, tmp_path),
                "--axis",
                "policy.exp.u",
                "--values",
                "0.25,0.5,1.0",
            ]
        )
        assert code == 0
        out = tmp_path / "out"
        # Each point is named by its token as typed.
        for v in ("0.25", "0.5", "1.0"):
            assert (out / f"sweep_policy_exp_u_{v}" / "exp_agg.csv").exists()
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "axis,value,policy_label,final_T,mean_gap,se_gap"
        assert len(summary) == 1 + 3 * 2  # three values, two policies
        # Each row holds the text of the last row of that point's aggregate.
        for row in summary[1:]:
            axis, value, label, *final = row.split(",")
            agg = (out / f"sweep_policy_exp_u_{value}" / f"{label}_agg.csv").read_text().splitlines()
            header, last = agg[0].split(","), agg[-1].split(",")
            assert final == [last[header.index(key)] for key in ("T", "mean_gap", "se_gap")]

    def test_one_pool_per_command(self, small_cfg, tmp_path, monkeypatch):
        starts = []

        class CountedPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountedPool)
        args = [*out_args(small_cfg, tmp_path), "--axis", "policy.exp.u", "--values", "0.25,0.5"]
        assert main(["sweep", *args, "--workers", "2"]) == 0
        assert starts == [{"max_workers": 2}]
        assert main(["simulate", *out_args(small_cfg, tmp_path), "--workers", "2"]) == 0
        assert len(starts) == 2
        assert main(["sweep", *args, "--workers", "1"]) == 0
        assert len(starts) == 2

    def test_pooled_sweep_writes_the_serial_bytes(self, tmp_path):
        # Serial blocks hold 16 runs. The pool's hold 16 for exp at u = 3
        # (largest n_t 1280), so that job splits 16 + 16 + 5, and all 37
        # runs for the other jobs.
        path = tmp_path / "pooled.cfg"
        path.write_text(POOLED)
        for workers in ("1", "2"):
            args = ["--config", str(path), "--out", str(tmp_path / workers)]
            assert main(["sweep", *args, "--axis", "policy.exp.u", "--values", "0.5,3", "--workers", workers]) == 0
        assert_same_files(tmp_path / "1", tmp_path / "2", 1 + 2 * 3)

    def test_summary_bytes_pinned(self, tmp_path):
        # GD, c_g > 0; bytes taken from the hand-joined summary writer.
        path = tmp_path / "pooled.cfg"
        path.write_text(POOLED)
        args = ["--config", str(path), "--out", str(tmp_path / "out"), "--workers", "1"]
        assert main(["sweep", *args, "--axis", "policy.exp.u", "--values", "0.5,3"]) == 0
        assert (tmp_path / "out" / "sweep_summary.csv").read_text() == (
            "axis,value,policy_label,final_T,mean_gap,se_gap\n"
            "policy.exp.u,0.5,exp,5,0.0310810766,0.00368471625\n"
            "policy.exp.u,0.5,const,5,0.032132068,0.00389092672\n"
            "policy.exp.u,3,exp,5,0.023009606,0.00161954595\n"
            "policy.exp.u,3,const,5,0.032132068,0.00389092672\n"
        )

    def test_uncapped_sweep_writes_the_capped_files(self, small_cfg, tmp_path):
        # inf means no cap; no run of the small config reaches the default
        # cap, so lifting it changes no byte.
        assert main(["simulate", *out_args(small_cfg, tmp_path)]) == 0
        args = ["--axis", "run.divergence_cap", "--values", "inf", "--workers", "1"]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 0
        out = tmp_path / "out"
        for name in ("exp_agg.csv", "const_agg.csv", "gap_vs_cost.svg"):
            assert (out / "sweep_run_divergence_cap_inf" / name).read_bytes() == (out / name).read_bytes()

    def test_dotted_label_parameter_sweeps(self, small_cfg, tmp_path):
        # The key follows the last dot, so policy.exp.v1.u is key u of
        # [policy exp.v1], and sweeps it as policy.exp.u sweeps [policy exp].
        dotted = tmp_path / "dotted.cfg"
        dotted.write_text(SMALL.replace("[policy exp]", "[policy exp.v1]"))
        for cfg, axis in ((dotted, "policy.exp.v1.u"), (small_cfg, "policy.exp.u")):
            args = ["sweep", "--config", str(cfg), "--out", str(tmp_path / axis), "--axis", axis, "--values", "1.0"]
            assert main([*args, "--workers", "1"]) == 0
        rows = read_agg_csv(tmp_path / "policy.exp.v1.u" / "sweep_policy_exp_v1_u_1.0" / "exp.v1_agg.csv")
        want = read_agg_csv(tmp_path / "policy.exp.u" / "sweep_policy_exp_u_1.0" / "exp_agg.csv")
        assert [replace(r, policy_label="exp") for r in rows] == want

    def test_failed_pooled_sweep_leaves_no_worker(self, small_cfg, tmp_path, capsys):
        # Every run of the first point diverges at its first update.
        args = ["--axis", "run.divergence_cap", "--values", "1e-9,1e6", "--workers", "2"]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 2
        assert "all Monte Carlo runs failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "sweep_run_divergence_cap_1e6").exists()

    def test_constant_floor_scaling_visible(self, tmp_path):
        # Larger constant batches push the final gap monotonically down.
        text = SMALL.replace(
            "[policy exp]\nfamily = exponential\nn0 = 5\nu = 0.5\n\n"
            "[policy const]\nfamily = budget_constant\nn0 = 5\nu = 0.5",
            "[policy const]\nfamily = constant\nn0 = 5",
        ).replace("T = 5", "T = 10").replace("runs = 40", "runs = 300")
        path = tmp_path / "floor.cfg"
        path.write_text(text)
        code = main(
            [
                "sweep",
                "--config",
                str(path),
                "--out",
                str(tmp_path / "out"),
                "--no-svg",
                "--axis",
                "policy.const.n0",
                "--values",
                "5,10,20",
            ]
        )
        assert code == 0
        lines = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()[1:]
        gaps = [float(line.split(",")[4]) for line in lines]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_eta_axis_sets_the_step(self, tmp_path):
        # An MLE config: each swept eta replaces the step eta = sigma2.
        path = tmp_path / "mle.cfg"
        path.write_text(SMALL.replace("master_seed = 31416", "master_seed = 31416\nupdate = mle"))
        out = tmp_path / "out"
        args = ["--axis", "run.eta", "--values", "0.3,0.6", "--no-svg"]
        assert main(["sweep", "--config", str(path), "--out", str(out), *args]) == 0
        rows = [line.split(",") for line in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
        gaps = {(row[1], row[2]): row[4] for row in rows}
        for label in ("exp", "const"):
            assert gaps["0.3", label] != gaps["0.6", label]

    def test_empty_values_rejected(self, small_cfg, tmp_path, capsys):
        assert (
            main(["sweep", *out_args(small_cfg, tmp_path), "--axis", "policy.exp.u", "--values", ","])
            == 1
        )
        assert "non-empty" in capsys.readouterr().err

    def test_empty_entry_in_values_rejected(self, small_cfg, tmp_path, capsys):
        # The empty entry used to be dropped, and 2,,4 ran two points.
        args = ["--axis", "model.kappa2", "--values", "2,,4"]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 1
        assert "--values '2,,4': entries must be non-empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_numeric_axis_rejected(self, small_cfg, tmp_path, capsys):
        assert (
            main(
                ["sweep", *out_args(small_cfg, tmp_path), "--axis", "output.directory", "--values", "1,2"]
            )
            == 1
        )
        assert "numeric" in capsys.readouterr().err

    def test_values_with_one_name_rejected(self, small_cfg, tmp_path, capsys):
        # A token names its point directory, so it may not repeat.
        args = ["--axis", "model.kappa2", "--values", "2,2"]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 1
        assert "repeat a point name" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("output.eval_samples", "0", "eval_samples must be an integer >= 1, got 0"),
            ("run.divergence_cap", "-1", "divergence_cap must be positive"),
            ("run.max_draws_per_iter", "3", "max_draws_per_iter=3 is below the largest n_t"),
            ("cost.c_g", "0.5,-1", "cost coefficients must be non-negative"),
            ("cost.c_t", "-1", "cost coefficients must be non-negative"),
            ("cost.c_t", "0", "at least one cost coefficient must be positive"),
        ],
    )
    def test_swept_value_gets_the_file_checks(self, small_cfg, tmp_path, capsys, axis, value, message):
        # The same value in the config file is a validation error (exit 1).
        assert main(["sweep", *out_args(small_cfg, tmp_path), "--axis", axis, f"--values={value}"]) == 1
        assert f"axis {axis!r}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "axis, value",
        [
            ("cost.c_g", "nan"),
            ("cost.c_g", "inf"),
            ("cost.c_g", "-inf"),
            ("cost.c_t", "nan"),
            ("run.divergence_cap", "nan"),
            ("run.eta", "nan"),
            ("model.kappa2", "nan"),
        ],
    )
    def test_non_finite_swept_value_is_validation_error(self, small_cfg, tmp_path, capsys, axis, value):
        # The same value in the config file is a validation error (exit 1).
        assert main(["sweep", *out_args(small_cfg, tmp_path), "--axis", axis, f"--values={value}"]) == 1
        message = {
            "cost.c_g": "cost coefficients must be finite",
            "cost.c_t": "cost coefficients must be finite",
            "run.divergence_cap": "divergence_cap must be positive",
            "run.eta": "eta must be a positive finite real",
            "model.kappa2": "kappa2 must be a positive finite real",
        }[axis]
        assert f"axis {axis!r}: {message}, got " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_horizon_beyond_the_float_range_is_validation_error(self, small_cfg, tmp_path, capsys):
        assert main(["sweep", *out_args(small_cfg, tmp_path), "--axis", "run.T", "--values", "5,2000"]) == 1
        assert "axis 'run.T': policy 'exp': exponential counts overflow a float at horizon T=2000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_workers_is_validation_error(self, small_cfg, tmp_path, capsys):
        args = ["--axis", "policy.exp.u", "--values", "0.3", "--workers", "0"]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_integral_integer_axis_rejected(self, small_cfg, tmp_path, capsys):
        args = ["--axis", "run.T", "--values", "2.7"]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 1
        assert "integer" in capsys.readouterr().err

    def test_non_numeric_value_is_validation_error(self, small_cfg, tmp_path, capsys):
        args = ["--axis", "policy.exp.u", "--values", "1,x"]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 1
        assert capsys.readouterr().err == "error: --values '1,x': axis 'policy.exp.u': u must be a number, got 'x'\n"
        assert not (tmp_path / "out").exists()

    def test_seed_axis_names_points_by_the_seeds(self, small_cfg, tmp_path, capsys):
        # Formatted as floats, both seeds would name the point 2.02508e+07.
        seeds = ["20250810", "20250811"]
        args = ["--axis", "run.master_seed", "--values", ",".join(seeds)]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["values"] == seeds and list(summary["status"]) == seeds
        out = tmp_path / "out"
        rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [seeds[0]] * 2 + [seeds[1]] * 2
        first, second = (out / f"sweep_run_master_seed_{seed}" / "exp_agg.csv" for seed in seeds)
        assert first.read_bytes() != second.read_bytes()

    def test_seed_above_two_to_the_53_runs_exactly(self, small_cfg, tmp_path):
        # A float rounds 2**53 + 1 to 2**53.
        seed = 2**53 + 1
        args = ["--axis", "run.master_seed", "--values", str(seed)]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 0
        for s in (seed, seed - 1):
            sim = ["simulate", "--config", str(small_cfg), "--out", str(tmp_path / str(s)), "--seed", str(s)]
            assert main(sim) == 0
        point = tmp_path / "out" / f"sweep_run_master_seed_{seed}"
        for label in ("exp", "const"):
            swept = (point / f"{label}_agg.csv").read_bytes()
            assert swept == (tmp_path / str(seed) / f"{label}_agg.csv").read_bytes()
            assert swept != (tmp_path / str(seed - 1) / f"{label}_agg.csv").read_bytes()

    def test_floats_apart_past_six_digits_are_two_points(self, small_cfg, tmp_path, capsys):
        values = ["2.0000001", "2.0000002"]
        args = ["--axis", "model.kappa2", "--values", ",".join(values)]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 0
        assert list(json.loads(capsys.readouterr().out)["status"]) == values
        for v in values:
            assert (tmp_path / "out" / f"sweep_model_kappa2_{v}" / "exp_agg.csv").exists()

    # Read as a float, 1e3 on run.T would start a 1000-iteration run.
    @pytest.mark.parametrize("section, key, text", [("run", "T", "2.0"), ("output", "eval_samples", "1e3")])
    def test_integer_axis_rejects_what_a_config_line_rejects(self, small_cfg, tmp_path, capsys, section, key, text):
        lines = [line for line in SMALL.splitlines() if not line.startswith(f"{key} = ")]
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {text}")
        path = tmp_path / "integer.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        line = lines.index(f"{key} = {text}") + 1
        message = f"{key} must be an integer, got '{text}'\n"
        assert capsys.readouterr().err == f"error: line {line}: {message}"
        args = ["--axis", f"{section}.{key}", "--values", text]
        assert main(["sweep", *out_args(small_cfg, tmp_path), *args]) == 1
        assert capsys.readouterr().err == f"error: --values '{text}': axis '{section}.{key}': {message}"
        assert not (tmp_path / "out").exists()
