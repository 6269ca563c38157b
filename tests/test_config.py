"""Config parsing, validation errors with line numbers, overrides."""

from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterboot import policy as pol
from iterboot.engine import RunConfig, check_seed
from iterboot.gaussian import check_theta

from iterboot.config import (
    ConfigError,
    ExperimentConfig,
    apply_override,
    load_config,
    parse_config,
)

TOY = """\
spec_version = 1

[model]
d = 2
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

[policy linear]
family = budget_linear
n0 = 10
u = 0.5

[run]
T = 15
runs = 1000
master_seed = 20240817

[cost]
c_g = 0.0
c_t = 1.0

[output]
directory = out
emit_svg = true
eval_samples = 10000
"""


class TestParse:
    def test_toy_config(self):
        cfg = parse_config(TOY)
        assert cfg.theta0.size == 2
        assert cfg.kappa2 == 2.0
        assert np.array_equal(cfg.theta0, np.array([1.0, 1.0]))
        assert [p.label for p in cfg.policies] == ["exp", "const", "linear"]
        assert cfg.T == 15 and cfg.runs == 1000
        assert cfg.eta is None

    def test_schedules_materialize(self):
        cfg = parse_config(TOY)
        by_label = {p.label: pol.materialize(p.spec, cfg.T) for p in cfg.policies}
        assert by_label["exp"].n[:3] == (10, 15, 22)
        assert set(by_label["const"].n) == {582}
        assert by_label["linear"].n[0] == 83

    def test_comments_and_blank_lines(self):
        cfg = parse_config(TOY.replace("n0 = 10", "n0 = 10  # samples at t=0"))
        assert cfg.policies[0].spec.n0 == 10

    def test_explicit_family(self):
        text = TOY.replace("family = exponential\nn0 = 10\nu = 0.5", "family = explicit\nschedule = 4, 5, 6")
        cfg = parse_config(text.replace("T = 15", "T = 3"))
        assert pol.materialize(cfg.policies[0].spec, cfg.T).n == (4, 5, 6)


class TestValidation:
    def test_missing_spec_version(self):
        with pytest.raises(ConfigError, match="spec_version"):
            parse_config(TOY.replace("spec_version = 1\n", ""))

    def test_wrong_spec_version(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(TOY.replace("spec_version = 1", "spec_version = 2"))

    def test_single_run_rejected(self):
        with pytest.raises(ConfigError, match="runs must be >= 2"):
            parse_config(TOY.replace("runs = 1000", "runs = 1"))

    def test_unknown_policy_family_key_names_key_and_line(self):
        bad = TOY.replace("u = 0.5\n\n[policy const]", "u = 0.5\nalpha = 2.0\n\n[policy const]")
        with pytest.raises(ConfigError, match=r"line 13: unknown policy family key 'alpha'"):
            parse_config(bad)

    def test_unknown_family_value(self):
        with pytest.raises(ConfigError, match="unknown policy family 'quadratic'"):
            parse_config(TOY.replace("family = exponential", "family = quadratic"))

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config(TOY.replace("[policy const]", "[policy exp]", 1))

    def test_duplicate_label(self):
        # same label via different section spelling
        with pytest.raises(ConfigError, match="duplicate policy label"):
            parse_config(TOY.replace("[policy const]", "[policy  exp]", 1))

    def test_theta0_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="theta0 has"):
            parse_config(TOY.replace("theta0 = 1.0, 1.0", "theta0 = 1.0"))

    def test_line_number_in_type_error(self):
        with pytest.raises(ConfigError, match="line 5"):
            parse_config(TOY.replace("sigma2 = 1.0", "sigma2 = big"))

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
            parse_config(TOY + "\n[plotting]\nkey = 1\n")

    def test_unknown_run_key(self):
        with pytest.raises(ConfigError, match="unknown key 'episodes'"):
            parse_config(TOY.replace("runs = 1000", "runs = 1000\nepisodes = 5"))

    def test_missing_policy_param(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(TOY.replace("n0 = 10\nu = 0.5\n\n[policy const]", "n0 = 10\n\n[policy const]"))

    def test_no_policies(self):
        text = "\n".join(
            line
            for line in TOY.splitlines()
            if not line.startswith("[policy")
            and line not in ("family = exponential", "family = budget_constant", "family = budget_linear")
        )
        text = text.replace("n0 = 10\nu = 0.5\n\n\n\nn0 = 10\nu = 0.5\n\n\nn0 = 10\nu = 0.5\n\n", "")
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("update", ["", "update = mle\n"])
    def test_eta_needs_gd_update(self, update):
        text = TOY.replace("master_seed = 20240817\n", f"master_seed = 20240817\n{update}eta = 0.5\n")
        line = text.splitlines().index("eta = 0.5") + 1
        with pytest.raises(ConfigError, match=rf"line {line}: eta .*needs update = gd"):
            parse_config(text)

    def test_non_positive_eta_names_line(self):
        text = TOY.replace("master_seed = 20240817\n", "master_seed = 20240817\nupdate = gd\neta = -0.5\n")
        line = text.splitlines().index("eta = -0.5") + 1
        with pytest.raises(ConfigError, match=f"line {line}: eta must be a positive finite real, got -0.5"):
            parse_config(text)

    @pytest.mark.parametrize(
        "section_line, line, message",
        [
            ("[output]", "eval_samples = 0", "eval_samples must be an integer >= 1, got 0"),
            ("[run]", "divergence_cap = -1", "divergence_cap must be positive"),
            (
                "[run]",
                "max_draws_per_iter = 100",
                "max_draws_per_iter=100 is below the largest n_t 2919 of policy 'exp'",
            ),
        ],
    )
    def test_value_that_fails_at_run_time_names_line(self, section_line, line, message):
        text = TOY.replace("eval_samples = 10000\n", "").replace(
            section_line, f"{section_line}\n{line}"
        )
        lineno = text.splitlines().index(line) + 1
        with pytest.raises(ConfigError, match=f"line {lineno}: {message}"):
            parse_config(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("c_g = 0.0", "c_g = -1", "cost coefficients must be non-negative"),
            ("c_g = 0.0", "c_g = nan", "cost coefficients must be finite"),
            ("c_g = 0.0", "c_g = inf", "cost coefficients must be finite"),
            ("c_t = 1.0", "c_t = -1", "cost coefficients must be non-negative"),
            ("c_t = 1.0", "c_t = 0", "at least one cost coefficient must be positive"),
        ],
    )
    def test_bad_cost_names_line(self, old, new, message):
        text = TOY.replace(old, new)
        line = text.splitlines().index(new) + 1
        with pytest.raises(ConfigError, match=f"line {line}: {message}"):
            parse_config(text)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_names_line(self, seed):
        # -1 used to run as 2**64 - 1.
        text = TOY.replace("master_seed = 20240817", f"master_seed = {seed}")
        line = text.splitlines().index(f"master_seed = {seed}") + 1
        with pytest.raises(ConfigError, match=rf"^line {line}: master_seed must be an integer in \[0, 2\*\*64\)"):
            parse_config(text)

    def test_non_finite_theta0_names_line(self):
        with pytest.raises(ConfigError, match="line 7: theta0 must be finite"):
            parse_config(TOY.replace("theta0 = 1.0, 1.0", "theta0 = nan, 1.0"))

    @pytest.mark.parametrize("label", ["con,stant", "a/b", 'say"hi', "two words"])
    def test_unsafe_label_names_line(self, label):
        text = TOY.replace("[policy const]", f"[policy {label}]")
        line = text.splitlines().index(f"[policy {label}]") + 1
        with pytest.raises(ConfigError, match=f"line {line}: policy label"):
            parse_config(text)

    def test_explicit_length_must_match_horizon(self):
        text = TOY.replace(
            "family = exponential\nn0 = 10\nu = 0.5", "family = explicit\nschedule = 4, 5, 6"
        )
        with pytest.raises(ConfigError, match="entries but T"):
            parse_config(text)

    @pytest.mark.parametrize(
        "old, new, policy, message",
        [
            ("T = 15", "T = 1", "linear", "verbatim linear normalization needs T >= 2"),
            ("family = exponential\nn0 = 10\nu = 0.5", "family = explicit\nschedule = 4, 5, 6", "exp", "entries but T=15"),
            ("T = 15", "T = 2000", "exp", "overflow a float at horizon T=2000"),
        ],
    )
    def test_horizon_the_policy_cannot_fill_names_policy_line(self, old, new, policy, message):
        text = TOY.replace(old, new)
        line = text.splitlines().index(f"[policy {policy}]") + 1
        with pytest.raises(ConfigError, match=f"line {line}: policy '{policy}': .*{message}"):
            parse_config(text)

    def test_bad_policy_parameter_names_policy_line(self):
        text = TOY.replace("n0 = 10\nu = 0.5\n\n[policy const]", "n0 = 0\nu = 0.5\n\n[policy const]")
        line = text.splitlines().index("[policy exp]") + 1
        with pytest.raises(ConfigError, match=f"line {line}: policy 'exp': n0 must be an integer >= 1"):
            parse_config(text)

    def test_gd_update_accepted(self):
        cfg = parse_config(TOY.replace("master_seed = 20240817", "master_seed = 1\nupdate = gd\neta = 0.5"))
        assert cfg.eta == 0.5


def _without_policies(text):
    return text[: text.index("[policy exp]")] + text[text.index("[run]") :]


# (edit of TOY, the line the error names or None, its message)
PARSE_ERRORS = {
    "empty_section_header": (lambda t: t.replace("[cost]", "[ ]"), "[ ]", "empty section header"),
    "no_equals_sign": (
        lambda t: t.replace("c_g = 0.0", "c_g 0.0"), "c_g 0.0", "expected 'key = value', got 'c_g 0.0'"
    ),
    "missing_key": (lambda t: t.replace("c_g = 0.0", "= 0.0"), "= 0.0", "missing key before '='"),
    "bool": (
        lambda t: t.replace("emit_svg = true", "emit_svg = maybe"),
        "emit_svg = maybe",
        "emit_svg must be true/false, got 'maybe'",
    ),
    "vector_entry": (
        lambda t: t.replace("theta0 = 1.0, 1.0", "theta0 = 1.0, x"),
        "theta0 = 1.0, x",
        "theta0 must be comma-separated numbers",
    ),
    "empty_vector": (
        lambda t: t.replace("theta0 = 1.0, 1.0", "theta0 = ,"), "theta0 = ,", "theta0 entries must be non-empty"
    ),
    "integer_list": (
        lambda t: t.replace("family = exponential\nn0 = 10\nu = 0.5", "family = explicit\nschedule = 1, x"),
        "schedule = 1, x",
        "schedule must be comma-separated integers",
    ),
    "top_level_key": (
        lambda t: t.replace("spec_version = 1", "spec_version = 1\nseed = 3"),
        "seed = 3",
        "unexpected top-level key 'seed'",
    ),
    "policy_without_label": (
        lambda t: t.replace("[policy const]", "[policy]"),
        "[policy]",
        "policy section needs a label: [policy LABEL]",
    ),
    "no_policies": (_without_policies, None, "config defines no [policy LABEL] sections"),
    "missing_required_key": (
        lambda t: t.replace("runs = 1000\n", ""), None, "section [run] is missing required key 'runs'"
    ),
    "update": (
        lambda t: t.replace("T = 15", "T = 15\nupdate = sgd"), "update = sgd", "update must be 'mle' or 'gd'"
    ),
    "policy_without_family": (
        lambda t: t.replace("family = budget_constant\n", ""),
        "[policy const]",
        "policy 'const' is missing the 'family' key",
    ),
    # Empty list entries used to be dropped: this theta0 read as (1, 1),
    # and this schedule as (4, 5, 6).
    "vector_empty_entry": (
        lambda t: t.replace("d = 2\n", "").replace("theta0 = 1.0, 1.0", "theta0 = 1.0,,1.0,"),
        "theta0 = 1.0,,1.0,",
        "theta0 entries must be non-empty",
    ),
    "integer_list_empty_entry": (
        lambda t: t.replace("T = 15", "T = 3").replace(
            "family = exponential\nn0 = 10\nu = 0.5", "family = explicit\nschedule = 4,,5,6"
        ),
        "schedule = 4,,5,6",
        "schedule entries must be non-empty",
    ),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_names_its_line(case):
    edit, where, message = PARSE_ERRORS[case]
    text = edit(TOY)
    assert text != TOY
    if where is not None:
        message = f"line {text.splitlines().index(where) + 1}: {message}"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_emit_svg_no_is_false():
    assert parse_config(TOY.replace("emit_svg = true", "emit_svg = no")).emit_svg is False


class TestLoad(object):
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "toy.cfg"
        path.write_text(TOY)
        assert load_config(path).T == 15

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parent.parent / "configs").glob("*.cfg")), ids=lambda p: p.name
    )
    def test_committed_config_parses(self, path):
        cfg = load_config(path)
        assert cfg.policies
        for p in cfg.policies:
            assert len(pol.materialize(p.spec, cfg.T).n) == cfg.T


class TestOverride:
    def test_model_key(self):
        cfg = apply_override(parse_config(TOY), "model.kappa2", "4.0")
        assert cfg.kappa2 == 4.0

    def test_run_key_is_integer(self):
        cfg = apply_override(parse_config(TOY), "run.T", "10")
        assert cfg.T == 10 and isinstance(cfg.T, int)

    def test_policy_key(self):
        cfg = apply_override(parse_config(TOY), "policy.exp.u", "1.0")
        assert cfg.policies[0].spec.u == 1.0
        sched = pol.materialize(cfg.policies[0].spec, 3)
        assert sched.n == (10, 20, 40)

    def test_policy_int_key_stays_int(self):
        cfg = apply_override(parse_config(TOY), "policy.exp.n0", "20")
        assert cfg.policies[0].spec.n0 == 20
        assert isinstance(cfg.policies[0].spec.n0, int)

    @pytest.mark.parametrize("axis, value", [("run.T", "2.7"), ("policy.exp.n0", "10.9")])
    def test_integer_key_rejects_fraction(self, axis, value):
        with pytest.raises(ConfigError, match="integer"):
            apply_override(parse_config(TOY), axis, value)

    @pytest.mark.parametrize(
        "value, policy, message",
        [("1", "linear", "needs T >= 2"), ("2000", "exp", "overflow a float at horizon T=2000")],
    )
    def test_horizon_the_policy_cannot_fill_names_axis(self, value, policy, message):
        with pytest.raises(ConfigError, match=f"axis 'run.T': policy '{policy}': .*{message}"):
            apply_override(parse_config(TOY), "run.T", value)

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_seed_axis_outside_64_bits_rejected(self, value):
        with pytest.raises(ConfigError, match=r"^axis 'run.master_seed': master_seed must be an integer in \[0, 2\*\*64\)"):
            apply_override(parse_config(TOY), "run.master_seed", value)

    def test_non_numeric_axis_rejected(self):
        with pytest.raises(ConfigError, match="numeric"):
            apply_override(parse_config(TOY), "output.directory", "3")

    def test_unknown_label(self):
        with pytest.raises(ConfigError, match="no policy labeled"):
            apply_override(parse_config(TOY), "policy.nope.u", "3")

    def test_dotted_label_key_follows_the_last_dot(self):
        cfg = apply_override(parse_config(TOY.replace("[policy exp]", "[policy exp.v1]")), "policy.exp.v1.u", "1.0")
        assert cfg.policies[0].label == "exp.v1" and cfg.policies[0].spec.u == 1.0

    def test_malformed_axis(self):
        with pytest.raises(ConfigError, match="section.key"):
            apply_override(parse_config(TOY), "u", "3")

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
    def test_non_finite_value_rejected(self, axis, value):
        message = {
            "cost.c_g": "cost coefficients must be finite",
            "cost.c_t": "cost coefficients must be finite",
            "run.divergence_cap": "divergence_cap must be positive",
            "run.eta": "eta must be a positive finite real",
            "model.kappa2": "kappa2 must be a positive finite real",
        }[axis]
        with pytest.raises(ConfigError, match=rf"axis '{axis}': {message}, got "):
            apply_override(parse_config(TOY), axis, value)


PARITY = """\
spec_version = 1

[model]
sigma2 = 1.0
kappa2 = 2.0
theta0 = 1.0, 1.0

[policy c]
family = constant
n0 = 3

[run]
T = 4
runs = 2
master_seed = 1
update = gd
eta = 0.5
divergence_cap = 1e6

[cost]
c_g = 0.0
c_t = 1.0

[output]
eval_samples = 10
"""

_REALS = ["0", "-0.0", "-1", "-1e300", "5e-324", "1e-300", "1", "1e300"]
_NON_FINITE = ["inf", "-inf", "nan"]
_INTS = ["0", "-1", str(-(2**64)), "1", "2", str(2**64 - 1), str(2**64), str(10**30)]


def _run_config_cap(name, cap):
    """RunConfig's rule for divergence_cap: positive, inf meaning no cap."""
    RunConfig(
        theta0=1.0, schedule=pol.Schedule((1,)), cost=pol.CostModel(0.0, 1.0), seed=0,
        sigma2=1.0, kappa2=1.0, divergence_cap=cap,
    )


# Each field the config reads through a library checker: its section,
# the checker, the value a config line's text holds, and the texts to
# try. T's largest is 10**5, since every policy is materialized at T.
CHECKED_FIELDS = {
    "theta0": (
        "model",
        check_theta,
        lambda text: np.array([float(tok) for tok in text.split(",")]),
        _REALS + ["inf", "-inf", "nan", "1.0, nan", "-1.0, inf", "1e-300, 1e300"],
    ),
    "sigma2": ("model", pol.check_positive, float, _REALS + _NON_FINITE),
    "kappa2": ("model", pol.check_positive, float, _REALS + _NON_FINITE),
    "T": ("run", pol.check_positive_int, int, ["0", "-1", str(-(2**64)), "1", "2", str(10**5)]),
    "eta": ("run", pol.check_positive, float, _REALS + _NON_FINITE),
    "divergence_cap": ("run", _run_config_cap, float, _REALS + _NON_FINITE),
    "master_seed": ("run", check_seed, int, _INTS),
    "eval_samples": ("output", pol.check_positive_int, int, _INTS),
}


@pytest.mark.parametrize(
    "name, text", [(name, text) for name, (*_, texts) in CHECKED_FIELDS.items() for text in texts]
)
def test_config_checks_agree_with_the_library_checkers(name, text):
    # A value on a config line, or swept, is rejected exactly when the
    # library's checker rejects it, with the checker's message after the
    # line or axis.
    section, check, value_of, _ = CHECKED_FIELDS[name]
    try:
        check(name, value_of(text))
        expected = None
    except ValueError as exc:
        expected = str(exc)
    old = next(line for line in PARITY.splitlines() if line.startswith(f"{name} ="))
    config = PARITY.replace(old, f"{name} = {text}")
    cases = [(lambda: parse_config(config), f"line {config.splitlines().index(f'{name} = {text}') + 1}: ")]
    if name != "theta0":  # not a numeric key, so not a sweep axis
        axis = f"{section}.{name}"
        cases.append((lambda: apply_override(parse_config(PARITY), axis, text), f"axis {axis!r}: "))
    for parse, where in cases:
        if expected is None:
            assert np.array_equal(getattr(parse(), name), value_of(text))
        else:
            with pytest.raises(ConfigError) as err:
                parse()
            assert str(err.value) == where + expected


# Every numeric key of the config sections, as a sweep axis; the
# schema test below keeps the list complete.
NUMERIC_AXES = [
    "model.sigma2",
    "model.kappa2",
    "run.T",
    "run.runs",
    "run.master_seed",
    "run.eta",
    "run.max_draws_per_iter",
    "run.divergence_cap",
    "cost.c_g",
    "cost.c_t",
    "output.eval_samples",
]
POLICY_NUMERIC_FIELDS = [
    (family, f.name)
    for family, spec_cls in sorted(pol.FAMILIES.items())
    for f in fields(spec_cls)
    if get_type_hints(spec_cls)[f.name] in (int, float)
]
PARITY_VALUES = ["nan", "inf", "-inf", "0", "-1", "0.5", "2.7", "3", "2.0", "1e3"]


def test_schema_declares_every_key():
    kinds = get_type_hints(ExperimentConfig)
    keys = {
        f"{f.metadata['section']}.{f.metadata['key'] or f.name}": kinds[f.name]
        for f in fields(ExperimentConfig)
        if f.metadata
    }
    assert set(keys) == {*NUMERIC_AXES, "model.theta0", "output.directory", "output.emit_svg"}
    numeric = (int, float, int | None, float | None)
    assert {key for key, kind in keys.items() if kind in numeric} == set(NUMERIC_AXES)


def _parity_config(sections):
    lines = ["spec_version = 1"]
    for name, keys in sections.items():
        lines += [f"[{name}]", *(f"{key} = {value}" for key, value in keys.items())]
    return "\n".join(lines) + "\n"


def _parity_sections(family="exponential"):
    spec_cls = pol.FAMILIES[family]
    kinds = get_type_hints(spec_cls)
    policy = {"family": family}
    for f in fields(spec_cls):
        if f.default is MISSING:
            policy[f.name] = 2 if kinds[f.name] is int else 0.5
    return {
        "model": {"sigma2": 1.0, "kappa2": 2.0, "theta0": "1.0, 1.0"},
        "policy p": policy,
        "run": {"T": 3, "runs": 4, "master_seed": 1, "update": "gd"},
        "cost": {"c_g": 0.5, "c_t": 1.0},
        "output": {},
    }


def _rejection(fn):
    """The message of the ConfigError ``fn`` raises without its source
    ("line N: " or "axis 'A': "), or None if it raises none."""
    try:
        fn()
    except ConfigError as exc:
        return str(exc).split(": ", 1)[1]
    return None


def _assert_parity(sections, section, key, axis):
    # The same text on a config line and as a swept value: both accepted,
    # or both rejected with the same message.
    base = parse_config(_parity_config(sections))
    differ = []
    for text in PARITY_VALUES:
        sections[section][key] = text
        in_file = _rejection(lambda: parse_config(_parity_config(sections)))
        in_sweep = _rejection(lambda: apply_override(base, axis, text))
        if in_file != in_sweep:
            differ.append((text, in_file, in_sweep))
    assert differ == [], "(text, file's message, sweep's message)"


@pytest.mark.parametrize("axis", NUMERIC_AXES)
def test_sweep_value_checked_as_in_file(axis):
    # update = gd, so that eta in the file passes the gate a sweep has not.
    section, key = axis.split(".")
    _assert_parity(_parity_sections(), section, key, axis)


@pytest.mark.parametrize("family, key", POLICY_NUMERIC_FIELDS)
def test_swept_policy_value_checked_as_in_file(family, key):
    _assert_parity(_parity_sections(family), "policy p", key, f"policy.p.{key}")


def _field_values(kind, T):
    if kind is int:
        return st.integers(1, 40)
    if kind is float:
        return st.floats(0.05, 3.0)
    if kind is str:  # the only string key is budget_linear's normalization
        return st.sampled_from(["verbatim", "exact"])
    assert kind == tuple[int, ...], kind
    return st.lists(st.integers(1, 50), min_size=T, max_size=T).map(tuple)


def _render(value):
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _one_policy_config(family, key_lines, T):
    return "\n".join(
        [
            "spec_version = 1",
            "[model]",
            "sigma2 = 1.0",
            "kappa2 = 2.0",
            "theta0 = 1.0",
            "[policy p]",
            f"family = {family}",
            *key_lines,
            "[run]",
            f"T = {T}",
            "runs = 2",
            "master_seed = 1",
            "[cost]",
            "c_g = 0.0",
            "c_t = 1.0",
        ]
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(pol.FAMILIES)), T=st.integers(2, 6))
def test_every_family_parses_to_its_spec(data, family, T):
    # Keys and types are read from the spec dataclass itself, not
    # through the registry helpers the parser uses.
    spec_cls = pol.FAMILIES[family]
    kinds = get_type_hints(spec_cls)
    params = {
        f.name: data.draw(_field_values(kinds[f.name], T), label=f.name)
        for f in fields(spec_cls)
    }
    lines = [f"{key} = {_render(value)}" for key, value in params.items()]
    cfg = parse_config(_one_policy_config(family, lines, T))
    assert pol.materialize(cfg.policies[0].spec, T) == pol.materialize(spec_cls(**params), T)
    for f in fields(spec_cls):
        if f.default is MISSING:
            kept = [line for line in lines if not line.startswith(f"{f.name} =")]
            with pytest.raises(ConfigError, match="missing required key"):
                parse_config(_one_policy_config(family, kept, T))
