"""Experiment configuration files.

A flat, sectioned key-value format with an explicit ``spec_version``
key, chosen over nested formats so configs diff cleanly and parse
errors can always name a line:

    spec_version = 1

    [model]
    sigma2 = 1.0
    kappa2 = 2.0
    theta0 = 1.0, 1.0

    [policy exponential]
    family = exponential
    n0 = 10
    u = 0.5

    [run] / [cost] / [output] sections follow the same key = value shape.

In [run], ``eta`` (the gradient step) needs ``update = gd``; without it
the step is eta = sigma2, the MLE update. Policy labels use only
letters, digits, ``_``, ``.`` and ``-``, since they name output files
and fill CSV fields.

Policy sections are one per labeled policy; the ``family`` key selects
one of :data:`policy.FAMILIES` (constant, polynomial, exponential,
explicit, batch_constant, batch_linear, batch_exponential,
budget_constant, budget_linear). The other keys of the section are the
fields of that family's spec dataclass, typed as the fields are; fields
without a default are required. The explicit family's key is
``schedule`` (``schedule = 4, 5, 6``), matching its spec field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import policy as pol

__all__ = [
    "ConfigError",
    "PolicyConfig",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "build_schedule",
    "apply_override",
]


class ConfigError(ValueError):
    """Config problem, with the offending line number where known."""


_SECTION_KEYS = {
    "model": {"d", "sigma2", "kappa2", "theta0"},
    "run": {
        "T",
        "runs",
        "master_seed",
        "update",
        "eta",
        "max_draws_per_iter",
        "divergence_cap",
    },
    "cost": {"c_g", "c_t"},
    "output": {"directory", "emit_svg", "eval_samples"},
}


@dataclass(frozen=True)
class PolicyConfig:
    label: str
    family: str
    params: dict[str, object]
    line: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    sigma2: float
    kappa2: float
    theta0: np.ndarray
    policies: tuple[PolicyConfig, ...]
    T: int
    runs: int
    master_seed: int
    eta: float | None = None
    max_draws_per_iter: int | None = None
    divergence_cap: float = 1e6
    c_g: float = 0.0
    c_t: float = 1.0
    out_dir: str = "out"
    emit_svg: bool = True
    eval_samples: int = 10_000

    @property
    def d(self) -> int:
        return self.theta0.size


# Config key -> type, for the keys that set an ExperimentConfig field.
_FIELD_TYPES = get_type_hints(ExperimentConfig)

# Policy labels name output files and fill CSV fields unquoted.
_LABEL = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass
class _Entry:
    value: str
    line: int


def _tokenize(text: str) -> tuple[dict[str, _Entry], dict[str, dict[str, _Entry]], list[tuple[str, int]]]:
    """Split into top-level keys, per-section keys, and section order."""
    top: dict[str, _Entry] = {}
    sections: dict[str, dict[str, _Entry]] = {}
    order: list[tuple[str, int]] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section header")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            order.append((name, lineno))
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        target = top if current is None else sections[current]
        if key in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[key] = _Entry(value, lineno)
    return top, sections, order


def _as_int(entry: _Entry, key: str) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise ConfigError(f"line {entry.line}: {key} must be an integer, got {entry.value!r}") from None


def _as_float(entry: _Entry, key: str) -> float:
    try:
        v = float(entry.value)
    except ValueError:
        raise ConfigError(f"line {entry.line}: {key} must be a number, got {entry.value!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"line {entry.line}: {key} must be finite")
    return v


def _as_bool(entry: _Entry, key: str) -> bool:
    v = entry.value.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"line {entry.line}: {key} must be true/false, got {entry.value!r}")


def _as_float_list(entry: _Entry, key: str) -> list[float]:
    try:
        values = [float(tok) for tok in entry.value.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"line {entry.line}: {key} must be comma-separated numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"line {entry.line}: {key} must be finite")
    return values


def _as_int_list(entry: _Entry, key: str) -> list[int]:
    try:
        return [int(tok) for tok in entry.value.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"line {entry.line}: {key} must be comma-separated integers") from None


# Config value parser by the type of the field a key sets.
_KEY_PARSERS = {
    int: _as_int,
    int | None: _as_int,
    float: _as_float,
    float | None: _as_float,
    bool: _as_bool,
    str: lambda entry, key: entry.value,
    tuple[int, ...]: lambda entry, key: tuple(_as_int_list(entry, key)),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises :class:`ConfigError` with
    line numbers on any problem."""
    top, sections, order = _tokenize(text)

    if "spec_version" not in top:
        raise ConfigError("line 1: missing required top-level key 'spec_version'")
    version = _as_int(top["spec_version"], "spec_version")
    if version != 1:
        raise ConfigError(
            f"line {top['spec_version'].line}: unsupported spec_version {version}"
        )
    for key, entry in top.items():
        if key != "spec_version":
            raise ConfigError(f"line {entry.line}: unexpected top-level key {key!r}")

    for required in ("model", "run", "cost"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    policies: list[PolicyConfig] = []
    labels: set[str] = set()
    for name, lineno in order:
        if name in _SECTION_KEYS:
            for key, entry in sections[name].items():
                if key not in _SECTION_KEYS[name]:
                    raise ConfigError(
                        f"line {entry.line}: unknown key {key!r} in section [{name}]"
                    )
            continue
        tokens = name.split(None, 1)
        if tokens[0] != "policy":
            raise ConfigError(f"line {lineno}: unknown section [{name}]")
        if len(tokens) != 2 or not tokens[1].strip():
            raise ConfigError(f"line {lineno}: policy section needs a label: [policy LABEL]")
        label = tokens[1].strip()
        if not _LABEL.fullmatch(label):
            raise ConfigError(
                f"line {lineno}: policy label {label!r} may use only letters, digits, "
                f"'_', '.' and '-'"
            )
        if label in labels:
            raise ConfigError(f"line {lineno}: duplicate policy label {label!r}")
        labels.add(label)
        policies.append(_parse_policy(label, sections[name], lineno))

    if not policies:
        raise ConfigError("config defines no [policy LABEL] sections")

    model = sections["model"]
    for req in ("sigma2", "kappa2", "theta0"):
        if req not in model:
            raise ConfigError(f"section [model] is missing required key {req!r}")
    sigma2 = _as_float(model["sigma2"], "sigma2")
    kappa2 = _as_float(model["kappa2"], "kappa2")
    theta0 = np.array(_as_float_list(model["theta0"], "theta0"), dtype=np.float64)
    if theta0.size == 0:
        raise ConfigError(f"line {model['theta0'].line}: theta0 must not be empty")
    if "d" in model:
        d = _as_int(model["d"], "d")
        if d != theta0.size:
            raise ConfigError(
                f"line {model['d'].line}: d={d} but theta0 has {theta0.size} coordinates"
            )

    # [run], [cost] and [output] keys set the ExperimentConfig field of
    # the same name (``directory`` sets ``out_dir``), parsed by its type.
    # ``update`` sets no field: it only gates ``eta``.
    runsec = sections["run"]
    update = runsec.pop("update", _Entry("mle", 0))
    if update.value not in ("mle", "gd"):
        raise ConfigError(f"line {update.line}: update must be 'mle' or 'gd'")
    if "eta" in runsec and update.value != "gd":
        raise ConfigError(
            f"line {runsec['eta'].line}: eta sets the gradient step and needs update = gd "
            f"(without it the step is eta = sigma2, the MLE update)"
        )
    scalars: dict[str, object] = {}
    required = {"run": ("T", "runs", "master_seed"), "cost": ("c_g", "c_t"), "output": ()}
    for section, keys in required.items():
        entries = sections.get(section, {})
        for req in keys:
            if req not in entries:
                raise ConfigError(f"section [{section}] is missing required key {req!r}")
        for key, entry in entries.items():
            field = "out_dir" if key == "directory" else key
            scalars[field] = _KEY_PARSERS[_FIELD_TYPES[field]](entry, key)
    cfg = ExperimentConfig(
        sigma2=sigma2, kappa2=kappa2, theta0=theta0, policies=tuple(policies), **scalars
    )
    lines = {
        key: entry.line
        for name in ("model", "run", "output")
        for key, entry in sections.get(name, {}).items()
    }
    _check_values(cfg, lambda key: f"line {lines[key]}: ")
    return cfg


def _check_values(cfg: ExperimentConfig, where: Callable[[str], str]) -> None:
    """The value checks of a config, wherever its values came from: the
    file, or a sweep's override. ``where(key)`` names the source of a
    rejected key, as a message prefix. Every policy is materialized, so
    family and parameter problems surface here, not at run time."""
    if cfg.sigma2 <= 0:
        raise ConfigError(f"{where('sigma2')}sigma2 must be positive")
    if cfg.kappa2 <= 0:
        raise ConfigError(f"{where('kappa2')}kappa2 must be positive")
    if cfg.T < 1:
        raise ConfigError(f"{where('T')}T must be >= 1")
    if cfg.eta is not None and cfg.eta <= 0:
        raise ConfigError(f"{where('eta')}eta must be positive")
    if cfg.runs < 2:
        raise ConfigError(
            f"{where('runs')}runs must be >= 2 (standard errors need at least two completed runs)"
        )
    if cfg.divergence_cap <= 0:
        raise ConfigError(f"{where('divergence_cap')}divergence_cap must be positive")
    if cfg.eval_samples < 1:
        raise ConfigError(f"{where('eval_samples')}eval_samples must be >= 1")
    for p in cfg.policies:
        largest = max(build_schedule(p, cfg.T).n)
        if cfg.max_draws_per_iter is not None and cfg.max_draws_per_iter < largest:
            raise ConfigError(
                f"{where('max_draws_per_iter')}max_draws_per_iter={cfg.max_draws_per_iter} "
                f"is below the largest n_t {largest} of policy {p.label!r}"
            )


def _parse_policy(label: str, entries: dict[str, _Entry], lineno: int) -> PolicyConfig:
    if "family" not in entries:
        raise ConfigError(f"line {lineno}: policy {label!r} is missing the 'family' key")
    family_entry = entries["family"]
    family = family_entry.value
    if family not in pol.FAMILIES:
        raise ConfigError(
            f"line {family_entry.line}: unknown policy family {family!r} "
            f"(expected one of {sorted(pol.FAMILIES)})"
        )
    keys = pol.spec_fields(pol.FAMILIES[family])
    params: dict[str, object] = {}
    for key, entry in entries.items():
        if key == "family":
            continue
        if key not in keys:
            raise ConfigError(
                f"line {entry.line}: unknown policy family key {key!r} for "
                f"family {family!r} (allowed: {sorted(keys)})"
            )
        params[key] = _KEY_PARSERS[keys[key][0]](entry, key)
    missing = {key for key, (_, required) in keys.items() if required} - set(params)
    if missing:
        raise ConfigError(
            f"line {lineno}: policy {label!r} (family {family!r}) is missing "
            f"required key(s) {sorted(missing)}"
        )
    return PolicyConfig(label=label, family=family, params=params, line=lineno)


def build_schedule(p: PolicyConfig, T: int) -> pol.Schedule:
    """Materialize a configured policy for horizon T."""
    if p.family not in pol.FAMILIES:
        raise ConfigError(f"policy {p.label!r}: unknown family {p.family!r}")
    try:
        return pol.materialize(pol.FAMILIES[p.family](**p.params), T)
    except ValueError as exc:
        raise ConfigError(f"policy {p.label!r}: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _axis_value(axis: str, kind: object, value: float) -> int | float:
    """``value`` as the type of the key that ``axis`` names; integer keys
    reject non-integral values."""
    if kind in (int, int | None):
        if not float(value).is_integer():
            raise ConfigError(f"axis {axis!r} takes integer values, got {value!r}")
        return int(value)
    if kind in (float, float | None):
        return float(value)
    raise ConfigError(f"axis {axis!r} does not name a numeric config key")


def apply_override(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """Return a copy of ``cfg`` with one numeric key replaced.

    ``axis`` is a dotted path: ``model.sigma2``, ``run.T``, ``cost.c_g``,
    ``output.eval_samples`` or ``policy.<label>.<key>``. Only numeric
    keys can be swept, typed as the config field or the policy spec
    field they set.
    """
    parts = axis.split(".")
    if len(parts) == 2:
        section, key = parts
        kind = _FIELD_TYPES.get(key) if key in _SECTION_KEYS.get(section, ()) else None
        swept = replace(cfg, **{key: _axis_value(axis, kind, value)})
    elif len(parts) == 3 and parts[0] == "policy":
        _, label, key = parts
        for i, p in enumerate(cfg.policies):
            if p.label == label:
                kind = pol.spec_fields(pol.FAMILIES[p.family]).get(key, (None, False))[0]
                params = {**p.params, key: _axis_value(axis, kind, value)}
                policies = list(cfg.policies)
                policies[i] = replace(p, params=params)
                swept = replace(cfg, policies=tuple(policies))
                break
        else:
            raise ConfigError(f"axis {axis!r}: no policy labeled {label!r}")
    else:
        raise ConfigError(f"axis {axis!r} is not of the form section.key or policy.label.key")
    _check_values(swept, lambda key: f"axis {axis!r}: ")
    return swept
