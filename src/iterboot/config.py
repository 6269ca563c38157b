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

The fields of :class:`ExperimentConfig` are the schema of the other
sections: each declares its section, its key is its name (``directory``
sets ``out_dir``), a field without a default is a required key, and a
value is parsed and checked by its field's type, in the file or in a
sweep (:func:`apply_override`). Two keys set no field: ``[model] d``,
which must equal the length of ``theta0``, and ``[run] update``, which
gates ``eta``: the gradient step needs ``update = gd``, and without it
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
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import policy as pol
from .engine import check_seed
from .gaussian import check_theta

__all__ = [
    "ConfigError",
    "PolicyConfig",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "build_schedule",
    "apply_override",
    "split_list",
]


class ConfigError(ValueError):
    """Config problem, with the offending line number where known."""


@dataclass(frozen=True)
class PolicyConfig:
    label: str
    spec: pol.PolicySpec
    line: int = 0


def _key(section: str, default: object = MISSING, key: str | None = None):
    """A field set by ``key``, the field's name unless given, in ``[section]``."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True, kw_only=True, eq=False)
class ExperimentConfig:
    sigma2: float = _key("model")
    kappa2: float = _key("model")
    theta0: np.ndarray = _key("model")
    policies: tuple[PolicyConfig, ...]
    T: int = _key("run")
    runs: int = _key("run")
    master_seed: int = _key("run")
    eta: float | None = _key("run", None)
    max_draws_per_iter: int | None = _key("run", None)
    divergence_cap: float = _key("run", 1e6)
    c_g: float = _key("cost")
    c_t: float = _key("cost")
    out_dir: str = _key("output", "out", key="directory")
    emit_svg: bool = _key("output", True)
    eval_samples: int = _key("output", 10_000)


# (section, key) -> the ExperimentConfig field the key sets, and its type.
_FIELD_TYPES = get_type_hints(ExperimentConfig)
_KEYS = {
    (f.metadata["section"], f.metadata["key"] or f.name): (f, _FIELD_TYPES[f.name])
    for f in fields(ExperimentConfig)
    if f.metadata
}
_SECTIONS = {section for section, _ in _KEYS}

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


# The value parsers take config text; each raises ValueError with the
# tail of its message.
def _as_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _as_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None


def _as_bool(text: str) -> bool:
    v = text.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ValueError(f"must be true/false, got {text!r}")


def split_list(text: str) -> list[str]:
    """The stripped entries of comma-separated ``text``, none of them empty."""
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise ValueError("entries must be non-empty")
    return tokens


def _as_vector(text: str) -> np.ndarray:
    tokens = split_list(text)
    try:
        return np.array([float(tok) for tok in tokens], dtype=np.float64)
    except ValueError:
        raise ValueError("must be comma-separated numbers") from None


def _as_int_tuple(text: str) -> tuple[int, ...]:
    tokens = split_list(text)
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError("must be comma-separated integers") from None


# Config value parser by the type of the field a key sets.
_KEY_PARSERS: dict[object, Callable] = {
    int: _as_int,
    int | None: _as_int,
    float: _as_float,
    float | None: _as_float,
    bool: _as_bool,
    str: str,
    tuple[int, ...]: _as_int_tuple,
    np.ndarray: _as_vector,
}
_NUMERIC = (int, int | None, float, float | None)


def _parse(kind: object, text: str, where: str) -> object:
    """``text`` parsed as ``kind``; ``where`` names the key and its
    source in the message of a rejected value."""
    try:
        return _KEY_PARSERS[kind](text)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises :class:`ConfigError` with
    line numbers on any problem."""
    top, sections, order = _tokenize(text)

    if "spec_version" not in top:
        raise ConfigError("line 1: missing required top-level key 'spec_version'")
    entry = top["spec_version"]
    version = _parse(int, entry.value, f"line {entry.line}: spec_version")
    if version != 1:
        raise ConfigError(f"line {entry.line}: unsupported spec_version {version}")
    for key, entry in top.items():
        if key != "spec_version":
            raise ConfigError(f"line {entry.line}: unexpected top-level key {key!r}")

    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    policies: list[PolicyConfig] = []
    labels: set[str] = set()
    for name, lineno in order:
        if name in _SECTIONS:
            for key, entry in sections[name].items():
                if (name, key) in (("model", "d"), ("run", "update")):
                    continue  # keys that set no field, read below
                if (name, key) not in _KEYS:
                    raise ConfigError(
                        f"line {entry.line}: unknown key {key!r} in section [{name}]"
                    )
                f, kind = _KEYS[name, key]
                values[f.name] = _parse(kind, entry.value, f"line {entry.line}: {key}")
                lines[f.name] = entry.line
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
    for (section, key), (f, _) in _KEYS.items():
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"section [{section}] is missing required key {key!r}")

    model, runsec = sections.get("model", {}), sections.get("run", {})
    if "d" in model:
        entry = model["d"]
        d = _parse(int, entry.value, f"line {entry.line}: d")
        if d != values["theta0"].size:
            raise ConfigError(
                f"line {entry.line}: d={d} but theta0 has {values['theta0'].size} coordinates"
            )
    update = runsec.get("update", _Entry("mle", 0))
    if update.value not in ("mle", "gd"):
        raise ConfigError(f"line {update.line}: update must be 'mle' or 'gd'")
    if "eta" in runsec and update.value != "gd":
        raise ConfigError(
            f"line {runsec['eta'].line}: eta sets the gradient step and needs update = gd "
            f"(without it the step is eta = sigma2, the MLE update)"
        )
    cfg = ExperimentConfig(policies=tuple(policies), **values)
    _check_values(cfg, lambda key: f"line {key.line if isinstance(key, PolicyConfig) else lines[key]}: ")
    return cfg


def _check_values(cfg: ExperimentConfig, where: Callable[[str | PolicyConfig], str]) -> None:
    """The range checks of a config, wherever its values came from: the
    file, or a sweep's override. ``where(key)`` names the source of a
    rejected field or policy, as a message prefix. Every policy is
    materialized, so horizon problems surface here, not at run time."""
    for name, check in (
        ("theta0", check_theta),
        ("sigma2", pol.check_positive),
        ("kappa2", pol.check_positive),
        ("T", pol.check_positive_int),
        ("eta", pol.check_positive),
        ("master_seed", check_seed),
        ("eval_samples", pol.check_positive_int),
    ):
        value = getattr(cfg, name)
        try:
            if value is not None:  # eta unset
                check(name, value)
        except ValueError as exc:
            raise ConfigError(f"{where(name)}{exc}") from None
    if cfg.runs < 2:
        raise ConfigError(
            f"{where('runs')}runs must be >= 2 (standard errors need at least two completed runs)"
        )
    try:
        pol.CostModel(cfg.c_g, cfg.c_t)
    except ValueError as exc:
        raise ConfigError(f"{where('c_t' if 0 <= cfg.c_g < math.inf else 'c_g')}{exc}") from None
    if not cfg.divergence_cap > 0:  # RunConfig's rule: nan included; inf means no cap
        raise ConfigError(
            f"{where('divergence_cap')}divergence_cap must be positive, got {cfg.divergence_cap!r}"
        )
    for p in cfg.policies:
        try:
            largest = max(pol.materialize(p.spec, cfg.T).n)
        except ValueError as exc:
            raise ConfigError(f"{where(p)}policy {p.label!r}: {exc}") from None
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
        params[key] = _parse(keys[key][0], entry.value, f"line {entry.line}: {key}")
    missing = {key for key, (_, required) in keys.items() if required} - set(params)
    if missing:
        raise ConfigError(
            f"line {lineno}: policy {label!r} (family {family!r}) is missing "
            f"required key(s) {sorted(missing)}"
        )
    try:
        spec = pol.FAMILIES[family](**params)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: policy {label!r}: {exc}") from None
    return PolicyConfig(label=label, spec=spec, line=lineno)


def build_schedule(p: PolicyConfig, T: int) -> pol.Schedule:
    """``policy.materialize(p.spec, T)``, for perfbench's set-up probe."""
    return pol.materialize(p.spec, T)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _axis_value(axis: str, kind: object, key: str, text: str) -> int | float:
    if kind not in _NUMERIC:
        raise ConfigError(f"axis {axis!r} does not name a numeric config key")
    return _parse(kind, text, f"axis {axis!r}: {key}")


def apply_override(cfg: ExperimentConfig, axis: str, text: str) -> ExperimentConfig:
    """Return a copy of ``cfg`` with one numeric key set from ``text``.

    ``axis`` is a dotted path: ``model.sigma2``, ``run.T``, ``cost.c_g``,
    ``output.eval_samples`` or ``policy.<label>.<key>``, where the label
    may contain dots and the key, which never does, follows the last
    one. Only numeric keys can be swept. ``text`` is parsed and checked
    as the same text of the key is on a config line, so an integer key
    takes ``20`` but not ``20.0`` or ``2e1``, and stays exact at any size.
    """
    section, dot, rest = axis.partition(".")
    if dot and "." not in rest:
        f, kind = _KEYS.get((section, rest), (None, None))
        new = _axis_value(axis, kind, rest, text)
        swept = replace(cfg, **{f.name: new})
    elif section == "policy" and "." in rest:
        label, _, key = rest.rpartition(".")
        p = next((p for p in cfg.policies if p.label == label), None)
        if p is None:
            raise ConfigError(f"axis {axis!r}: no policy labeled {label!r}")
        kind = pol.spec_fields(type(p.spec)).get(key, (None, False))[0]
        new = _axis_value(axis, kind, key, text)
        try:
            spec = replace(p.spec, **{key: new})
        except ValueError as exc:
            raise ConfigError(f"axis {axis!r}: policy {label!r}: {exc}") from None
        policies = tuple(replace(q, spec=spec) if q is p else q for q in cfg.policies)
        swept = replace(cfg, policies=policies)
    else:
        raise ConfigError(f"axis {axis!r} is not of the form section.key or policy.label.key")
    _check_values(swept, lambda name: f"axis {axis!r}: ")
    return swept
