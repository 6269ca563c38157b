"""Budget-allocation policies and their materialized schedules.

A policy fixes, in advance, how many selected samples ``n_t`` each
iteration of the bootstrapping loop receives. Policy families are small
frozen dataclasses, each declared once: its ``family`` name, its
parameters (the dataclass fields, which are also its config keys) and
its floored ``counts(T)``. :data:`FAMILIES` maps names to specs, and
:func:`materialize` turns a spec plus a horizon ``T`` into a concrete
integer :class:`Schedule`. The budget-matched families build the
constant and linear schemes whose totals track a reference exponential
scheme.

Real-valued formulas are floored to integers. Flooring can produce a
zero count, which would leave an iteration with an empty batch; such
entries are clamped to 1 and the schedule is flagged ``clamped``.
:class:`CostModel` prices the generated and the selected samples of a
schedule.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Sequence, get_type_hints

__all__ = [
    "Constant",
    "Polynomial",
    "Exponential",
    "Explicit",
    "BatchConstant",
    "BatchLinear",
    "BatchExponential",
    "BudgetConstant",
    "BudgetLinear",
    "PolicySpec",
    "FAMILIES",
    "spec_fields",
    "Schedule",
    "CostModel",
    "materialize",
    "is_increasing",
]


def check_positive_int(name: str, value: int) -> int:
    """``value`` as an int; raise ``ValueError`` unless it is an integer
    >= 1 (a Python or numpy integer, not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive finite real."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class PolicySpec:
    """Base of the policy families. A family declares its config name in
    ``family``, its parameters as dataclass fields (int fields must be
    integers >= 1, float fields positive finite reals) and its floored
    per-iteration counts, which may be zero, in ``counts(T)``."""

    family: ClassVar[str]

    def __post_init__(self) -> None:
        for name, (kind, _) in spec_fields(type(self)).items():
            if kind is int:
                object.__setattr__(self, name, check_positive_int(name, getattr(self, name)))
            elif kind is float:
                check_positive(name, getattr(self, name))

    def counts(self, T: int) -> list[int]:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(PolicySpec):
    """n_t = n0 for every iteration."""

    family: ClassVar[str] = "constant"
    n0: int

    def counts(self, T: int) -> list[int]:
        return [self.n0] * T


@dataclass(frozen=True)
class Polynomial(PolicySpec):
    """n_t = n0 * (1+t)**alpha, floored."""

    family: ClassVar[str] = "polynomial"
    n0: int
    alpha: float

    def counts(self, T: int) -> list[int]:
        return [math.floor(self.n0 * (1 + t) ** self.alpha) for t in range(T)]


@dataclass(frozen=True)
class Exponential(PolicySpec):
    """n_t = n0 * (1+u)**t, floored."""

    family: ClassVar[str] = "exponential"
    n0: int
    u: float

    def counts(self, T: int) -> list[int]:
        return [math.floor(self.n0 * (1 + self.u) ** t) for t in range(T)]


@dataclass(frozen=True)
class Explicit(PolicySpec):
    """A literal list of per-iteration counts, each checked as a
    :class:`Schedule` entry."""

    family: ClassVar[str] = "explicit"
    schedule: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", Schedule(tuple(self.schedule)).n)

    def counts(self, T: int) -> list[int]:
        if len(self.schedule) != T:
            raise ValueError(f"Explicit policy has {len(self.schedule)} entries but T={T}")
        return list(self.schedule)


@dataclass(frozen=True)
class BatchConstant(PolicySpec):
    """n_t = floor(n) * B; counts are integer multiples of a batch size."""

    family: ClassVar[str] = "batch_constant"
    n: float
    B: int

    def counts(self, T: int) -> list[int]:
        return [math.floor(self.n) * self.B] * T


@dataclass(frozen=True)
class BatchLinear(PolicySpec):
    """n_t = floor(n * (t+1)) * B."""

    family: ClassVar[str] = "batch_linear"
    n: float
    B: int

    def counts(self, T: int) -> list[int]:
        return [math.floor(self.n * (t + 1)) * self.B for t in range(T)]


@dataclass(frozen=True)
class BatchExponential(PolicySpec):
    """n_t = floor(n * (1+u)**t) * B."""

    family: ClassVar[str] = "batch_exponential"
    n: float
    u: float
    B: int

    def counts(self, T: int) -> list[int]:
        return [math.floor(self.n * (1 + self.u) ** t) * self.B for t in range(T)]


def _exponential_total(n0: int, u: float, T: int) -> float:
    # Pre-floor total of the reference exponential scheme.
    return sum(n0 * (1 + u) ** k for k in range(T))


@dataclass(frozen=True)
class BudgetConstant(PolicySpec):
    """Constant scheme whose per-iteration count is the mean of the
    exponential scheme ``n0*(1+u)**t`` over the same horizon, floored."""

    family: ClassVar[str] = "budget_constant"
    n0: int
    u: float

    def counts(self, T: int) -> list[int]:
        return [math.floor(_exponential_total(self.n0, self.u, T) / T)] * T


@dataclass(frozen=True)
class BudgetLinear(PolicySpec):
    """Linearly growing scheme matched to the exponential scheme's total.

    ``verbatim`` uses the T*(T-1) denominator as printed in the source
    construction; its pre-floor total overshoots the exponential total
    by a factor (T+1)/(T-1). ``exact`` uses T*(T+1), which makes the
    pre-floor totals equal. ``verbatim`` requires T >= 2.
    """

    family: ClassVar[str] = "budget_linear"
    n0: int
    u: float
    normalization: str = "verbatim"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.normalization not in ("verbatim", "exact"):
            raise ValueError(f"unknown normalization {self.normalization!r}")

    def counts(self, T: int) -> list[int]:
        if self.normalization == "verbatim" and T < 2:
            raise ValueError("verbatim linear normalization needs T >= 2")
        total = _exponential_total(self.n0, self.u, T)
        denom = T * (T - 1) if self.normalization == "verbatim" else T * (T + 1)
        return [math.floor(2 * (t + 1) / denom * total) for t in range(T)]


@functools.cache
def spec_fields(spec: type[PolicySpec]) -> dict[str, tuple[type, bool]]:
    """Parameters of a policy family: field name -> (type, required)."""
    types = get_type_hints(spec)
    return {f.name: (types[f.name], f.default is MISSING) for f in fields(spec)}


# Config family name -> spec class; a family's config keys are its fields.
FAMILIES: dict[str, type[PolicySpec]] = {
    cls.family: cls for cls in PolicySpec.__subclasses__()
}


@dataclass(frozen=True)
class Schedule:
    """A concrete per-iteration sample-count sequence.

    Attributes
    ----------
    n : tuple of int
        Selected-sample counts, one per iteration; every entry >= 1.
    clamped : bool
        True when flooring produced a zero that was clamped to 1.
    """

    n: tuple[int, ...]
    clamped: bool = False

    def __post_init__(self) -> None:
        if not self.n:
            raise ValueError("Schedule must have at least one iteration")
        n = tuple(check_positive_int("schedule entry", v) for v in self.n)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class CostModel:
    """Per-sample generation and training cost coefficients."""

    c_g: float
    c_t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_g) and math.isfinite(self.c_t)):
            raise ValueError(f"cost coefficients must be finite, got {self.c_g!r}, {self.c_t!r}")
        if self.c_g < 0 or self.c_t < 0:
            raise ValueError("cost coefficients must be non-negative")
        if self.c_g + self.c_t <= 0:
            raise ValueError("at least one cost coefficient must be positive")

    def bill(self, generated: float, selected: float) -> float:
        """An iteration's cost; arrays of counts give arrays of costs."""
        return self.c_g * generated + self.c_t * selected


def _clamp(raw: Sequence[int]) -> Schedule:
    clamped = any(v < 1 for v in raw)
    return Schedule(tuple(max(1, int(v)) for v in raw), clamped=clamped)


def materialize(spec: PolicySpec, T: int) -> Schedule:
    """Evaluate a policy family over the horizon ``t = 0..T-1``.

    Real-valued families are floored entrywise, then clamped to >= 1.
    Raises ``ValueError`` for T < 1 or a horizon the spec cannot fill
    (an Explicit spec whose length is not T, a verbatim BudgetLinear
    with T < 2, counts beyond the float range).
    """
    T = check_positive_int("T", T)
    try:
        return _clamp(spec.counts(T))
    except OverflowError:
        raise ValueError(f"{spec.family} counts overflow a float at horizon T={T}") from None


def is_increasing(s: Schedule) -> bool:
    """True iff n_t <= n_{t+1} everywhere with at least one strict increase."""
    pairs = list(zip(s.n, s.n[1:]))
    return all(a <= b for a, b in pairs) and any(a < b for a, b in pairs)
