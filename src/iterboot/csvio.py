"""CSV emission and parsing for aggregate curves.

One fixed column order is shared by simulation aggregates and analytic
curves so the two overlay directly. The fields of :class:`AggRow` are
the schema: their names and order give the columns, their types how
each cell is rendered and parsed. Floats are rendered with 9
significant digits; integer columns as plain integers. Emission is
atomic (write to a temp file, then rename) and byte-stable: parsing an
emitted file and re-emitting it reproduces identical bytes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, get_type_hints

from .analytic import PolicyEvaluation
from .engine import AggregateTrace

__all__ = [
    "AGG_COLUMNS",
    "AggRow",
    "format_float",
    "aggregate_rows",
    "analytic_rows",
    "write_agg_csv",
    "read_agg_csv",
    "write_text_atomic",
    "law_csv_text",
    "run_trace_csv_text",
]


@dataclass(frozen=True)
class AggRow:
    """One aggregate CSV row; the fields, in order, are the columns."""

    policy_label: str
    source: str  # "sim" or "analytic"
    T: int
    n_t: int
    mean_N_t: float
    mean_gap: float
    se_gap: float
    mean_cum_cost: float
    se_cum_cost: float
    runs_completed: int
    runs_diverged: int


def format_float(x: float) -> str:
    """Render with 9 significant digits; stable under parse/re-render."""
    return format(float(x), ".9g")


AGG_COLUMNS = tuple(f.name for f in fields(AggRow))
_COLUMN_TYPES = tuple(get_type_hints(AggRow)[name] for name in AGG_COLUMNS)
_RENDER = {str: str, int: lambda v: str(int(v)), float: format_float}


def aggregate_rows(label: str, agg: AggregateTrace) -> list[AggRow]:
    """Rows for a simulation aggregate, T ascending."""
    return [
        AggRow(
            policy_label=label,
            source="sim",
            T=int(agg.T[i]),
            n_t=int(agg.n[i]),
            mean_N_t=float(agg.mean_N[i]),
            mean_gap=float(agg.mean_gap[i]),
            se_gap=float(agg.se_gap[i]),
            mean_cum_cost=float(agg.mean_cum_cost[i]),
            se_cum_cost=float(agg.se_cum_cost[i]),
            runs_completed=agg.runs_completed,
            runs_diverged=agg.runs_diverged,
        )
        for i in range(len(agg.T))
    ]


def analytic_rows(label: str, ev: PolicyEvaluation) -> list[AggRow]:
    """Rows for an analytic curve in the same schema (SEs are zero,
    run counts are zero; the source column distinguishes them)."""
    return [
        AggRow(
            policy_label=label,
            source="analytic",
            T=int(ev.T[i]),
            n_t=int(ev.n[i]),
            mean_N_t=float(ev.mean_N[i]),
            mean_gap=float(ev.gap[i]),
            se_gap=0.0,
            mean_cum_cost=float(ev.cum_cost[i]),
            se_cum_cost=0.0,
            runs_completed=0,
            runs_diverged=0,
        )
        for i in range(len(ev.T))
    ]


def _render(row: AggRow) -> list[str]:
    return [_RENDER[kind](getattr(row, col)) for col, kind in zip(AGG_COLUMNS, _COLUMN_TYPES)]


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text via a temp file in the same directory, then rename.

    The temp name is random per call, so concurrent writers of one path
    never share it; it is removed if the write or the rename fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_agg_csv(path: str | Path, rows: Iterable[AggRow]) -> None:
    """Emit rows sorted by (policy_label, T), header always present."""
    ordered = sorted(rows, key=lambda r: (r.policy_label, r.T))
    lines = [",".join(AGG_COLUMNS)]
    lines.extend(",".join(_render(r)) for r in ordered)
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_agg_csv(path: str | Path) -> list[AggRow]:
    """Parse a file written by :func:`write_agg_csv`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != AGG_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        rows = []
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(AGG_COLUMNS):
                raise ValueError(
                    f"line {reader.line_num} of {path} has {len(rec)} fields, "
                    f"expected {len(AGG_COLUMNS)}"
                )
            try:
                rows.append(AggRow(*(kind(cell) for kind, cell in zip(_COLUMN_TYPES, rec))))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num} of {path}: {exc}") from None
    return rows


def law_csv_text(label: str, ev: PolicyEvaluation) -> str:
    """Detail file for analytic curves: marginal-law trajectory with the
    mean serialized as comma-joined coordinates in a quoted field."""
    lines = ["policy_label,T,mu,sigma2_T,reward,gap"]
    for i in range(len(ev.T)):
        mu = ",".join(format_float(c) for c in ev.mu[i])
        lines.append(
            ",".join(
                [
                    label,
                    str(int(ev.T[i])),
                    f'"{mu}"',
                    format_float(ev.sigma2_T[i]),
                    format_float(ev.reward[i]),
                    format_float(ev.gap[i]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def run_trace_csv_text(trace) -> str:
    """Per-run trace CSV; theta serialized as comma-joined coordinates."""
    lines = ["t,n_t,N_t,theta,expected_reward_after,cum_cost"]
    for rec in trace.records:
        theta = ",".join(format_float(c) for c in rec.theta_after)
        lines.append(
            ",".join(
                [
                    str(rec.t),
                    str(rec.n_t),
                    str(rec.N_t),
                    f'"{theta}"',
                    format_float(rec.expected_reward_after),
                    format_float(rec.cum_cost),
                ]
            )
        )
    return "\n".join(lines) + "\n"
