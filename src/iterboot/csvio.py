"""CSV emission and parsing.

Every CSV iterboot writes is a header and rows that :func:`csv_text`
renders, each cell by its type: a ``str`` as it is, unquoted; an ``int``
or numpy integer as a plain integer; a numpy array as one double-quoted
field of comma-joined coordinates, quoted at d = 1 too; anything else,
and each coordinate, as a float with 9 significant digits
(:func:`format_float`). The fields of :class:`AggRow` are the columns
that simulation aggregates and analytic curves share, so the two overlay
directly; their types say how each cell is rendered and parsed. Emission
is atomic (write to a temp file, then rename) and byte-stable: parsing an
emitted aggregate file and re-emitting it reproduces identical bytes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .analytic import PolicyEvaluation
from .engine import MonteCarloTrace

__all__ = [
    "AGG_COLUMNS",
    "AggRow",
    "format_float",
    "csv_text",
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


def _cell(v) -> str:
    """One cell, rendered by its type (see the module docstring)."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.ndarray):
        return '"' + ",".join(map(format_float, v)) + '"'
    return format_float(v)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV text of ``header`` and ``rows``, each cell rendered by its
    type (see the module docstring), newline-terminated."""
    lines = [",".join(header)]
    lines.extend(",".join([_cell(v) for v in row]) for row in rows)
    return "\n".join(lines) + "\n"


def _curve_rows(label, source, T, n, mean_N, gap, se_gap, cum_cost, se_cum_cost, runs=(0, 0)):
    """One AggRow per T from per-T columns, in AggRow's order."""
    return [
        AggRow(label, source, int(t), int(n_t), *map(float, per_T), *runs)
        for t, n_t, *per_T in zip(T, n, mean_N, gap, se_gap, cum_cost, se_cum_cost)
    ]


def aggregate_rows(label: str, agg: MonteCarloTrace) -> list[AggRow]:
    """Rows for a simulation aggregate, T ascending."""
    return _curve_rows(
        label, "sim", agg.T, agg.n, agg.mean_N, agg.mean_gap, agg.se_gap,
        agg.mean_cum_cost, agg.se_cum_cost, (agg.runs_completed, agg.runs_diverged),
    )


def analytic_rows(label: str, ev: PolicyEvaluation) -> list[AggRow]:
    """Rows for an analytic curve in the same schema (SEs are zero,
    run counts are zero; the source column distinguishes them)."""
    return _curve_rows(
        label, "analytic", ev.T, ev.n, ev.mean_N, ev.gap, repeat(0.0), ev.cum_cost, repeat(0.0)
    )


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
    """Emit rows sorted by (policy_label, T), header always present; each
    cell is cast to its field's type first, so a float field holding an
    int still renders as a float."""
    ordered = sorted(rows, key=lambda r: (r.policy_label, r.T))
    cells = ([kind(getattr(r, col)) for col, kind in zip(AGG_COLUMNS, _COLUMN_TYPES)] for r in ordered)
    write_text_atomic(path, csv_text(AGG_COLUMNS, cells))


def read_agg_csv(path: str | Path) -> list[AggRow]:
    """Parse a file written by :func:`write_agg_csv`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty: no CSV header")
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
    """Detail file for analytic curves: the marginal-law trajectory, the
    mean as one quoted field of coordinates."""
    rows = zip(repeat(label), ev.T, ev.mu, ev.sigma2_T, ev.reward, ev.gap)
    return csv_text(("policy_label", "T", "mu", "sigma2_T", "reward", "gap"), rows)


def run_trace_csv_text(trace) -> str:
    """Per-run trace CSV; theta as one quoted field of coordinates."""
    rows = ((r.t, r.n_t, r.N_t, r.theta_after, r.expected_reward_after, r.cum_cost) for r in trace.records)
    return csv_text(("t", "n_t", "N_t", "theta", "expected_reward_after", "cum_cost"), rows)
