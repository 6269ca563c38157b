"""CSV schema, 9-significant-digit formatting, byte-exact round trips."""

import re
import tempfile
import threading
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterboot.analytic import cost_curve
from iterboot.csvio import (
    AGG_COLUMNS,
    AggRow,
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
from iterboot.engine import CostModel, RunConfig, monte_carlo, run
from iterboot.policy import Schedule, materialize, Exponential


@pytest.fixture(scope="module")
def small_agg():
    cfg = RunConfig(
        theta0=np.array([1.0, 1.0]),
        schedule=materialize(Exponential(5, 0.5), 4),
        cost=CostModel(0.0, 1.0),
        seed=99,
        sigma2=1.0,
        kappa2=2.0,
    )
    return monte_carlo(cfg, 20)


class TestFormat:
    def test_nine_significant_digits(self):
        assert format_float(0.0962962962962963) == "0.0962962963"
        assert format_float(2.0 / 3.0) == "0.666666667"
        assert format_float(47.0) == "47"
        assert format_float(1.5e-12) == "1.5e-12"

    def test_reparse_is_stable(self):
        for x in (0.1234567891234, 209.3517, 1e-7, 123456789.123):
            s = format_float(x)
            assert format_float(float(s)) == s


class TestRoundTrip:
    def test_bytes_identical(self, small_agg, tmp_path):
        rows = aggregate_rows("exp", small_agg)
        path = tmp_path / "exp_agg.csv"
        write_agg_csv(path, rows)
        first = path.read_bytes()
        write_agg_csv(path, read_agg_csv(path))
        assert path.read_bytes() == first

    def test_header_and_order(self, small_agg, tmp_path):
        path = tmp_path / "x.csv"
        write_agg_csv(path, aggregate_rows("exp", small_agg))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(AGG_COLUMNS)
        ts = [int(line.split(",")[2]) for line in lines[1:]]
        assert ts == sorted(ts)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_agg_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is empty: no CSV header$"):
            read_agg_csv(path)

    def test_blank_line_is_skipped(self, small_agg, tmp_path):
        path = tmp_path / "x.csv"
        write_agg_csv(path, aggregate_rows("exp", small_agg))
        rows = read_agg_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([*lines[:2], "\n", *lines[2:]]))
        assert read_agg_csv(path) == rows

    def test_row_with_extra_field_rejected(self, small_agg, tmp_path):
        path = tmp_path / "x.csv"
        write_agg_csv(path, aggregate_rows("con,stant", small_agg))
        with pytest.raises(ValueError, match="line 2 .* has 12 fields"):
            read_agg_csv(path)

    def test_no_temp_file_left_behind(self, small_agg, tmp_path):
        path = tmp_path / "exp_agg.csv"
        write_agg_csv(path, aggregate_rows("exp", small_agg))
        assert [p.name for p in tmp_path.iterdir()] == ["exp_agg.csv"]

    def test_concurrent_writers_each_leave_a_complete_file(self, tmp_path):
        path = tmp_path / "shared.csv"
        texts = ["a" * 200_000 + "\n", "b" * 300_000 + "\n"]
        start = threading.Barrier(2)
        errors = []

        def writer(text):
            start.wait()
            try:
                for _ in range(50):
                    write_text_atomic(path, text)
                    assert path.read_text() in texts
            except BaseException as exc:  # collected and re-checked below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert path.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["shared.csv"]

    def test_failed_rename_removes_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            write_text_atomic(tmp_path / "taken", "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


# One strategy per AggRow field type; labels from the accepted label set.
_CELLS = {
    str: st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True),
    int: st.integers(),
    float: st.floats(),
}
_AGG_ROWS = st.builds(AggRow, *(_CELLS[kind] for kind in get_type_hints(AggRow).values()))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_AGG_ROWS, max_size=6))
def test_write_read_write_is_byte_identical(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_agg_csv(path, rows)
        first = path.read_bytes()
        write_agg_csv(path, read_agg_csv(path))
        assert path.read_bytes() == first


class TestAnalyticRows:
    def test_same_schema_and_source_column(self, tmp_path):
        ev = cost_curve(Schedule((10, 10)), np.array([1.0]), 1.0, 2.0, CostModel(0.0, 1.0))
        rows = analytic_rows("two", ev)
        assert all(r.source == "analytic" for r in rows)
        assert all(r.se_gap == 0.0 for r in rows)
        path = tmp_path / "two_analytic.csv"
        write_agg_csv(path, rows)
        back = read_agg_csv(path)
        assert [r.T for r in back] == [1, 2]

    def test_law_detail_contains_sigma2(self):
        ev = cost_curve(Schedule((10, 10)), np.array([1.0]), 1.0, 2.0, CostModel(0.0, 1.0))
        text = law_csv_text("two", ev)
        assert "0.0962962963" in text  # sigma2_T at T=2


class TestRunTraceCsv:
    def test_theta_serialized_as_joined_coordinates(self):
        cfg = RunConfig(
            theta0=np.array([1.0, 1.0]),
            schedule=Schedule((5,)),
            cost=CostModel(0.0, 1.0),
            seed=3,
            sigma2=1.0,
            kappa2=2.0,
        )
        text = run_trace_csv_text(run(cfg))
        lines = text.splitlines()
        assert lines[0] == "t,n_t,N_t,theta,expected_reward_after,cum_cost"
        assert lines[1].count('"') == 2
        theta_field = lines[1].split('"')[1]
        assert len(theta_field.split(",")) == 2


class TestCsvText:
    def test_cell_rules(self):
        text = csv_text(
            ("s", "i", "f", "nan", "inf", "v"),
            [("con", np.int64(7), np.float64(2.0 / 3.0), float("nan"), -np.inf, np.array([0.5]))],
        )
        assert text == 's,i,f,nan,inf,v\ncon,7,0.666666667,nan,-inf,"0.5"\n'

    def test_int_valued_float_is_a_float(self):
        assert csv_text(("x",), [(1e9,), (1_000_000_000,)]) == "x\n1e+09\n1000000000\n"

    def test_no_rows_is_the_header_alone(self):
        assert csv_text(("a", "b"), []) == "a,b\n"


# Bytes taken from the hand-joined writers that csv_text replaced; the
# golden files cover only d = 2.
_LAW_BYTES = {
    1: 'policy_label,T,mu,sigma2_T,reward,gap\nexp,1,"0.666666667",0.0666666667,0.751123063,0.0653735182\n'
    'exp,2,"0.444444444",0.0740740741,0.78109633,0.0354002508\nexp,3,"0.296296296",0.063224841,0.796530037,0.0199665436\n',
    3: 'policy_label,T,mu,sigma2_T,reward,gap\n'
    'exp,1,"0.666666667,-0.333333333,1.33333333",0.0666666667,0.36001816,0.184312894\n'
    'exp,2,"0.444444444,-0.222222222,0.888888889",0.0740740741,0.443321721,0.101009333\n'
    'exp,3,"0.296296296,-0.148148148,0.592592593",0.063224841,0.489332226,0.0549988282\n',
}
_RUN_TRACE_BYTES = {
    1: 't,n_t,N_t,theta,expected_reward_after,cum_cost\n0,5,7,"-0.162333444",0.812918371,8.5\n'
    '1,8,10,"-0.543976363",0.77720515,21.5\n',
    3: 't,n_t,N_t,theta,expected_reward_after,cum_cost\n'
    '0,5,34,"0.528770416,-0.0793272245,1.24532383",0.400789846,22\n'
    '1,8,27,"-0.0872461395,-0.323864413,0.997755186",0.452545529,43.5\n',
}
_THETA0 = {1: [1.0], 3: [1.0, -0.5, 2.0]}


@pytest.mark.parametrize("d", [1, 3])
def test_law_csv_bytes_pinned(d):
    ev = cost_curve(Schedule((10, 15, 22)), np.array(_THETA0[d]), 1.0, 2.0, CostModel(0.5, 1.0))
    assert law_csv_text("exp", ev) == _LAW_BYTES[d]


@pytest.mark.parametrize("d", [1, 3])
def test_run_trace_csv_bytes_pinned(d):
    cfg = RunConfig(
        theta0=np.array(_THETA0[d]),
        schedule=Schedule((5, 8)),
        cost=CostModel(0.5, 1.0),
        seed=3,
        sigma2=1.0,
        kappa2=2.0,
    )
    assert run_trace_csv_text(run(cfg)) == _RUN_TRACE_BYTES[d]
