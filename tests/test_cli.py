"""CLI adapter: resolution order, deterministic files, exit statuses.

The library modules never import the CLI, which keeps the adapter thin by
construction.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgapprox import (
    InvariantViolation,
    cesaro_profile,
    dyadic_midpoint_report,
    hannan_sum,
    singular_inner_coeffs,
)
from mgapprox.cli import _RENDER, _ROW_BLOCK, OUT_DIR_ENV, Table, UsageError, _row, emit_table, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    return tmp_path


def run(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# The per-cell renderers emit_table used before it took native cells only,
# kept as the oracle for the CSV and JSON bytes.
def _render_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _json_cell(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def table_of(rows, schema) -> Table:
    """The Table holding rows under schema."""
    columns = zip(*rows) if rows else [()] * len(schema)
    return Table("t", **{name: list(column) for name, column in zip(schema, columns)})


def reference_bytes(rows, schema, out_format, metadata) -> bytes:
    if out_format == "csv":
        lines = [",".join(schema)]
        lines += [",".join(_render_cell(cell) for cell in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()
    payload = {
        "metadata": metadata,
        "schema": list(schema),
        "rows": [[_json_cell(cell) for cell in row] for row in rows],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


NATIVE_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",")),
)

TRICKY_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\n\r\t,é€😀'),
    st.characters(blacklist_categories=("Cs",)),
))


def typed_column(n):
    """n cells of one kind, the kinds emit_table renders through one spec or
    cell by cell."""
    def cells(cell):
        return st.lists(cell, min_size=n, max_size=n)

    return st.one_of(
        cells(st.integers()),
        cells(st.floats(allow_nan=False, allow_infinity=False)),
        cells(st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]))),
        cells(st.floats()).map(lambda column: [None, *column[1:]][:n]),
        cells(st.booleans()),
        cells(TRICKY_TEXT),
    )


TYPED_TABLES = st.integers(0, 12).flatmap(lambda n: st.lists(typed_column(n), min_size=1, max_size=5))


def block_table(n):
    """One column of each kind, n rows."""
    return [
        list(range(-n, n, 2)),
        [i / 7 for i in range(n)],
        [[math.nan, math.inf, -math.inf, -0.0][i % 4] if i % 5 == 0 else i / 3 for i in range(n)],
        [None, *(i / 3 for i in range(1, n))],
        [i % 3 == 0 for i in range(n)],
        ['a"b\\c\nd' + "é" * (i % 3) for i in range(n)],
    ]


def leading_none_table(n):
    """Columns that are None in row 0 (an all-None one too), n rows: row 0
    renders apart, so these take their specs over rows 1.."""
    return [
        [None, *(i / 7 for i in range(1, n))],
        [None, *([math.nan, 0.5, math.inf, -math.inf] * n)[:n - 1]],
        [None] * n,
        [None, *range(1, n)],
        list(range(n)),
    ]


class TestEmitTable:
    @settings(deadline=None, max_examples=100)
    @given(
        width=st.integers(1, 4),
        cells=st.lists(NATIVE_CELLS, max_size=24),
        out_format=st.sampled_from(["csv", "json"]),
    )
    @example(width=3, cells=[0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e300, -1.5],
             out_format="csv")
    @example(width=3, cells=[0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e300, -1.5],
             out_format="json")
    def test_bytes_match_the_per_cell_oracle(self, width, cells, out_format):
        rows = [cells[i:i + width] for i in range(0, len(cells) - width + 1, width)]
        schema = [f"c{j}" for j in range(width)]
        metadata = {"config": {"horizons": [1, 10]}}
        path = f"t.{out_format}"
        emit_table(table_of(rows, schema), out_format=out_format, path=path, metadata=metadata)
        assert read(path) == reference_bytes(rows, schema, out_format, metadata)

    @settings(deadline=None, max_examples=100)
    @given(columns=TYPED_TABLES,
           metadata=st.sampled_from([{}, {"config": {"horizons": [1, 10]}}, {"rows": []}]))
    @example(columns=[[], []], metadata={})
    @example(columns=[[7], [0.5], [math.nan], [None], [True], ['"\\\n€']], metadata={})
    @example(columns=block_table(_ROW_BLOCK), metadata={"config": {"trunc": 3}})
    @example(columns=block_table(_ROW_BLOCK + 1), metadata={"rows": [], "config": {"rows": []}})
    @example(columns=leading_none_table(1), metadata={})
    @example(columns=leading_none_table(2), metadata={})
    @example(columns=leading_none_table(_ROW_BLOCK), metadata={"config": {"trunc": 3}})
    @example(columns=leading_none_table(_ROW_BLOCK + 1), metadata={"config": {"trunc": 3}})
    def test_typed_columns_match_the_per_cell_oracle(self, columns, metadata):
        schema = [f"c{j}" for j in range(len(columns))]
        for out_format in ("json", "csv"):
            if out_format == "csv":  # CSV cells are written unquoted
                columns = [[c.replace(",", "") if type(c) is str else c for c in column]
                           for column in columns]
            rows = list(zip(*columns))
            path = f"t.{out_format}"
            table = Table("t", **dict(zip(schema, columns)))
            emit_table(table, out_format=out_format, path=path, metadata=metadata)
            assert read(path) == reference_bytes(rows, schema, out_format, metadata)

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_leading_none_float_column_takes_the_template(self, out_format, monkeypatch):
        calls = []
        cell_text = _RENDER[out_format][0]
        monkeypatch.setitem(cell_text, float, lambda v: calls.append(v) or repr(v))
        table = Table("t", x=[None, *(i / 3 for i in range(1, 10))], n=list(range(10)))
        emit_table(table, out_format=out_format, path=f"t.{out_format}", metadata={})
        assert calls == []

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_all_none_column_takes_the_template(self, out_format, monkeypatch):
        calls = []
        cell_text = _RENDER[out_format][0]
        none_text = cell_text[type(None)]
        monkeypatch.setitem(cell_text, type(None), lambda v: calls.append(v) or none_text(v))
        rows = [(None, i) for i in range(10)]
        emit_table(table_of(rows, ["x", "n"]), out_format=out_format,
                   path=f"t.{out_format}", metadata={})
        assert calls == [None]  # row 0 only
        assert read(f"t.{out_format}") == reference_bytes(rows, ["x", "n"], out_format, {})

    @pytest.mark.parametrize("out_format, column, cell, error", [
        ("csv", 0, 10 ** sys.get_int_max_str_digits(), "integer string conversion"),
        ("json", 0, 10 ** sys.get_int_max_str_digits(), "integer string conversion"),
        ("csv", 2, "\ud800", "surrogates not allowed"),
    ], ids=["long-int-csv", "long-int-json", "surrogate-csv"])
    def test_cell_failing_in_the_last_block_leaves_no_file(self, out_format, column, cell, error):
        """These cells pass the type check and fail only when their block
        is rendered or encoded, after earlier blocks were written."""
        rows = [[i, i / 3, "x"] for i in range(_ROW_BLOCK + 1)]
        rows[-1][column] = cell
        with pytest.raises(ValueError, match=error):
            emit_table(table_of(rows, ["n", "x", "tag"]), out_format=out_format,
                       path=f"t.{out_format}", metadata={})
        assert os.listdir() == []

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("cell", [np.int64(3), np.float64(0.5)], ids=["int64", "float64"])
    @pytest.mark.parametrize("row", [0, 1])
    def test_numpy_scalar_cell_rejected(self, cell, out_format, row):
        table = Table("t", n=[1, 2], x=[0.5, 0.5])
        table.columns["x"][row] = cell
        with pytest.raises(TypeError, match=f"column 'x' holds a cell of type {type(cell).__name__};"):
            emit_table(table, out_format=out_format, path=f"t.{out_format}", metadata={})
        assert os.listdir() == []

    def test_type_error_names_the_first_bad_column_in_table_order(self):
        # row by row, x's row-0 cell would be the first bad one
        table = Table("t", n=[1, 2, np.int64(3)], x=[np.float64(0.5), 1.0, 2.0])
        with pytest.raises(TypeError, match="column 'n' holds a cell of type int64;"):
            emit_table(table, out_format="csv", path="t.csv", metadata={})
        assert os.listdir() == []

    def test_csv_rendering(self, tmp_path):
        table = Table("t", n=[1, 2], a=[0.5, -1.0], b=[None, 3.0], ok=[True, False], tag=["x", "y"])
        paths = emit_table(table, out_format="csv", path="t.csv", metadata={"config": {}})
        assert paths == ["t.csv", "t.csv.meta.json"]
        text = read("t.csv").decode()
        assert text == "n,a,b,ok,tag\n1,0.5,,true,x\n2,-1,3,false,y\n"

    def test_csv_seventeen_digit_floats(self):
        emit_table(Table("t", v=[math.pi]), out_format="csv", path="pi.csv", metadata={})
        assert read("pi.csv").decode() == "v\n3.1415926535897931\n"

    def test_empty_rows_header_only(self):
        emit_table(Table("t", a=[], b=[]), out_format="csv", path="e.csv", metadata={})
        assert read("e.csv").decode() == "a,b\n"

    def test_single_row_two_lines(self):
        emit_table(Table("t", a=[1], b=[2]), out_format="csv", path="s.csv", metadata={})
        assert len(read("s.csv").decode().splitlines()) == 2

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_one_row_table_renders_as_rows(self, out_format):
        cells = {"samples": 50, "tag": "1;2", "p": 0.25, "ok": True, "gap": None, "x": -1.5}
        emit_table(_row("decode", **cells), out_format=out_format, path=f"d.{out_format}",
                   metadata={"k": 1})
        assert read(f"d.{out_format}") == reference_bytes(
            [list(cells.values())], list(cells), out_format, {"k": 1})

    def test_json_structure(self):
        table = Table("t", n=[1], x=[None], ok=[True])
        emit_table(table, out_format="json", path="t.json", metadata={"k": 1})
        payload = json.loads(read("t.json"))
        assert set(payload) == {"metadata", "schema", "rows"}
        assert payload["schema"] == ["n", "x", "ok"]
        assert payload["rows"] == [[1, None, True]]
        assert payload["metadata"] == {"k": 1}

    def test_unequal_columns_rejected(self):
        message = "table 'w' has columns of unequal length {'a': 2, 'b': 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Table("w", a=[1, 2], b=[1])

    def test_len_is_the_row_count(self):
        assert len(Table("t", a=[], b=[])) == 0
        assert len(Table("t")) == 0
        assert len(Table("t", a=[1, 2, 3], b=[None] * 3)) == 3

    def test_unknown_format_rejected(self):
        with pytest.raises(UsageError):
            emit_table(Table("t", a=[]), out_format="xml", path="t.xml", metadata={})


class TestRunsAndValues:
    def test_inner_values_match_library(self, capsys):
        assert run("inner", "--trunc", "5") == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["inner_series.csv", "inner_series.csv.meta.json"]
        lines = read("inner_series.csv").decode().splitlines()
        assert lines[0] == "n,a_n,A_n,M_n,main_term"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == format(math.exp(-1.0), ".17g")
        assert first[3] == "" and first[4] == ""  # no mean or asymptotic at n=0
        second = lines[2].split(",")
        assert second[1] == format(-2.0 * math.exp(-1.0), ".17g")
        assert second[3] == format(math.exp(-1.0), ".17g")

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_inner_round_trips_across_blocks(self, out_format):
        trunc = 20000
        assert run("inner", "--trunc", str(trunc), "--out", out_format) == 0
        if out_format == "csv":
            with open("inner_series.csv", newline="", encoding="utf-8") as fh:
                rows = [[float(x) if x else None for x in row] for row in list(csv.reader(fh))[1:]]
        else:
            rows = json.loads(read("inner_series.json"))["rows"]
        series = singular_inner_coeffs(1.0, trunc)
        profile = cesaro_profile(series)
        n, a_n, A_n, M_n, _ = zip(*rows)
        assert list(n) == list(range(trunc + 1))
        assert list(a_n) == series.coeffs.tolist()
        assert list(A_n) == profile.partial_sums.tolist()
        assert list(M_n) == [None, *profile.cesaro_means.tolist()]

    def test_gap_uses_certified_window_norm(self):
        assert run("gap", "--trunc", "50", "--horizons", "5", "--c", "0") == 0
        row = read("gap_gap.csv").decode().splitlines()[1].split(",")
        assert row[2] == "5"  # sum_norm_sq == n for a certified inner series
        assert row[4] == "1"  # gap at c=0

    def test_cesaro_zero_order_header_only(self):
        assert run("cesaro", "--trunc", "0") == 0
        assert read("cesaro_cesaro.csv").decode() == "n,partial_sum,cesaro_mean\n"

    def test_prop6_row_matches_report(self):
        assert run("prop6", "--n-range", "2..4", "--k-max", "12") == 0
        lines = read("prop6_bounds.csv").decode().splitlines()
        rep = dyadic_midpoint_report(2, 12)
        row = lines[1].split(",")
        assert row[0] == "2"
        assert row[1] == format(rep.r, ".17g")
        assert row[6] == format(rep.product, ".17g")
        assert row[9:15] == ["true"] * 6

    def test_prop2_summary_matches_library(self):
        from mgapprox import ExactModel

        assert run("prop2", "--depth", "2", "--out", "json") == 0
        payload = json.loads(read("prop2_summary.json"))
        row = payload["rows"][0]
        assert row[0] == 2
        assert row[1] == hannan_sum(ExactModel.build(2))
        assert row[5] is False and row[6] is True  # remote past is 2 e_0
        assert row[7] == 16 and row[8] is True

    def test_prop3_tables(self, capsys):
        assert run("prop3", "--K", "2", "--samples", "50") == 0
        paths = capsys.readouterr().out.splitlines()
        assert paths == [
            "prop3_params.csv", "prop3_params.csv.meta.json",
            "prop3_norms.csv", "prop3_norms.csv.meta.json",
            "prop3_decode.csv", "prop3_decode.csv.meta.json",
        ]
        decode = read("prop3_decode.csv").decode().splitlines()[1].split(",")
        assert decode[0] == "50" and decode[1] == "50" and decode[2] == "0"
        norms = read("prop3_norms.csv").decode().splitlines()
        # horizons default: decades merged with the synthesized phi values
        meta = json.loads(read("prop3_norms.csv.meta.json"))
        assert meta["config"]["horizons"] == sorted(
            set(10**j for j in range(7)) | {13, 14}
        )
        assert len(norms) == 1 + len(meta["config"]["horizons"])

    def test_prop3_power_rule(self):
        assert run("prop3", "--K", "2", "--samples", "20", "--b-rule", "power:0.25") == 0
        meta = json.loads(read("prop3_params.csv.meta.json"))
        assert meta["config"]["b_rule"] == "power:0.25"


# Every table each command writes, in order, with its header.
TABLE_HEADERS = {
    "inner": {"series": "n,a_n,A_n,M_n,main_term"},
    "cesaro": {"cesaro": "n,partial_sum,cesaro_mean"},
    "gap": {"gap": "n,c,sum_norm_sq,cross,gap_sq,c_star,min_gap_sq"},
    "prop6": {"bounds": "level,r,p1,p2,p3,p4,product,c_bound,value_at_zero,"
                        "p1_ok,p2_ok,p3_ok,p4_ok,product_ok,zero_ok"},
    "prop3": {
        "params": "level,p,rho,phi,log_q,log_r,log_s,b_at_phi",
        "norms": "n,is_synth_horizon,lagged_sq,natural_sq,n_floor_sq,"
                 "lagged_le_one,natural_ge_floor",
        "decode": "samples,recovered,failures,boundary_hits,suppressed_levels,"
                  "nonzero_draws,miss_probability,seed",
    },
    "prop2": {
        "md_norms": "k,norm",
        "summary": "depth,hannan_sum,hannan_analytic,hannan_abs_err,remote_norm,"
                   "matches_e0,matches_two_e0,decode_patterns,decode_ok",
    },
}


class TestTableHeaders:
    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ("inner", "--trunc", "3"),
        ("cesaro", "--trunc", "3"),
        ("gap", "--trunc", "20", "--horizons", "1,5"),
        ("prop6", "--n-range", "2..3", "--k-max", "6"),
        ("prop3", "--K", "2", "--samples", "20"),
        ("prop2", "--depth", "1"),
    ], ids=lambda argv: argv[0])
    def test_every_table_header(self, argv, out_format, capsys):
        assert run(*argv, "--out", out_format) == 0
        tables = TABLE_HEADERS[argv[0]]
        paths = [f"{argv[0]}_{name}.{out_format}" for name in tables]
        sidecars = [".meta.json"] if out_format == "csv" else []
        written = capsys.readouterr().out.split()
        assert written == [path + end for path in paths for end in ["", *sidecars]]
        for path, header in zip(paths, tables.values()):
            if out_format == "csv":
                assert read(path).decode().split("\n", 1)[0] == header
            else:
                assert json.loads(read(path))["schema"] == header.split(",")


class TestDeterminism:
    def test_csv_reruns_byte_identical(self):
        assert run("inner", "--trunc", "40", "--out-path", "one") == 0
        first = (read("one_series.csv"), read("one_series.csv.meta.json"))
        assert run("inner", "--trunc", "40", "--out-path", "one") == 0
        assert (read("one_series.csv"), read("one_series.csv.meta.json")) == first

    def test_json_reruns_byte_identical(self):
        args = ("prop3", "--K", "2", "--samples", "30", "--seed", "9",
                "--out", "json")
        assert run(*args) == 0
        first = read("prop3_decode.json")
        assert run(*args) == 0
        assert read("prop3_decode.json") == first

    def test_metadata_carries_no_timing(self):
        assert run("inner", "--trunc", "3") == 0
        meta = json.loads(read("inner_series.csv.meta.json"))
        assert set(meta) == {"config", "versions"}
        text = json.dumps(meta)
        assert "time" not in text and "wall" not in text


class TestConfigResolution:
    def test_file_supplies_defaults(self, tmp_path):
        (tmp_path / "run.cfg").write_text("trunc = 7\n# comment\nout = csv\n")
        assert run("inner", "--config", "run.cfg") == 0
        meta = json.loads(read("inner_series.csv.meta.json"))
        assert meta["config"]["trunc"] == 7

    def test_flags_beat_file(self, tmp_path):
        (tmp_path / "run.cfg").write_text("trunc=7\n")
        assert run("inner", "--config", "run.cfg", "--trunc", "3") == 0
        meta = json.loads(read("inner_series.csv.meta.json"))
        assert meta["config"]["trunc"] == 3

    def test_dashed_keys_accepted(self, tmp_path):
        (tmp_path / "run.cfg").write_text("out-path=alt\ntrunc=2\n")
        assert run("inner", "--config", "run.cfg") == 0
        assert os.path.exists("alt_series.csv")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("bogus=1\n")
        assert run("inner", "--config", "run.cfg") == 2
        assert "bogus" in capsys.readouterr().err

    def test_config_cannot_nest(self, tmp_path):
        (tmp_path / "run.cfg").write_text("config=other.cfg\n")
        assert run("inner", "--config", "run.cfg") == 2

    def test_missing_file_reported(self):
        assert run("inner", "--config", "absent.cfg") == 2

    def test_malformed_line_reported(self, tmp_path):
        (tmp_path / "run.cfg").write_text("just a line\n")
        assert run("inner", "--config", "run.cfg") == 2

    def test_out_dir_env_prefixes_relative_stems(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "routed"))
        assert run("inner", "--trunc", "2") == 0
        assert os.path.exists(tmp_path / "routed" / "inner_series.csv")

    def test_absolute_stem_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "routed"))
        stem = str(tmp_path / "direct")
        assert run("inner", "--trunc", "2", "--out-path", stem) == 0
        assert os.path.exists(str(tmp_path / "direct_series.csv"))


class TestExitStatus:
    def test_unknown_flag(self, capsys):
        assert run("inner", "--badflag", "1") == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run("nonsense") == 2
        capsys.readouterr()

    def test_bad_value(self, capsys):
        assert run("prop2", "--depth", "99") == 2
        assert "depth" in capsys.readouterr().err

    def test_bad_span(self, capsys):
        assert run("prop6", "--n-range", "9..3") == 2
        capsys.readouterr()

    def test_bad_list_entry(self, capsys):
        assert run("gap", "--horizons", "0") == 2
        capsys.readouterr()

    def test_bad_format(self, capsys):
        assert run("inner", "--out", "xml") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("gap", "--c", "nan", "--trunc", "10"),
        ("gap", "--c=-inf", "--trunc", "10"),
        ("inner", "--a", "inf"),
        ("inner", "--a", "nan"),
        ("gap", "--kind", "blaschke", "--rule", "power", "--alpha", "nan"),
        ("gap", "--kind", "blaschke", "--rule", "power", "--alpha=-inf"),
    ])
    def test_non_finite_float_flag(self, argv, capsys):
        assert run(*argv) == 2
        assert "must be finite" in capsys.readouterr().err
        assert os.listdir() == []

    def test_non_finite_float_from_config_file(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("a = nan\n")
        assert run("inner", "--config", "run.cfg") == 2
        assert "must be finite" in capsys.readouterr().err

    def test_search_cap_below_first_horizon(self, capsys):
        assert run("prop3", "--K", "2", "--search-cap", "0") == 1
        assert "search cap" in capsys.readouterr().err

    def test_horizon_past_int64_writes_nothing(self, capsys):
        # level 87 needs a horizon of about 1.0e19; it used to end in an
        # OverflowError from the int64 ladder
        assert run("prop3", "--K", "90", "--search-cap", str(10**20)) == 1
        err = capsys.readouterr().err
        assert "ValueError: level 87 needs the horizon" in err and "2**63 - 1" in err
        assert os.listdir() == []

    def test_search_cap_past_int64_with_fitting_horizons(self, capsys):
        assert run("prop3", "--K", "60", "--search-cap", str(10**30), "--samples", "100") == 0
        capsys.readouterr()

    def test_invariant_violation_status(self, monkeypatch, capsys):
        def boom(level, k_max):
            raise InvariantViolation("forced for the status check")

        monkeypatch.setattr("mgapprox.cli.dyadic_midpoint_report", boom)
        assert run("prop6") == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_unexpected_error_status(self, monkeypatch, capsys):
        def boom(level, k_max):
            raise RuntimeError("forced for the status check")

        monkeypatch.setattr("mgapprox.cli.dyadic_midpoint_report", boom)
        assert run("prop6") == 1
        assert "RuntimeError" in capsys.readouterr().err

    def test_gap_overflow_writes_nothing(self, capsys):
        assert run("gap", "--trunc", "10", "--horizons", "5", "--c", "1e308") == 1
        assert "gap_sq is not finite for c=1e+308 at n=5" in capsys.readouterr().err
        assert os.listdir() == []

    @pytest.mark.parametrize("argv, first", [
        (("inner", "--kind", "blaschke", "--factors", "54"), 54),
        (("gap", "--kind", "blaschke", "--rule", "power", "--alpha", "10",
          "--factors", "43"), 43),
        (("prop6", "--k-max", "54"), 54),
        (("inner", "--kind", "blaschke", "--factors", "1000000000"), 54),
    ], ids=["inner-dyadic", "gap-power", "prop6", "inner-dyadic-1e9"])
    def test_zero_rounding_to_one_names_the_count(self, argv, first, capsys):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"k={first} rounds to 1.0" in err and f"at most {first - 1} zeros" in err
        assert os.listdir() == []

    def test_failed_command_writes_no_table(self, monkeypatch, capsys):
        def boom(params, samples, seed=0):
            raise InvariantViolation("forced after the params and norms tables")

        monkeypatch.setattr("mgapprox.cli.simulate_and_decode", boom)
        assert run("prop3", "--K", "2") == 3
        assert "invariant violation" in capsys.readouterr().err
        assert os.listdir() == []

    def test_prop3_checks_the_centers_once(self, monkeypatch, capsys):
        # the codec's center build is the only interval check prop3 runs
        def overlap(params, level, dps):
            raise InvariantViolation(f"intervals overlap at level {level}")

        calls = []
        monkeypatch.setattr("mgapprox.layered_process._level_centers", overlap)
        monkeypatch.setattr("mgapprox.cli.decoding_table", lambda *a: calls.append(a))
        assert run("prop3", "--K", "4") == 3
        assert "intervals overlap at level 1" in capsys.readouterr().err
        assert os.listdir() == []
        assert calls == []

    def test_rule_zero_count_ceiling(self, capsys):
        # every zero of power(0.01) stays below 1, so only the ceiling stops it
        argv = ("inner", "--kind", "blaschke", "--rule", "power", "--alpha", "0.01",
                "--factors", "1000000000")
        assert run(*argv) == 1
        assert "at most 1000000 are supported" in capsys.readouterr().err
        assert os.listdir() == []

    def test_blaschke_work_ceiling(self, capsys):
        # 10^6 zeros at order 1000 is 10^12 multiply-adds: refused before any product
        argv = ("inner", "--kind", "blaschke", "--rule", "power", "--alpha", "0.01",
                "--factors", "1000000")
        assert run(*argv) == 1
        assert "1000000 factors at order 1000" in capsys.readouterr().err
        assert os.listdir() == []

    @pytest.mark.parametrize("command", ["inner", "cesaro", "gap"])
    def test_singular_order_ceiling(self, command, capsys):
        # order 10^9 asked for 7.45 GiB and a 10^9-step loop
        assert run(command, "--trunc", "10000001") == 1
        assert "truncation order 10000001 exceeds 1e+07" in capsys.readouterr().err
        assert os.listdir() == []

    def test_singular_a_range(self, capsys):
        # exp(-746) is 0: the old recurrence wrote all-zero coefficients
        assert run("gap", "--a", "746") == 1
        assert "exceeds 700.0" in capsys.readouterr().err
        assert os.listdir() == []

    def test_wall_time_on_stderr_only(self, capsys):
        assert run("inner", "--trunc", "2") == 0
        captured = capsys.readouterr()
        assert "# wall_time_s=" in captured.err
        assert "wall_time" not in captured.out


def without_wall_time(err: str) -> str:
    return "".join(line for line in err.splitlines(True) if not line.startswith("# wall_time_s="))


def expected(case: dict) -> tuple:
    return case["status"], case["stdout"], case["stderr"]


class TestCliSurface:
    """Help text, usage errors and flag resolution, byte for byte as
    cli_surface.json recorded them when the parser still added every
    subcommand's options; the parser now adds only the named command's."""

    CASES = json.loads((Path(__file__).with_name("cli_surface.json")).read_text("utf-8"))

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width

    @pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]) or "no-args")
    def test_surface_unchanged(self, case, capsys):
        Path("cfg.txt").write_text("trunc = 50\ndepth = 3\n", encoding="utf-8")
        status = main(case["argv"])
        out, err = capsys.readouterr()
        assert (status, out, without_wall_time(err)) == expected(case)

    def test_abbreviated_flag_resolves(self):
        assert main(["gap", "--fac", "9", "--trunc", "50"]) == 0
        assert json.loads(read("gap_gap.csv.meta.json"))["config"]["factors"] == 9

    @pytest.mark.parametrize("argv", [["gap", "-h"], ["gap", "--bogus", "1"]])
    def test_argv_defaults_to_the_process_arguments(self, argv):
        case = next(case for case in self.CASES if case["argv"] == argv)
        proc = subprocess.run(
            [sys.executable, "-m", "mgapprox.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80"),
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, without_wall_time(proc.stderr)) == expected(case)


def test_traced_run_counts_rows(tmp_path):
    """perfbench/tracer.py patches names on mgapprox.cli,
    mgapprox.exact_model and mgapprox.layered_process; a traced run must
    still write its tables and count its rows, atoms and calls."""
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{OUT_DIR_ENV: str(out)})
    cases = [
        (("inner", "--trunc", "3"), 4, "inner_series.csv", {}, {}),
        (("inner", "--trunc", "3", "--out", "json"), 4, "inner_series.json", {}, {}),
        # one norms pass (6 conditional expectations) and the remote
        # projection (1), over the 256 atoms of depth 2
        (("prop2", "--depth", "2"), 6, "prop2_summary.csv",
         {"exact_model.conditional_expectation.atoms": 7 * 256},
         {"exact_model.martingale_difference_norms": 1}),
        # the draws come in one array pass, so no per-sample substream span
        # opens (0 calls); the 50 samples hold the four level-1 patterns,
        # each encoded and decoded once
        (("prop3", "--K", "4", "--samples", "50"), 4 + 11 + 1, "prop3_decode.csv", {},
         {"rng.substream": 0, "layered_process.LayerCodec.init": 1,
          "layered_process.encode": 4, "layered_process.decode": 4}),
    ]
    for argv, rows, table, counts, calls in cases:
        spans = tmp_path / f"{table}_spans.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(spans.read_text())
        assert f"cli.emit_table.{table.rsplit('.', 1)[1]}" in summary["spans"]
        assert summary["counts"]["cli.rows"] == rows
        written = proc.stdout.split()
        assert summary["counts"]["cli.out_bytes"] == sum(map(os.path.getsize, written))
        assert counts.items() <= summary["counts"].items()
        assert {name: summary["spans"].get(name, [0])[0] for name in calls} == calls
        assert (out / table).exists()


def test_cli_import_leaves_mpmath_out():
    """mpmath is a test oracle only; the package must not import it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mgapprox.cli; print('mpmath' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
