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
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgapprox import (
    BlaschkeSpec,
    InvariantViolation,
    blaschke_product_coeffs,
    cesaro_profile,
    dyadic_midpoint_report,
    hannan_sum,
    newman_shapiro_main_term,
    singular_inner_coeffs,
)
from mgapprox import _text
from mgapprox.cli import (
    _RENDER,
    _ROW_BLOCK,
    OUT_DIR_ENV,
    LeadingNone,
    Table,
    UsageError,
    _row,
    emit_table,
    main,
)

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
    """Columns that are None in row 0 (an all-None one too), n rows, as
    lists: a list that is None in row 0 only holds two kinds and renders
    cell by cell, so these check those bytes against the oracle."""
    return [
        [None, *(i / 7 for i in range(1, n))],
        [None, *([math.nan, 0.5, math.inf, -math.inf] * n)[:n - 1]],
        [None] * n,
        [None, *range(1, n)],
        list(range(n)),
    ]


INT64 = np.iinfo(np.int64)
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]


@st.composite
def array_columns(draw, n):
    """One to four array columns of n rows, of bool, integer or float64 dtype
    or LeadingNone (None, then float64), with special values at drawn rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = st.integers(0, max(n - 1, 0))
    kinds = st.sampled_from(["bool", "int64", "uint8", "float64", "leading-none"])
    columns = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind == "bool":
            column = rng.random(n) < 0.5
        elif kind in ("int64", "uint8"):
            info = np.iinfo(kind)
            column = rng.integers(info.min, info.max, n, dtype=kind, endpoint=True)
            for row in draw(st.lists(rows, max_size=3)) if n else []:
                column[row] = draw(st.sampled_from([info.min, info.max, 0, -1 if info.min else 1]))
        else:
            column = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            for row in draw(st.lists(rows, max_size=4)) if n else []:
                column[row] = draw(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()))
            if kind == "leading-none" and n:
                column = LeadingNone(column[1:])
        columns.append(column)
    return columns


def listed(column) -> list:
    """The list-of-cells form of an array or LeadingNone column."""
    if isinstance(column, LeadingNone):
        return [None, *column.rest.tolist()]
    return column.tolist()


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

    @settings(deadline=None, max_examples=50)
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

    @pytest.mark.parametrize("n", [0, 1, 2, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
    @settings(deadline=None, max_examples=8)
    @given(data=st.data())
    def test_array_columns_match_their_lists_and_the_oracle(self, n, data):
        columns = data.draw(array_columns(n))
        schema = [f"c{j}" for j in range(len(columns))]
        lists = [listed(column) for column in columns]
        rows = list(zip(*lists))
        for out_format in ("csv", "json"):
            emit_table(Table("t", **dict(zip(schema, columns))), out_format=out_format,
                       path=f"a.{out_format}", metadata={})
            emit_table(Table("t", **dict(zip(schema, lists))), out_format=out_format,
                       path=f"l.{out_format}", metadata={})
            assert read(f"a.{out_format}") == read(f"l.{out_format}")
            assert read(f"a.{out_format}") == reference_bytes(rows, schema, out_format, {})

    @pytest.mark.parametrize("n", [1, 2, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
    @pytest.mark.parametrize("bools", [True, False], ids=["bools", "no-bools"])
    def test_special_array_cells_match_the_oracle(self, n, bools, monkeypatch):
        """Every special value in every block, not left to the draw.  Without
        the bool column, a table of at least _ROW_BLOCK rows renders as text
        blocks, in JSON once its floats are finite."""
        blocks = []
        cells = _text.cells
        monkeypatch.setattr(_text, "cells", lambda *a: blocks.append(a) or cells(*a))
        floats = np.resize(np.array(SPECIAL_FLOATS + [-1.5, 2.0**-25]), n)
        ints = np.resize(np.array([INT64.min, INT64.max, 0, -1, 10**12, 10**12 - 1]), n)
        for out_format in ("csv", "json"):
            if out_format == "json" and not bools:
                floats = np.where(np.isfinite(floats), floats, 0.1)
            columns = [floats, ints, *[np.resize([True, False], n)] * bools,
                       np.resize([-0.0, 0.25], n), LeadingNone(floats[::-1][1:])]
            schema = [f"c{j}" for j in range(len(columns))]
            rows = list(zip(*map(listed, columns)))
            blocks.clear()
            emit_table(Table("t", **dict(zip(schema, columns))), out_format=out_format,
                       path=f"a.{out_format}", metadata={})
            assert read(f"a.{out_format}") == reference_bytes(rows, schema, out_format, {})
            assert bool(blocks) == (not bools and n >= _ROW_BLOCK)

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_array_blocks_reach_the_text_renderer_one_block_at_a_time(
            self, out_format, monkeypatch):
        """Each array slice handed to _text.cells spans at most one block,
        and every row but row 0, which takes the template, is rendered once.
        The cells of each call go to a file opened for appending, one line
        per call, so the forked child that renders the later half records
        its calls too; the process is told it has 2 CPUs, so it forks."""
        log = os.open("cells.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        cells = _text.cells

        def spy(values, spec):
            os.write(log, f"{spec} {' '.join(map(repr, values.tolist()))}\n".encode())
            return cells(values, spec)

        monkeypatch.setattr(_text, "cells", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        n = 2 * _ROW_BLOCK + 3
        table = Table("t", n=np.arange(n), x=LeadingNone(np.arange(1.0, n)))
        try:
            emit_table(table, out_format=out_format, path=f"t.{out_format}", metadata={})
        finally:
            os.close(log)
        calls = [line.split() for line in read("cells.log").decode().splitlines()]
        assert max(len(call) - 1 for call in calls) <= _ROW_BLOCK
        rendered = {spec: sorted(float(cell) for s, *cells in calls if s == spec for cell in cells)
                    for spec in {call[0] for call in calls}}
        assert rendered == {"%d": list(range(1, n)),
                            {"csv": "%.17g", "json": "%r"}[out_format]: list(range(1, n))}
        rows = list(zip(range(n), [None, *range(1, n)]))
        assert read(f"t.{out_format}") == reference_bytes(
            [(i, None if x is None else float(x)) for i, x in rows], ["n", "x"], out_format, {})

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_row_zero_takes_the_template(self, out_format, monkeypatch):
        calls = []
        cell_text = _RENDER[out_format][0]
        for kind in (int, float):
            monkeypatch.setitem(cell_text, kind, lambda v: calls.append(v) or repr(v))
        table = Table("t", n=list(range(3)), x=[i / 3 for i in range(3)],
                      m=np.arange(3), y=np.arange(3) / 7)
        emit_table(table, out_format=out_format, path=f"t.{out_format}", metadata={})
        assert calls == []

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_leading_none_float_column_takes_the_template(self, out_format, monkeypatch):
        calls = []
        cell_text = _RENDER[out_format][0]
        monkeypatch.setitem(cell_text, float, lambda v: calls.append(v) or repr(v))
        table = Table("t", x=LeadingNone([i / 3 for i in range(1, 10)]),
                      y=LeadingNone(np.arange(1, 10) / 3), n=list(range(10)))
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
        assert calls == []
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

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("dtype", [object, np.complex128, np.float32, "datetime64[s]", "U3"])
    def test_array_of_another_dtype_rejected(self, dtype, out_format):
        table = Table("t", n=np.arange(3), x=np.zeros(3, dtype=dtype))
        message = f"column 'x' is an array of dtype {np.dtype(dtype)};"
        with pytest.raises(TypeError, match=re.escape(message)):
            emit_table(table, out_format=out_format, path=f"t.{out_format}", metadata={})
        assert os.listdir() == []

    @pytest.mark.parametrize("column, ndim", [
        (np.zeros((3, 2)), 2), (np.zeros(()), 0), (np.zeros((3, 1, 1)), 3),
        (LeadingNone(np.zeros((2, 2))), 2),
    ], ids=["2-D", "0-D", "3-D", "leading-none-2-D"])
    def test_table_rejects_an_array_that_is_not_1d(self, column, ndim):
        # a (3, 2) array has len() 3, as the list beside it does
        with pytest.raises(TypeError, match=f"column 'x' of table 't' holds a {ndim}-D array"):
            Table("t", n=[1, 2, 3], x=column)

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
        assert len(Table("t", a=LeadingNone(np.ones(2)), b=np.arange(3))) == 3
        assert len(Table("t", a=LeadingNone(np.ones(0)))) == 1

    def test_unknown_format_rejected(self):
        with pytest.raises(UsageError):
            emit_table(Table("t", a=[]), out_format="xml", path="t.xml", metadata={})


def exact_ties() -> list[float]:
    """Binary fractions m / 2**j whose exact decimal has 18 significant
    digits, the last a 5: each lies exactly halfway between two 17-digit
    roundings.  2**-25 = 2.98023223876953125e-08 is one."""
    import decimal

    ties = []
    for j in range(20, 80):
        for m in range(1, 64, 2):
            digits = decimal.Decimal(m / 2**j).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(m / 2**j)
    return ties


def near_bounds() -> list[float]:
    """Every power of ten the fast path spans and its neighbours, which
    scale to either end of [1e16, 1e17), and the ends of that span."""
    tens = 10.0 ** np.arange(-29, 18)
    ulps = np.arange(-3, 4)[:, None]
    near = [np.nextafter(tens, tens * 2.0 ** np.sign(ulp)) if ulp else tens for ulp in ulps]
    for _ in range(2):  # two more ulps each way
        near += [np.nextafter(near[0], 0.0), np.nextafter(near[-1], np.inf)]
    return np.concatenate(near).tolist() + [1e-28, 1.0000000000000001e-28, 9.999999999999999e-29,
                                            99999999999999984.0, 1e17, 1e16]


# Values the fast path must certify or hand to the per-cell text, each
# with its negation in the tests below.
FIXED_FLOATS = {
    "ties": exact_ties() + [2.0**-25, 3 * 2.0**-40],
    "powers of two": (2.0 ** np.arange(-1074, 1024, 7)).tolist() + [2.0**-25, 2.0**-40],
    "near bounds": near_bounds(),
    "special": [0.0, math.nan, math.inf, 5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.3, 1e-5, 1e-7,
                0.5, 1.5, 123456789012345678.0, 1234567890123456.7, 9007199254740993.0],
    "short decimals": [d / 10.0**p for d in (1, 5, 25, 125, 999, 12345) for p in range(-17, 29)],
}
TEXT_SPECS = ["%.17g", "%r"]


def text_of(block: np.ndarray) -> list[str]:
    """The cell texts of a _text.cells matrix."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in block]


class TestText:
    """_text renders array blocks; its oracle is spec % v, cell by cell."""

    @pytest.mark.parametrize("spec", TEXT_SPECS)
    @pytest.mark.parametrize("kind", sorted(FIXED_FLOATS))
    def test_fixed_floats_match_the_per_cell_text(self, kind, spec):
        values = np.array(FIXED_FLOATS[kind])
        values = np.concatenate([values, -values])
        assert text_of(_text.cells(values, spec)) == [spec % v for v in values.tolist()]

    @settings(deadline=None, max_examples=60)
    @given(cells=st.lists(st.floats(), min_size=1, max_size=64), spec=st.sampled_from(TEXT_SPECS))
    def test_drawn_floats_match_the_per_cell_text(self, cells, spec):
        values = np.array(cells)
        assert text_of(_text.cells(values, spec)) == [spec % v for v in values.tolist()]

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), spec=st.sampled_from(TEXT_SPECS))
    def test_random_bit_patterns_match_the_per_cell_text(self, seed, spec):
        """Every finite double is as likely as any other, and scaled normals
        cover the fast span densely."""
        rng = np.random.default_rng(seed)
        values = np.concatenate([
            rng.integers(0, 2**64, 512, dtype=np.uint64).view(np.float64),
            rng.standard_normal(512) * 10.0 ** rng.integers(-30, 19, 512),
        ])
        assert text_of(_text.cells(values, spec)) == [spec % v for v in values.tolist()]

    @settings(deadline=None, max_examples=60)
    @given(cells=st.lists(st.integers(INT64.min, INT64.max), min_size=1, max_size=64),
           dtype=st.sampled_from(["int64", "uint8", "int32", "uint64"]))
    @example(cells=[0, 1, 9, 10, 10**12 - 1, 10**12, -1, INT64.min, INT64.max], dtype="int64")
    def test_integers_match_the_per_cell_text(self, cells, dtype):
        info = np.iinfo(dtype)
        values = np.array([min(max(cell, info.min), info.max) for cell in cells], dtype=dtype)
        assert text_of(_text.cells(values, "%d")) == ["%d" % v for v in values.tolist()]

    def test_rows_put_the_pieces_around_the_cells(self):
        blocks = [(np.arange(3), "%d"), (np.array([0.5, -1e-7, 2.0]), "%r")]
        text = _text.rows(("[", ", ", "]\n"), blocks)
        assert text == b"[0, 0.5]\n[1, -1e-07]\n[2, 2.0]\n"

    def test_powers_of_ten_are_exact_double_doubles(self):
        for k in range(45):
            assert int(_text._HI[k]) + int(_text._LO[k]) == 10**k

    @pytest.mark.parametrize("spec", TEXT_SPECS)
    def test_every_inner_table_float_takes_the_fast_path(self, spec):
        """inner --kind singular --a 1 --trunc 30000 has exact zeros
        (a_2 = 0, M_2 = 0) and nothing outside the fast span."""
        trunc = 30000
        series = singular_inner_coeffs(1.0, trunc)
        profile = cesaro_profile(series)
        main_term = newman_shapiro_main_term(1.0, np.arange(1, trunc + 1))
        for column in (series.coeffs, profile.partial_sums, profile.cesaro_means, main_term):
            fast = _text._float_texts(column, spec == "%r")[1]
            assert fast.all(), column[~fast][:5]


class TestForkedHalf:
    """Tables of at least two blocks render their later half in a forked
    child.  Each test sets the CPU count it needs, so the forked and the
    serial path both run on any host, and spies on os.fork."""

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        fork = os.fork

        def spy():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", spy)
        return calls

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
        return set_cpus

    @staticmethod
    def special_columns(n):
        """SPECIAL_FLOATS in every block, a LeadingNone, a non-ASCII str
        column and a mixed column rendered cell by cell, n rows."""
        floats = np.resize(np.array(SPECIAL_FLOATS + [-1.5]), n)
        return [np.arange(n), floats, LeadingNone(floats[::-1][1:]),
                ["é€😀"[: i % 4] for i in range(n)], [None, *range(1, n)]]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("n", [2 * _ROW_BLOCK - 1, 2 * _ROW_BLOCK, 2 * _ROW_BLOCK + 1,
                                   3 * _ROW_BLOCK + 7])
    def test_split_matches_the_oracle_and_the_serial_path(self, n, out_format, forks, cpus):
        columns = self.special_columns(n)
        schema = [f"c{j}" for j in range(len(columns))]
        rows = list(zip(*(c if isinstance(c, list) else listed(c) for c in columns)))
        table = Table("t", **dict(zip(schema, columns)))
        cpus(2)
        emit_table(table, out_format=out_format, path=f"p.{out_format}", metadata={"k": 1})
        assert len(forks) == (n >= 2 * _ROW_BLOCK)
        cpus(1)
        emit_table(table, out_format=out_format, path=f"s.{out_format}", metadata={"k": 1})
        assert len(forks) == (n >= 2 * _ROW_BLOCK)
        assert read(f"p.{out_format}") == read(f"s.{out_format}")
        assert read(f"p.{out_format}") == reference_bytes(rows, schema, out_format, {"k": 1})
        assert sorted(os.listdir()) == sorted(
            [f"{side}.{out_format}{suffix}" for side in "ps"
             for suffix in ["", ".meta.json"][: 1 + (out_format == "csv")]])

    def test_a_multithreaded_caller_never_forks(self, forks, cpus):
        n = 2 * _ROW_BLOCK + 1
        rows = [(i, i / 3) for i in range(n)]
        cpus(2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            emit_table(table_of(rows, ["n", "x"]), out_format="csv", path="t.csv", metadata={})
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert forks == []
        assert read("t.csv") == reference_bytes(rows, ["n", "x"], "csv", {})

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("where", ["first", "before-mid", "mid", "last"])
    def test_a_failing_row_leaves_no_file_and_no_child(self, where, out_format, forks, cpus,
                                                       monkeypatch):
        """A row of the parent's half fails while the child runs, which it
        must kill and reap; a row of the child's half fails in the child,
        and the parent renders those rows again and raises the same error."""
        n = 2 * _ROW_BLOCK + 5
        mid = 1 + (n - 1) // 2
        bad = {"first": 1, "before-mid": mid - 1, "mid": mid, "last": n - 1}[where]

        def text(value):
            if value == bad:
                raise ValueError(f"cannot render row {value}")
            return str(value)

        monkeypatch.setitem(_RENDER[out_format][0], int, text)
        table = Table("t", n=np.arange(n), tag=[None, *range(1, n)])
        cpus(2)
        with pytest.raises(ValueError, match=f"cannot render row {bad}$"):
            emit_table(table, out_format=out_format, path=f"t.{out_format}", metadata={})
        assert len(forks) == 1
        assert os.listdir() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states")
    def test_the_child_stops_soon_after_its_caller_is_killed(self, tmp_path):
        """A caller killed outright runs no cleanup; its child notices the
        new parent after its current block.  Each cell here takes 0.1 ms, so
        the child's half takes 30 blocks, over 12 s, but one block 0.4 s."""
        script = """if True:
            import os, time
            from mgapprox import cli
            os.sched_getaffinity = lambda pid: {0, 1}
            fork = os.fork

            def announce():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid

            def slow(value):
                end = time.perf_counter() + 1e-4
                while time.perf_counter() < end:
                    pass
                return str(value)

            os.fork = announce
            cli._RENDER["csv"][0][int] = slow
            n = 60 * cli._ROW_BLOCK
            cli.emit_table(cli.Table("t", tag=[None, *range(1, n)]), out_format="csv",
                           path="t.csv", metadata={})
        """
        proc = subprocess.Popen([sys.executable, "-c", script], cwd=tmp_path, text=True,
                                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                                stdout=subprocess.PIPE)
        try:
            child = int(proc.stdout.readline())
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stdout.close()

        def running():
            try:
                with open(f"/proc/{child}/stat") as fh:
                    return fh.read().rpartition(")")[2].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 5.0
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running()

    def test_a_piped_run_prints_each_path_once(self, tmp_path):
        """The child never flushes the stdio buffers it inherits nor returns
        into main, so a piped, buffered stdout carries each path once."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(ROOT / "src"), **{OUT_DIR_ENV: str(tmp_path)})
        force_two_cpus = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                          "from mgapprox.cli import main; sys.exit(main())")
        proc = subprocess.run(
            [sys.executable, "-c", force_two_cpus, "inner", "--trunc", "9000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        table = str(tmp_path / "inner_series.csv")
        assert proc.stdout.splitlines() == [table, table + ".meta.json"]
        assert proc.stderr.count("# wall_time_s=") == 1


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

    def test_cesaro_holds_its_arrays_and_one_block(self, capsys):
        """No whole column of Python objects: the peak is the arrays of the
        computation plus about one rendered block.  cesaro_profile peaks with
        four float64 arrays of n + 1 cells alive (the coefficients, the
        partial sums, the means and the divisors of the means), 3.2 MB at
        n = 100000; singular_inner_coeffs, which differences in place, peaks
        at two.  emit_table's text blocks of three columns peak at about
        1.2 MB (1.6 MB as JSON).  The bound is those four arrays plus 2 MB;
        the run peaked at 3.9 MB.  Turning a whole column into a list at
        once peaked at 6.7 MB for row 0's cells and at 8.3 MB for the text
        blocks; at n = 50000 the first stayed under the bound.  On a host
        with 2 CPUs a forked child renders the later half of the table, and
        tracemalloc sees only this process's half."""
        trunc = 100_000
        bound = 4 * 8 * (trunc + 1) + 2_000_000
        tracemalloc.start()
        try:
            assert run("cesaro", "--trunc", str(trunc)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"

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

    def test_value_failing_its_converter(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("trunc=abc\n")
        assert run("inner", "--config", "run.cfg") == 2
        assert "usage error: bad value for trunc: 'abc'" in capsys.readouterr().err
        assert os.listdir() == ["run.cfg"]

    def test_config_cannot_nest(self, tmp_path):
        (tmp_path / "run.cfg").write_text("config=other.cfg\n")
        assert run("inner", "--config", "run.cfg") == 2

    def test_missing_file_reported(self):
        assert run("inner", "--config", "absent.cfg") == 2

    def test_undecodable_file_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_bytes(b"trunc = 5\n\xff\n")
        assert run("inner", "--config", "run.cfg") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot read config file 'run.cfg': 'utf-8' codec")
        assert os.listdir() == ["run.cfg"]

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

    @pytest.mark.parametrize("argv, flag", [
        (("inner", "--alpha", "-1"), "alpha"),  # ignored by the singular kind, exit 0 before
        (("inner", "--kind", "blaschke", "--rule", "power", "--alpha", "0"), "alpha"),
        (("inner", "--trunc", "-1"), "trunc"),
        (("inner", "--factors", "0"), "factors"),
        (("inner", "--kind", "blaschke", "--a", "-1"), "a"),
        (("cesaro", "--rule", "triadic"), "rule"),
        (("prop3", "--samples", "0"), "samples"),
        (("prop3", "--b-rule", "power:inf"), "b-rule"),
        (("prop3", "--b-rule", "power:nan"), "b-rule"),
        (("gap", "--horizons", str(10**400)), "horizons"),
        (("prop3", "--horizons", f"1,{10**300 + 1}"), "horizons"),
        (("prop6", "--n-range", "0..5"), "n-range"),
    ])
    def test_value_outside_its_domain(self, argv, flag, capsys):
        assert run(*argv) == 2
        err = without_wall_time(capsys.readouterr().err)
        assert err.startswith(f"usage error: {flag} must be ") and err.count("\n") == 1
        assert os.listdir() == []

    def test_domain_checks_config_file_values(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("samples = 0\n")
        assert run("prop3", "--config", "run.cfg") == 2
        assert "usage error: samples must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("inner", "--kind", "blaschke", "--factors", str(10**400)), "dyadic zero k=54 rounds"),
        (("prop6", "--k-max", str(10**400)), "dyadic zero k=54 rounds"),
        (("inner", "--kind", "blaschke", "--trunc", str(10**400)), "need over 1e+07 steps"),
        (("prop3", "--K", str(10**400)), "levels exceed 100, the most supported"),
    ], ids=["factors", "k-max", "trunc", "K"])
    def test_count_past_the_float_range_meets_its_limit(self, argv, message, capsys):
        # each used to end in a raw OverflowError (int too large to convert to
        # float), or, for K, numpy's "Maximum allowed dimension exceeded"
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "error: ValueError: " in err and message in err
        assert os.listdir() == []

    @pytest.mark.parametrize("argv, message", [
        (("prop6", "--n-range", "52..52", "--k-max", "53"),
         "no double lies strictly between zeros 52 and 53, so level 52 has no midpoint"),
        (("prop3", "--K", "2", "--b-rule", "power:400"),
         "the floor sequence must stay strictly positive; b(13) = 0.0"),
    ], ids=["prop6-midpoint", "prop3-floor-underflow"])
    def test_double_precision_limit_in_the_domain(self, argv, message, capsys):
        # prop6 used to exit 3 on a midpoint rounded onto zero 52, and prop3
        # to name neither the horizon nor the floor that underflowed
        assert run(*argv) == 1
        assert without_wall_time(capsys.readouterr().err) == f"error: ValueError: {message}\n"
        assert os.listdir() == []

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

    def test_search_cap_past_the_float_range_writes_nothing(self, capsys):
        # level 2 needs a horizon of about 1e511; the search used to end in
        # an OverflowError converting a probe past 1.8e308 to a float
        assert run("prop3", "--K", "2", "--b-rule", "power:0.0001",
                   "--search-cap", str(10**600)) == 1
        err = capsys.readouterr().err
        assert "ValueError: level 2 needs the horizon" in err and "2**63 - 1" in err
        assert os.listdir() == []

    def test_search_cap_past_int64_keeps_a_fast_decaying_ladder(self, capsys):
        # power:20 underflows to 0.0 long before 2**63 - 1, so the search
        # must not evaluate the floor there to learn that it can stop
        argv = ["prop3", "--K", "2", "--b-rule", "power:20", "--samples", "100"]
        tables = ["prop3_params.csv", "prop3_norms.csv", "prop3_decode.csv"]
        assert run(*argv, "--search-cap", str(10**20)) == 0
        wide = [read(table) for table in tables]
        assert run(*argv) == 0
        capsys.readouterr()
        assert wide == [read(table) for table in tables]

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

    @pytest.mark.parametrize("argv, blocked", [
        (("inner", "--trunc", "5"), "inner_series.csv.meta.json"),
        (("prop3", "--K", "2", "--samples", "10"), "prop3_decode.csv"),
        (("prop3", "--K", "2", "--samples", "10", "--out", "json"), "prop3_norms.json"),
    ], ids=["sidecar", "third-table", "json-second-table"])
    def test_failed_write_leaves_no_file(self, argv, blocked, capsys):
        # a directory in the way of one file fails its write; the files of
        # the run written before it are removed and no path is printed
        os.mkdir(blocked)
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert "IsADirectoryError" in err
        assert out == ""
        assert os.listdir() == [blocked]

    def test_prop3_checks_the_centers_once(self, monkeypatch, capsys):
        # the codec's center build is the only interval check prop3 runs
        def overlap(params, level):
            raise InvariantViolation(f"intervals overlap at level {level}")

        calls = []
        monkeypatch.setattr("mgapprox.layered_process.decoding_table", overlap)
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

    def test_sample_ceiling(self, capsys):
        # 10^400 samples used to draw until the process was killed
        for samples in (10**7 + 1, 10**400):
            assert run("prop3", "--samples", str(samples)) == 1
            assert f"{samples} samples exceed 1e+07" in capsys.readouterr().err
            assert os.listdir() == []

    def test_level_ceiling(self, capsys):
        # K = 600 spent 118 s in the codec's Decimal exps, and larger K hung
        start = time.monotonic()
        assert run("prop3", "--K", "100000", "--b-rule", "power:10", "--samples", "1") == 1
        assert time.monotonic() - start < 1.0
        assert "100000 levels exceed 100, the most supported" in capsys.readouterr().err
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
    cli_surface.json recorded them; argparse produces all of them, and a
    well-formed argv never reaches it."""

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


# prelude lines for TestEntry: a kernel that raises, a late thread
_RAISING_KERNEL = """if True:
    from mgapprox import cli
    def boom(level, k_max):
        raise {}("forced for the exit check")
    cli.dyadic_midpoint_report = boom
"""
_LATE_THREAD = """if True:
    import threading, time
    from mgapprox import cli
    returned, original = threading.Event(), cli.main
    def late():
        returned.wait()
        time.sleep(0.3)
        print("thread ran")
    def main():
        try:
            return original()
        finally:
            returned.set()
    threading.Thread(target=late).start()
    cli.main = main
"""


class TestEntry:
    """The console script ends in os._exit after the exit handlers and a
    stdio flush.  Each case runs in a subprocess with stdout piped and
    PYTHONUNBUFFERED unset, so only a flush writes stdout; the oracle is the
    same command ended by sys.exit(main()), a normal interpreter exit."""

    ENTRY, ORACLE = "entry()", "sys.exit(main())"

    @staticmethod
    def outcome(out_dir, end, argv, prelude="", stdout=subprocess.PIPE):
        """Status, stdout and stderr without its wall-time line."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(ROOT / "src"), **{OUT_DIR_ENV: str(out_dir)})
        script = f"import sys\n{prelude}\nfrom mgapprox.cli import entry, main\n{end}\n"
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        return proc.returncode, proc.stdout, without_wall_time(proc.stderr)

    @pytest.mark.parametrize("argv, prelude, status", [
        (["inner", "--trunc", "5"], "", 0),
        (["prop6"], _RAISING_KERNEL.format("RuntimeError"), 1),
        (["prop2", "--depth", "9"], "", 2),
        (["prop6"], _RAISING_KERNEL.format("cli.InvariantViolation"), 3),
    ], ids=["ok", "error", "usage", "invariant"])
    def test_each_status_matches_a_normal_exit(self, tmp_path, argv, prelude, status):
        got = self.outcome(tmp_path, self.ENTRY, argv, prelude)
        assert got[0] == status, got[2]
        assert got == self.outcome(tmp_path, self.ORACLE, argv, prelude)

    @pytest.mark.parametrize("prelude, last", [
        ("import atexit; atexit.register(print, 'handler ran')", "handler ran"),
        (_LATE_THREAD, "thread ran"),
    ], ids=["atexit-handler", "live-thread"])
    def test_output_after_main_is_kept_once(self, tmp_path, prelude, last):
        """An exit handler's output, and a thread's that outlives main, come
        once after the printed paths."""
        table = str(tmp_path / "inner_series.csv")
        got = self.outcome(tmp_path, self.ENTRY, ["inner", "--trunc", "5"], prelude)
        assert got[:2] == (0, "\n".join([table, table + ".meta.json", last, ""])), got[2]
        assert got == self.outcome(tmp_path, self.ORACLE, ["inner", "--trunc", "5"], prelude)

    def test_a_closed_pipe_fails_as_a_normal_exit_does(self, tmp_path):
        """The reader is gone before the flush: the flush fails, and the
        normal exit reports the broken pipe and status 120."""
        argv = ["inner", "--trunc", "5"]
        reader, writer = os.pipe()
        os.close(reader)
        try:
            got = self.outcome(tmp_path, self.ENTRY, argv, stdout=writer)
            assert got == self.outcome(tmp_path, self.ORACLE, argv, stdout=writer)
        finally:
            os.close(writer)
        assert got[0] == 120
        assert "BrokenPipeError" in got[2]

    def test_a_library_warning_is_one_line(self, tmp_path):
        """A library warning reaches the console as one line naming its
        category; status, paths and files are a normal exit's."""
        argv = ["inner", "--kind", "blaschke", "--trunc", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blaschke_product_coeffs(BlaschkeSpec.dyadic(12), 5)
        assert [w.category for w in caught] == [RuntimeWarning]
        got = self.outcome(tmp_path, self.ENTRY, argv)
        assert got[2].splitlines() == [f"warning: RuntimeWarning: {caught[0].message}"]
        assert got[:2] == self.outcome(tmp_path, self.ORACLE, argv)[:2]

    @pytest.mark.parametrize("argv, loaded, by_argparse", [
        (["inner", "--trunc", "5"], {"inner", "series"}, False),
        (["inner", "--trunc", str(_ROW_BLOCK)], {"_text", "inner", "series"}, False),
        (["inner", "--kind", "blaschke", "--factors", "3", "--trunc", "5000"],
         {"inner", "series"}, False),
        (["cesaro", "--trunc", "5"], {"inner", "series"}, False),
        (["gap", "--trunc", "50"], {"inner", "linear_process", "series"}, False),
        (["gap", "--fac", "9", "--trunc", "50"],
         {"inner", "linear_process", "series"}, True),
        (["prop6"], {"inner", "series"}, False),
        (["prop3", "--K", "4", "--samples", "20"], {"layered_process", "rng"}, False),
        (["prop2", "--depth", "2"], {"exact_model"}, False),
        (["-h"], set(), True),
    ], ids=["inner", "inner-text-blocks", "inner-blaschke-rows", "cesaro", "gap",
            "gap-abbreviated", "prop6", "prop3", "prop2", "help"])
    def test_each_command_loads_only_its_modules(self, tmp_path, argv, loaded, by_argparse):
        """The library modules in sys.modules when the exit handlers run, and
        argparse with the gettext and locale it loads only for an argv that
        is not well formed.  An abbreviated flag's table is the exact flag's.
        Only a table of at least _ROW_BLOCK rows of array columns loads
        _text, so gap, prop2 and prop3 never do, nor a long blaschke inner
        table, whose main_term column is a list of None."""
        prelude = ("import atexit; atexit.register(lambda: print(sorted(m for m in sys.modules "
                   "if m.startswith('mgapprox.') or m in ('argparse', 'gettext', 'locale'))))")
        status, out, err = self.outcome(tmp_path, self.ENTRY, argv, prelude)
        assert status == 0, err
        parser = {"argparse", "gettext", "locale"} if by_argparse else set()
        last = out.splitlines()[-1]
        assert last == str(sorted({*parser, *(f"mgapprox.{m}" for m in {"cli", *loaded})}))
        if "--fac" in argv:
            exact = ["gap", "--factors", "9", "--trunc", "50"]
            assert self.outcome(tmp_path / "exact", self.ENTRY, exact)[0] == 0
            for name in ("gap_gap.csv", "gap_gap.csv.meta.json"):
                assert read(tmp_path / name) == read(tmp_path / "exact" / name)


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
        # one product of 3 factors, 64 orders short of resolving 7/8, and
        # a gap report per default horizon
        (("gap", "--kind", "blaschke", "--rule", "dyadic", "--factors", "3", "--trunc", "64"),
         5, "gap_gap.csv", {"inner.resolution_warnings": 1},
         {"inner.blaschke_product_coeffs": 1, "linear_process.best_scalar_gap": 5}),
        (("cesaro", "--trunc", "3"), 3, "cesaro_cesaro.csv", {},
         {"inner.singular_inner_coeffs": 1, "series.cesaro_profile": 1}),
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


def test_every_library_name_resolves_on_cli():
    """In a fresh interpreter, each public name of each library module is,
    as an attribute of mgapprox.cli, that module's object: the names the
    tracer wraps are found where it looks for them.  No public name
    collides with a name cli defines, which binding a command's modules
    would leave in place, and a missing name is reported as cli's."""
    script = """if True:
        import importlib, json, mgapprox, mgapprox.cli as cli
        defined = dict(vars(cli))
        modules = {name: importlib.import_module("mgapprox." + name) for name in mgapprox._MODULES}
        public = {(module, name) for module in modules for name in modules[module].__all__}
        try:
            cli.no_such_name
        except AttributeError as exc:
            missing = str(exc)
        print(json.dumps({
            "collisions": sorted(name for module, name in public if name in defined
                                 and defined[name] is not getattr(modules[module], name)),
            "unresolved": sorted(name for module, name in public
                                 if getattr(cli, name) is not getattr(modules[module], name)),
            "missing": missing,
        }))
    """
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "collisions": [], "unresolved": [],
        "missing": "module 'mgapprox.cli' has no attribute 'no_such_name'"}


def test_cli_import_leaves_mpmath_out():
    """mpmath is a test oracle only; the package must not import it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mgapprox.cli; print('mpmath' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
