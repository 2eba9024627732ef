"""CLI adapter: resolution order, deterministic files, exit statuses.

The library modules never import the CLI; this is the only test file that
does, which keeps the adapter thin by construction.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgapprox import InvariantViolation, dyadic_midpoint_report, hannan_sum
from mgapprox.cli import OUT_DIR_ENV, UsageError, emit_table, main

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
        emit_table(rows, schema, out_format, path, metadata)
        assert read(path) == reference_bytes(rows, schema, out_format, metadata)

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("cell", [np.int64(3), np.float64(0.5)], ids=["int64", "float64"])
    def test_numpy_scalar_cell_rejected(self, cell, out_format):
        rows = [[1, 0.5], [2, cell]]
        with pytest.raises(TypeError, match=f"column 'x' holds a cell of type {type(cell).__name__};"):
            emit_table(rows, ["n", "x"], out_format, f"t.{out_format}", {})
        assert os.listdir() == []

    def test_csv_rendering(self, tmp_path):
        rows = [[1, 0.5, None, True, "x"], [2, -1.0, 3.0, False, "y"]]
        paths = emit_table(
            rows, ["n", "a", "b", "ok", "tag"], "csv", "t.csv", {"config": {}}
        )
        assert paths == ["t.csv", "t.csv.meta.json"]
        text = read("t.csv").decode()
        assert text == "n,a,b,ok,tag\n1,0.5,,true,x\n2,-1,3,false,y\n"

    def test_csv_seventeen_digit_floats(self):
        emit_table([[math.pi]], ["v"], "csv", "pi.csv", {})
        assert read("pi.csv").decode() == "v\n3.1415926535897931\n"

    def test_empty_rows_header_only(self):
        emit_table([], ["a", "b"], "csv", "e.csv", {})
        assert read("e.csv").decode() == "a,b\n"

    def test_single_row_two_lines(self):
        emit_table([[1, 2]], ["a", "b"], "csv", "s.csv", {})
        assert len(read("s.csv").decode().splitlines()) == 2

    def test_json_structure(self):
        emit_table([[1, None, True]], ["n", "x", "ok"], "json", "t.json", {"k": 1})
        payload = json.loads(read("t.json"))
        assert set(payload) == {"metadata", "schema", "rows"}
        assert payload["schema"] == ["n", "x", "ok"]
        assert payload["rows"] == [[1, None, True]]
        assert payload["metadata"] == {"k": 1}

    def test_schema_width_enforced(self):
        with pytest.raises(ValueError):
            emit_table([[1, 2]], ["a"], "csv", "w.csv", {})

    def test_unknown_format_rejected(self):
        with pytest.raises(UsageError):
            emit_table([], ["a"], "xml", "t.xml", {})


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

    def test_wall_time_on_stderr_only(self, capsys):
        assert run("inner", "--trunc", "2") == 0
        captured = capsys.readouterr()
        assert "# wall_time_s=" in captured.err
        assert "wall_time" not in captured.out


def test_traced_run_counts_rows(tmp_path):
    """perfbench/tracer.py patches names on mgapprox.cli; a traced run must
    still write its table and count its rows."""
    spans = tmp_path / "spans.json"
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{OUT_DIR_ENV: str(out)})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
         "inner", "--trunc", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(spans.read_text())
    assert "cli.emit_table.csv" in summary["spans"]
    assert summary["counts"]["cli.rows"] == 4
    assert (out / "inner_series.csv").exists()


def test_cli_import_leaves_mpmath_out():
    """mpmath is a test oracle only; the package must not import it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mgapprox.cli; print('mpmath' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
