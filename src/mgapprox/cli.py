"""Command-line driver for every experiment in the package.

Each subcommand is a thin adapter, registered by ``_command`` together with
its help line and options: it calls library functions on the resolved
configuration and returns their results as ``Table``s, named columns of
native Python values; main hands each to ``emit_table`` only once all of
them are computed, so a failed command writes no file.  No numeric logic
lives here.
Configuration comes from flags, then a key=value config file, then
documented defaults; the resolved configuration is echoed into the output
metadata, and rerunning with an identical configuration produces
byte-identical files (wall time is reported on stderr only, never written
into an output).

Output layout: each table goes to {stem}_{table}.{format} where the stem
defaults to the subcommand name inside $MGAPPROX_OUT_DIR (or the working
directory).  CSV files carry a {file}.meta.json sidecar; JSON files embed
the metadata object directly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable

import numpy as np

from . import __version__
from .errors import InvariantViolation
from .exact_model import (
    ExactModel,
    decode_digit_value,  # noqa: F401 - not called here; perfbench/tracer.py wraps this name
    decode_digit_values,
    digit_value,  # noqa: F401 - not called here; perfbench/tracer.py wraps this name
    digit_values,
    hannan_sum,
    martingale_difference_norms,
    remote_past_projection,
)
from .inner import (
    BlaschkeSpec,
    blaschke_eval_radial,
    blaschke_product_coeffs,
    dyadic_midpoint_report,
    newman_shapiro_main_term,
    singular_inner_coeffs,
)
from .layered_process import (
    DEFAULT_SEARCH_CAP,
    decoding_table,  # noqa: F401 - not called here; perfbench/tracer.py wraps this name
    inv_sqrt_log_rule,
    power_rule,
    residual_norm_sq_lagged,
    residual_norm_sq_natural,
    simulate_and_decode,
    synthesize_layer_params,
)
from .linear_process import approximation_gap, best_scalar_gap
from .series import cesaro_profile

__all__ = ["Table", "UsageError", "emit_table", "entry", "main"]

OUT_DIR_ENV = "MGAPPROX_OUT_DIR"


class UsageError(Exception):
    """Bad flag, config key, or value; reported with exit status 2."""


# ---------------------------------------------------------------------------
# configuration

def _parse_int_list(text: str) -> tuple[int, ...]:
    toks = text.replace(",", " ").split()
    if not toks:
        raise UsageError("expected a nonempty integer list")
    try:
        values = tuple(int(tok) for tok in toks)
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc
    if any(v < 1 for v in values):
        raise UsageError("list entries must be >= 1")
    return values


def _parse_span(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"bad range {text!r}, expected LO..HI")
    try:
        bounds = (int(lo), int(hi))
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}") from exc
    if bounds[0] > bounds[1]:
        raise UsageError(f"empty range {text!r}")
    return bounds


@dataclass(frozen=True)
class Opt:
    """One configurable field: flag name, string converter, default."""

    name: str
    conv: Callable[[str], object]
    default: object
    help: str


_COMMON = [
    Opt("seed", int, 0, "base seed for all random streams (default 0)"),
    Opt("out", str, "csv", "output format, csv or json (default csv)"),
    Opt("out-path", str, None, "output stem; tables go to {stem}_{table}.{ext} "
        f"(default: subcommand name under ${OUT_DIR_ENV} or the cwd)"),
    Opt("config", str, None, "key=value file supplying defaults for any flag"),
]

_SOURCE = [
    Opt("kind", str, "singular", "coefficient source: singular or blaschke"),
    Opt("a", float, 1.0, "positive mass of the singular measure at 1 (default 1)"),
    Opt("rule", str, "dyadic", "Blaschke zero rule: dyadic or power"),
    Opt("alpha", float, 2.0, "exponent for the power zero rule (default 2)"),
    Opt("factors", int, 12, "number of Blaschke factors (default 12)"),
]

_COMMANDS: dict[str, Callable[[dict], list[Table]]] = {}


def _command(name: str, *opts: Opt):
    """Register the decorated table function as subcommand ``name``; its
    docstring is the help line, and it takes the common options plus opts."""
    def register(run):
        run.opts = _COMMON + list(opts)
        _COMMANDS[name] = run
        return run
    return register


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults."""
    opts = {opt.name.replace("-", "_"): opt for opt in _COMMANDS[command].opts}
    flags = {key: getattr(args, key) for key in opts}
    file_cfg: dict[str, str] = {}
    if flags["config"] is not None:
        file_cfg = _read_config_file(flags["config"])
        if "config" in file_cfg:
            raise UsageError("a config file cannot set 'config'")
        unknown = sorted(set(file_cfg) - set(opts))
        if unknown:
            raise UsageError(f"unknown config key(s) for {command}: {', '.join(unknown)}")
    cfg: dict = {"command": command}
    for key, opt in opts.items():
        if flags[key] is not None:
            cfg[key] = flags[key]
        elif key in file_cfg:
            try:
                cfg[key] = opt.conv(file_cfg[key])
            except ValueError as exc:
                raise UsageError(f"bad value for {key}: {file_cfg[key]!r}") from exc
        else:
            cfg[key] = opt.default
        if opt.conv is float and cfg[key] is not None and not math.isfinite(cfg[key]):
            raise UsageError(f"{key} must be finite, got {cfg[key]!r}")
    if cfg["out"] not in ("csv", "json"):
        raise UsageError(f"out must be csv or json, got {cfg['out']!r}")
    return cfg


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: every subcommand with its help line, and the
    options of the one argv names.

    argparse parses only the subparser of the command it dispatches to, so
    the others' options are never read, and adding them was most of the
    time a light command spent parsing.  The top level takes no option but
    -h, so the argument it dispatches on comes before any other command
    name: if it is a command, it is the first command name in argv, and if
    it is not, the top level fails before any subparser parses.  Help text,
    usage lines and error messages are therefore the same as with every
    subcommand's options added.
    """
    parser = argparse.ArgumentParser(
        prog="mgapprox",
        description="martingale-approximation experiments with deterministic outputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if arg in _COMMANDS), None)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        if command == named:
            for opt in run.opts:
                p.add_argument(f"--{opt.name}", type=opt.conv, default=None, help=opt.help)
    return parser


# ---------------------------------------------------------------------------
# output

# The CSV text of each cell type, looked up on the exact type: numpy scalars
# and other look-alikes are rejected rather than coerced.
_CELL_TEXT = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    int: str,
    float: "{:.17g}".format,
    str: str,
}

# The JSON twin: the text json.dumps gives each cell type.
_JSON_TEXT = {**_CELL_TEXT, type(None): lambda value: "null", str: json.dumps,
              float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v)}
# Per format, the cell texts and the %-spec of a column holding a single type,
# byte for byte its cells' text; a JSON float column with NaN or inf gets none.
# The None specs print their constant text and consume the cell.
_RENDER = {
    "csv": (_CELL_TEXT, {type(None): "%.0s", int: "%d", float: "%.17g", str: "%s"}),
    "json": (_JSON_TEXT, {type(None): "null%.0s", int: "%d", float: "%r"}),
}
_ROW_BLOCK = 4096  # rows rendered by one %-operation and written at once


class Table:
    """A name and ordered named columns of native cells, checked once for
    equal length; ``len()`` is the row count."""

    def __init__(self, name: str, /, **columns: list):
        lengths = {key: len(column) for key, column in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"table {name!r} has columns of unequal length {lengths}")
        self.name, self.columns = name, columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _write_chunks(path: str, chunks) -> None:
    """Write text chunks to path, removing it if any chunk fails to render or write."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        os.remove(path)
        raise


def _row_blocks(row: str, columns: list, start: int, stop: int):
    """Rows start..stop of (column, cell texts or None) pairs, _ROW_BLOCK at a time."""
    for lo in range(start, stop, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, stop)
        cells = [c[lo:hi] if t is None else [t[type(x)](x) for x in c[lo:hi]] for c, t in columns]
        yield row * (hi - lo) % tuple(chain.from_iterable(zip(*cells)))


def _json_row(cells: list[str]) -> str:
    """The JSON text of one row, given its cells' texts or %-specs."""
    return "    [" + ("\n      " + ",\n      ".join(cells) + "\n    " if cells else "") + "]"


def emit_table(table: Table, *, out_format: str, path: str, metadata: dict) -> list[str]:
    """Write one table plus its metadata record; returns the written paths.

    The table comes first and ``out_format`` by keyword: perfbench/tracer.py
    counts rows as ``len()`` of the one and names its span after the other.
    Cells must be None, bool, int, float or str; any other type, a numpy
    scalar included, raises TypeError naming the first such column.  CSV:
    header row, '.' decimal separator, floats at 17 significant digits, None
    as the empty cell, booleans as true/false; metadata goes to a
    {path}.meta.json sidecar.  JSON: the object json.dumps(sort_keys=True,
    indent=2) makes of metadata, schema and rows.  Both are byte-stable for
    fixed inputs.  Row 0 renders cell by cell, and rows 1.. through one row
    template that renders and writes _ROW_BLOCK rows at a time: a column
    whose cells from row 1 on are of one type takes that type's %-spec, any
    other renders cell by cell, so a column that is None in row 0 only, like
    inner's M_n, still takes its spec.  A file whose rendering or writing
    fails partway is removed, so a failure leaves no table file.
    """
    if out_format not in ("csv", "json"):
        raise UsageError(f"out must be csv or json, got {out_format!r}")
    schema, columns = list(table.columns), list(table.columns.values())
    kinds = [set(map(type, islice(column, 1, None))) for column in columns]
    for name, column, kind in zip(schema, columns, kinds):
        if not kind.union(map(type, column[:1])) <= _CELL_TEXT.keys():
            bad = next(type(cell) for cell in column if type(cell) not in _CELL_TEXT)
            raise TypeError(f"column {name!r} holds a cell of type {bad.__name__}; "
                            "cells must be None, bool, int, float or str")
    cell_text, column_spec = _RENDER[out_format]
    n = len(table)
    # row 0 cell by cell, so a None there leaves its column the spec of rows 1..
    lead = [[cell_text[type(column[0])](column[0]) for column in columns]] if n else []
    specs = []
    for j, kind in enumerate(kinds):
        spec = column_spec.get(next(iter(kind))) if len(kind) == 1 else None
        plain = spec is not None and (
            spec != "%r" or all(map(math.isfinite, islice(columns[j], 1, None))))
        columns[j] = (columns[j], None if plain else cell_text)
        specs.append(spec if plain else "%s")
    if out_format == "csv":
        sidecar = json.dumps(metadata, sort_keys=True, indent=2) + "\n"
        head = (",".join(cells) + "\n" for cells in [schema, *lead])
        _write_chunks(path, chain(head, _row_blocks(",".join(specs) + "\n", columns, 1, n)))
        _write_chunks(path + ".meta.json", [sidecar])
        return [path, path + ".meta.json"]
    # keys in sorted order; every row but the last ends in a comma
    row, last = _json_row(specs), max(n - 1, 1)
    meta, names = (json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ")
                   for v in (metadata, schema))
    head = f'{{\n  "metadata": {meta},\n  "rows": [' + "\n" * bool(n)
    tail = "  " * bool(n) + f'],\n  "schema": {names}\n}}\n'
    first_end = ",\n" if n > 1 else "\n"
    _write_chunks(path, chain([head], (_json_row(cells) + first_end for cells in lead),
                              _row_blocks(row + ",\n", columns, 1, last),
                              _row_blocks(row + "\n", columns, last, n), [tail]))
    return [path]


def _metadata(cfg: dict) -> dict:
    return {
        "config": {key: list(v) if isinstance(v, tuple) else v for key, v in cfg.items()},
        "versions": {
            "mgapprox": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }


def _stem(cfg: dict) -> str:
    stem = cfg["out_path"] or cfg["command"]
    if not os.path.isabs(stem):
        base = os.environ.get(OUT_DIR_ENV, "")
        if base:
            stem = os.path.join(base, stem)
    return stem


# ---------------------------------------------------------------------------
# commands

def _row(name: str, **cells) -> Table:
    """A one-row table of named cells."""
    return Table(name, **{key: [cell] for key, cell in cells.items()})


def _fields(records: list, *names: str) -> dict[str, list]:
    """Columns named after attributes of ``records``, one cell per record."""
    return {name: [getattr(rec, name) for rec in records] for name in names}


def _build_series(cfg):
    kind = cfg["kind"]
    if kind == "singular":
        if not cfg["a"] > 0:
            raise UsageError("a must be positive")
        return singular_inner_coeffs(cfg["a"], cfg["trunc"])
    if kind == "blaschke":
        return blaschke_product_coeffs(_blaschke_spec(cfg), cfg["trunc"])
    raise UsageError(f"kind must be singular or blaschke, got {kind!r}")


def _blaschke_spec(cfg) -> BlaschkeSpec:
    rule = cfg["rule"]
    if rule == "dyadic":
        return BlaschkeSpec.dyadic(cfg["factors"])
    if rule == "power":
        return BlaschkeSpec.power(cfg["alpha"], cfg["factors"])
    raise UsageError(f"rule must be dyadic or power, got {rule!r}")


@_command("inner", *_SOURCE, Opt("trunc", int, 1000, "truncation order (default 1000)"))
def _cmd_inner(cfg) -> list[Table]:
    """inner-function coefficient table (n, a_n, A_n, M_n, main_term)"""
    series = _build_series(cfg)
    profile = cesaro_profile(series)
    order = series.order
    main_term = [None] * (order + 1)
    if cfg["kind"] == "singular":
        main_term[1:] = newman_shapiro_main_term(cfg["a"], np.arange(1, order + 1)).tolist()
    return [Table(
        "series",
        n=list(range(order + 1)),
        a_n=series.coeffs.tolist(),
        A_n=profile.partial_sums.tolist(),
        M_n=[None, *profile.cesaro_means.tolist()],
        main_term=main_term,
    )]


@_command("cesaro", *_SOURCE, Opt("trunc", int, 10000, "truncation order (default 10000)"))
def _cmd_cesaro(cfg) -> list[Table]:
    """partial sums and Cesaro means of a coefficient sequence"""
    series = _build_series(cfg)
    profile = cesaro_profile(series)
    return [Table(
        "cesaro",
        n=list(range(1, series.order + 1)),
        partial_sum=profile.partial_sums[1:].tolist(),
        cesaro_mean=profile.cesaro_means.tolist(),
    )]


@_command("gap", *_SOURCE, Opt("trunc", int, 10000, "truncation order (default 10000)"),
          Opt("horizons", _parse_int_list, (1, 10, 100, 1000, 10000),
              "window lengths, e.g. 1,10,100 (default 1,10,...,10^4)"),
          Opt("c", float, None, "scalar to test; omitted means the minimizer"))
def _cmd_gap(cfg) -> list[Table]:
    """window-sum gap reports for scalar martingale approximants"""
    series = _build_series(cfg)
    if cfg["c"] is None:
        reports = [best_scalar_gap(series, n) for n in cfg["horizons"]]
    else:
        reports = [approximation_gap(series, cfg["c"], n) for n in cfg["horizons"]]
    return [Table("gap", **_fields(
        reports, "n", "c", "sum_norm_sq", "cross", "gap_sq", "c_star", "min_gap_sq",
    ))]


@_command("prop6", Opt("n-range", _parse_span, (2, 20), "dyadic levels LO..HI (default 2..20)"),
          Opt("k-max", int, 40, "zeros kept in the full product (default 40)"))
def _cmd_prop6(cfg) -> list[Table]:
    """dyadic Blaschke midpoint bounds per level"""
    lo, hi = cfg["n_range"]
    k_max = cfg["k_max"]
    if lo < 1 or hi + 1 > k_max:
        raise UsageError("need 1 <= LO and HI + 1 <= k-max")
    spec = BlaschkeSpec.dyadic(k_max)
    levels = range(lo, hi + 1)
    reps = [dyadic_midpoint_report(level, k_max) for level in levels]
    at_zero = [abs(blaschke_eval_radial(spec, spec.zeros[level - 1])) for level in levels]
    return [Table(
        "bounds",
        **_fields(reps, "level", "r", "p1", "p2", "p3", "p4", "product", "c_bound"),
        value_at_zero=at_zero,
        p1_ok=[rep.p1 >= rep.c_bound for rep in reps],
        p2_ok=[rep.p2 >= 0.125 for rep in reps],
        p3_ok=[rep.p3 >= 0.125 for rep in reps],
        p4_ok=[rep.p4 >= rep.c_bound for rep in reps],
        product_ok=[rep.product >= rep.c_bound**2 / 64.0 for rep in reps],
        zero_ok=[value == 0.0 for value in at_zero],
    )]


def _floor_rule(text: str):
    if text == "invsqrtlog":
        return inv_sqrt_log_rule()
    head, sep, tail = text.partition(":")
    if head == "power" and sep:
        try:
            return power_rule(float(tail))
        except ValueError as exc:
            raise UsageError(f"bad power exponent {tail!r}") from exc
    raise UsageError(f"b-rule must be invsqrtlog or power:<beta>, got {text!r}")


_DECADES = tuple(10**j for j in range(7))


@_command("prop3", Opt("K", int, 4, "number of synthesized levels (default 4)"),
          Opt("b-rule", str, "invsqrtlog", "floor sequence: invsqrtlog or power:<beta>"),
          Opt("samples", int, 10000, "encode/decode round trips (default 10000)"),
          Opt("search-cap", int, DEFAULT_SEARCH_CAP,
              f"horizon search cap (default {DEFAULT_SEARCH_CAP})"),
          Opt("horizons", _parse_int_list, None, "norm-table horizons (default: "
              "powers of 10 merged with the synthesized horizons)"))
def _cmd_prop3(cfg) -> list[Table]:
    """layered-process synthesis, residual norms, decode summary"""
    if cfg["K"] < 2:
        raise UsageError("K must be >= 2")
    rule = _floor_rule(cfg["b_rule"])
    params = synthesize_layer_params(rule, cfg["K"], cfg["search_cap"])
    columns = {key: getattr(params, key).tolist()
               for key in ("p", "rho", "phi", "log_q", "log_r", "log_s", "b_at_phi")}
    tables = [Table("params", level=list(range(1, params.level_count + 1)), **columns)]

    phi_set = set(columns["phi"])
    if cfg["horizons"] is None:  # the derived default is echoed in the metadata
        cfg["horizons"] = tuple(sorted(set(_DECADES) | phi_set))
    horizons = list(cfg["horizons"])
    synth = [n in phi_set for n in horizons]
    lagged = [residual_norm_sq_lagged(params, n) for n in horizons]
    natural = [residual_norm_sq_natural(params, n) for n in horizons]
    floor = [n * rule(n) ** 2 for n in horizons]
    tables.append(Table(
        "norms",
        n=horizons,
        is_synth_horizon=synth,
        lagged_sq=lagged,
        natural_sq=natural,
        n_floor_sq=floor,
        lagged_le_one=[value <= 1.0 for value in lagged],
        natural_ge_floor=[v >= f if s else None for v, f, s in zip(natural, floor, synth)],
    ))

    report = simulate_and_decode(params, cfg["samples"], cfg["seed"])
    tables.append(_row(
        "decode",
        samples=report.samples,
        recovered=report.recovered,
        failures=report.failures,
        boundary_hits=report.boundary_hits,
        suppressed_levels=";".join(map(str, report.suppressed_levels)),
        nonzero_draws=";".join(map(str, report.nonzero_draws)),
        miss_probability=report.miss_probability,
        seed=report.seed,
    ))
    return tables


@_command("prop2", Opt("depth", int, 3, "carrier depth, 1..6 (default 3)"))
def _cmd_prop2(cfg) -> list[Table]:
    """exact filtration model: increment norms and digit decoding"""
    depth = cfg["depth"]
    if not 1 <= depth <= 6:
        raise UsageError("depth must lie in 1..6")
    model = ExactModel.build(depth)
    norms = martingale_difference_norms(model)
    total = hannan_sum(model, norms)
    analytic = math.sqrt(5.0 + sum(9.0 ** -(2 * i + 1) for i in range(1, depth + 1))) + 0.125
    projection = remote_past_projection(model)

    # every sign pattern of the 2 depth weighted carriers, one row each
    patterns = (2 * (np.arange(4**depth)[:, None] >> np.arange(2 * depth) & 1) - 1).astype(np.int8)
    decoded, ok = decode_digit_values(digit_values(patterns, depth), depth)

    ks = sorted(norms)
    return [
        Table("md_norms", k=ks, norm=[norms[k] for k in ks]),
        _row(
            "summary",
            depth=depth,
            hannan_sum=total,
            hannan_analytic=analytic,
            hannan_abs_err=abs(total - analytic),
            remote_norm=projection.norm,
            matches_e0=projection.matches_e0,
            matches_two_e0=projection.matches_two_e0,
            decode_patterns=len(patterns),
            decode_ok=bool(ok.all()) and np.array_equal(decoded, patterns),
        ),
    ]


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        cfg = _resolve(args.command, args)
        tables = _COMMANDS[args.command](cfg)
        metadata = _metadata(cfg)
        stem, ext = _stem(cfg), cfg["out"]
        for table in tables:
            path = f"{stem}_{table.name}.{ext}"
            print(*emit_table(table, out_format=ext, path=path, metadata=metadata), sep="\n")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed = time.perf_counter() - started
        print(f"# wall_time_s={elapsed:.3f}", file=sys.stderr)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
