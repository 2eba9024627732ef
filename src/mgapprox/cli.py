"""Command-line driver for every experiment in the package.

Each subcommand is a thin adapter, registered by ``_command`` together with
its help line and options: it calls library functions on the resolved
configuration and returns their results as ``Table``s, named columns of
native Python values or numpy arrays; main hands each to ``emit_table``
only once all of them are computed, so a failed command writes no file.
No numeric logic lives here.
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
import atexit
import gc
import importlib
import json
import math
import os
import sys
import tempfile
import threading
import time
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from . import DEFAULT_SEARCH_CAP, __version__
from .errors import InvariantViolation

# The library names the commands call, by module.  Importing this module
# loads none of these modules: _bind imports those a command uses (its
# ``uses``) and binds their names here before the command runs, and any
# other name is bound on first access as an attribute.  perfbench/tracer.py
# replaces these names on this module, so a bound name is never rebound;
# it also wraps digit_value, decode_digit_value and decoding_table, which
# no command calls.
_LIBRARY = {
    "exact_model": ("ExactModel", "decode_digit_value", "decode_digit_values", "digit_value",
                    "digit_values", "hannan_sum", "martingale_difference_norms",
                    "remote_past_projection"),
    "inner": ("BlaschkeSpec", "blaschke_eval_radial", "blaschke_product_coeffs",
              "dyadic_midpoint_report", "newman_shapiro_main_term", "singular_inner_coeffs"),
    "layered_process": ("decoding_table", "inv_sqrt_log_rule", "power_rule",
                        "residual_norm_sq_lagged", "residual_norm_sq_natural",
                        "simulate_and_decode", "synthesize_layer_params"),
    "linear_process": ("approximation_gap", "best_scalar_gap"),
    "series": ("cesaro_profile",),
}
_MODULE_OF = {name: module for module, names in _LIBRARY.items() for name in names}


def _bind(modules: tuple[str, ...]) -> None:
    """Import the named library modules and bind the names of each that
    _LIBRARY lists, leaving a name already bound (a patched one) as it is."""
    names = globals()
    for module_name in modules:
        module = importlib.import_module(f".{module_name}", __package__)
        for name in _LIBRARY[module_name]:
            if name not in names:
                names[name] = getattr(module, name)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((_MODULE_OF[name],))
    return globals()[name]


__all__ = ["LeadingNone", "Table", "UsageError", "emit_table", "entry", "main"]

OUT_DIR_ENV = "MGAPPROX_OUT_DIR"


class UsageError(Exception):
    """Bad flag, config key, or value; reported with exit status 2."""


# ---------------------------------------------------------------------------
# configuration

def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _parse_span(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected LO..HI") from exc


def _is_floor_rule(text: str) -> bool:
    """Whether text is invsqrtlog or power:<beta> with beta finite and > 0."""
    if text.startswith("power:"):
        with suppress(ValueError):
            return 0 < float(text[6:]) < math.inf
    return text == "invsqrtlog"


def _at_least(lo: int) -> tuple:
    """The domain of the integers n >= lo."""
    return (lambda n: n >= lo), f">= {lo}"


def _one_of(*values: str) -> tuple:
    """The domain holding exactly the given strings."""
    return values.__contains__, " or ".join(values)


_FINITE_POSITIVE = (lambda x: 0 < x < math.inf, "finite and > 0")
# Horizons reach the kernels as floats, which overflow near 1.8e308.
_HORIZONS = (lambda ns: ns and 1 <= min(ns) and max(ns) <= 10**300,
             "a nonempty list of entries in 1..10^300")


@dataclass(frozen=True)
class Opt:
    """One configurable field: flag name, string converter, default, help,
    and domain: ``ok``, a predicate on the converted value, and ``accepts``,
    what it accepts.  The domain is the one value check: _resolve runs it on
    flag, config-file and default values alike, skipping None, and raises
    UsageError for a value outside it; argparse never sees it."""

    name: str
    conv: Callable[[str], object]
    default: object
    help: str
    ok: Callable[[object], bool] = lambda value: True
    accepts: str = ""


_COMMON = [
    Opt("seed", int, 0, "base seed for all random streams (default 0)"),
    Opt("out", str, "csv", "output format, csv or json (default csv)", *_one_of("csv", "json")),
    Opt("out-path", str, None, "output stem; tables go to {stem}_{table}.{ext} "
        f"(default: subcommand name under ${OUT_DIR_ENV} or the cwd)"),
    Opt("config", str, None, "key=value file supplying defaults for any flag"),
]

_SOURCE = [
    Opt("kind", str, "singular", "coefficient source: singular or blaschke",
        *_one_of("singular", "blaschke")),
    Opt("a", float, 1.0, "positive mass of the singular measure at 1 (default 1)",
        *_FINITE_POSITIVE),
    Opt("rule", str, "dyadic", "Blaschke zero rule: dyadic or power", *_one_of("dyadic", "power")),
    Opt("alpha", float, 2.0, "exponent for the power zero rule (default 2)", *_FINITE_POSITIVE),
    Opt("factors", int, 12, "number of Blaschke factors (default 12)", *_at_least(1)),
]

_COMMANDS: dict[str, Callable[[dict], list[Table]]] = {}


def _command(name: str, *opts: Opt, uses: tuple[str, ...]):
    """Register the decorated table function as subcommand ``name``; its
    docstring is the help line, it takes the common options plus opts, and
    it calls the _LIBRARY names of the modules ``uses`` lists."""
    def register(run):
        run.opts = _COMMON + list(opts)
        run.uses = uses
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
    """Merge flags over config-file values over defaults, checking domains."""
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
                raise UsageError(f"bad value for {opt.name}: {file_cfg[key]!r}") from exc
        else:
            cfg[key] = opt.default
        if cfg[key] is not None and not opt.ok(cfg[key]):
            raise UsageError(f"{opt.name} must be {opt.accepts}, got {cfg[key]!r}")
    return cfg


def _named(argv: list[str]) -> str | None:
    """The command argv names: its first word that is a command name."""
    return next((arg for arg in argv if arg in _COMMANDS), None)


def _bind_command(argv: list[str]) -> None:
    """Bind the library names of the command argv names, if any."""
    named = _named(argv)
    if named is not None:
        _bind(_COMMANDS[named].uses)


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
    named = _named(argv)
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
# The cell type of the array dtypes accepted besides the integer ones.
_ARRAY_CELLS = {np.dtype(bool): bool, np.dtype(float): float}


class Table:
    """A name and ordered named columns, checked once for equal length;
    ``len()`` is the row count.  A column is a list of native cells, a 1-D
    numpy array of bool, integer or float64 dtype, or a ``LeadingNone``, the
    one way to put None in row 0 of a column whose other rows take a spec."""

    def __init__(self, name: str, /, **columns: list | np.ndarray | LeadingNone):
        for key, column in columns.items():
            array = getattr(column, "rest", column)
            if isinstance(array, np.ndarray) and array.ndim != 1:
                raise TypeError(f"column {key!r} of table {name!r} holds a {array.ndim}-D "
                                "array; array columns must be 1-D")
        lengths = {key: len(column) for key, column in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"table {name!r} has columns of unequal length {lengths}")
        self.name, self.columns = name, columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


@dataclass(frozen=True)
class LeadingNone:
    """A column that is None in row 0 and the cells of ``rest``, an array or
    a list, in rows 1.., like inner's M_n: row 0 takes the None spec, and the
    other rows the spec of the kind of ``rest``."""

    rest: np.ndarray | list

    def __len__(self) -> int:
        return 1 + len(self.rest)


def _cells(column, lo: int, hi: int) -> list:
    """Rows lo..hi of a column as native Python values: an array's block is
    converted in one tolist(), and a LeadingNone reads rest one row back."""
    if isinstance(column, LeadingNone):
        cells = _cells(column.rest, max(lo - 1, 0), hi - 1)
        return [None, *cells] if lo == 0 else cells
    block = column[lo:hi]
    return block.tolist() if isinstance(block, np.ndarray) else block


def _write_chunks(path: str, chunks) -> None:
    """Write chunks to path, text ones encoded and file ones copied by the
    kernel, removing path if any chunk fails to render or write."""
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            for chunk in chunks:
                if isinstance(chunk, str):
                    fh.write(chunk)
                    continue
                fh.flush()
                offset, size = 0, os.fstat(chunk.fileno()).st_size
                while offset < size:
                    offset += os.sendfile(fh.fileno(), chunk.fileno(), offset, size - offset)
    except BaseException:
        os.remove(path)
        raise


def _row_blocks(row: str, columns: list, start: int, stop: int):
    """Rows start..stop of (column, cell texts or None) pairs, _ROW_BLOCK at a time."""
    for lo in range(start, stop, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, stop)
        blocks = [(_cells(c, lo, hi), t) for c, t in columns]
        cells = [b if t is None else [t[type(x)](x) for x in b] for b, t in blocks]
        yield row * (hi - lo) % tuple(chain.from_iterable(zip(*cells)))


def _forks(n: int) -> bool:
    """Whether an n-row table renders its later half in a forked child: it
    spans two blocks, and a fork of this one-threaded process can run on a
    second CPU."""
    return (n >= 2 * _ROW_BLOCK and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


@contextmanager
def _child_rows(row: str, columns: list, start: int, stop: int, directory: str):
    """Rows start..stop of _row_blocks, rendered by a forked child into an
    unlinked file in directory while the caller renders the rows before.

    Yields the chunks that follow those rows: the child's file, once the
    child has exited cleanly, or, if it failed, the rows rendered here, so
    the error raised is the one a serial run raises.  The child ends in
    os._exit, so it never returns into the caller nor flushes inherited
    buffers, and it stops after the block during which the caller died; a
    child still running on exit is killed and reaped.  An empty range forks
    nothing.
    """
    if start == stop:
        yield ()
        return
    with tempfile.TemporaryFile(dir=directory) as spool:
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                for block in _row_blocks(row, columns, start, stop):
                    if os.getppid() != parent:  # the caller was killed: do not outlive it
                        os._exit(1)
                    spool.write(block.encode())
                spool.flush()
                status = 0
            finally:
                os._exit(status)

        def joined():
            nonlocal pid
            status = os.waitpid(pid, 0)[1]
            pid = 0
            yield from _row_blocks(row, columns, start, stop) if status else [spool]

        try:
            yield joined()
        finally:
            if pid:
                import signal  # only a failed write needs it, so no command pays its import

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _json_row(cells: list[str]) -> str:
    """The JSON text of one row, given its cells' texts or %-specs."""
    return "    [\n      " + ",\n      ".join(cells) + "\n    ]"


def emit_table(table: Table, *, out_format: str, path: str, metadata: dict) -> list[str]:
    """Write one table plus its metadata record; returns the written paths.

    The table comes first and ``out_format`` by keyword: perfbench/tracer.py
    counts rows as ``len()`` of the one and names its span after the other.
    Cells must be None, bool, int, float or str; any other type, a numpy
    scalar included, raises TypeError naming the first such column, and so
    does an array of another dtype.  CSV: header row, '.' decimal separator,
    floats at 17 significant digits, None as the empty cell, booleans as
    true/false; metadata goes to a {path}.meta.json sidecar.  JSON: the
    object json.dumps(sort_keys=True, indent=2) makes of metadata, schema
    and rows.  Both are byte-stable for fixed inputs.  Every row renders
    through a row template, _ROW_BLOCK rows per %-operation and write,
    arrays turned into Python values a block at a time: a column whose
    cells are all of one type (an array's dtype, a LeadingNone's rest) takes
    that type's %-spec, any other renders cell by cell.  Row 0 has its own
    template, which gives LeadingNone columns the None spec.  A table of at
    least 2 * _ROW_BLOCK rows, in a one-threaded process that may run on 2
    CPUs, is split at the row midpoint: a forked child renders the later
    half into an unlinked file beside path while this process renders the
    earlier one, and the kernel appends the child's bytes, so the file is
    the same bytes a serial run writes.  A file whose rendering or writing
    fails partway is removed, so a failure leaves no table file, and no
    child outlives the call.
    """
    if out_format not in ("csv", "json"):
        raise UsageError(f"out must be csv or json, got {out_format!r}")
    cell_text, column_spec = _RENDER[out_format]
    columns, firsts, specs = [], [], []
    for name, column in table.columns.items():
        values = getattr(column, "rest", column)
        if isinstance(values, np.ndarray):
            kind = {int if values.dtype.kind in "iu" else _ARRAY_CELLS.get(values.dtype)}
            if None in kind:
                raise TypeError(f"column {name!r} is an array of dtype {values.dtype}; "
                                "arrays must be of bool, integer or float64 dtype")
        else:
            kind = set(map(type, values))
        if not kind <= _CELL_TEXT.keys():
            bad = next(type(cell) for cell in values if type(cell) not in _CELL_TEXT)
            raise TypeError(f"column {name!r} holds a cell of type {bad.__name__}; "
                            "cells must be None, bool, int, float or str")
        spec = column_spec.get(next(iter(kind))) if len(kind) == 1 else None
        plain = spec is not None and (spec != "%r" or np.isfinite(values).all())
        columns.append((column, None if plain else cell_text))
        specs.append(spec if plain else "%s")
        firsts.append(column_spec[type(None)] if isinstance(column, LeadingNone) else specs[-1])
    n, schema = len(table), list(table.columns)
    if out_format == "csv":
        sidecar = json.dumps(metadata, sort_keys=True, indent=2) + "\n"
        head, first, row = (",".join(cells) + "\n" for cells in (schema, firsts, specs))
        tail = ""
    else:
        # keys in sorted order; a newline opens row 0 and a comma and newline each later row
        meta, names = (json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ")
                       for v in (metadata, schema))
        head = f'{{\n  "metadata": {meta},\n  "rows": ['
        tail = "\n  " * bool(n) + f'],\n  "schema": {names}\n}}\n'
        first, row = "\n" + _json_row(firsts), ",\n" + _json_row(specs)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    mid = 1 + (n - 1) // 2 if _forks(n) else n
    with _child_rows(row, columns, mid, n, directory) as later:
        _write_chunks(path, chain([head], _row_blocks(first, columns, 0, min(n, 1)),
                                  _row_blocks(row, columns, 1, mid), later, [tail]))
    if out_format == "csv":
        _write_chunks(path + ".meta.json", [sidecar])
        return [path, path + ".meta.json"]
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
    if cfg["kind"] == "singular":
        return singular_inner_coeffs(cfg["a"], cfg["trunc"])
    if cfg["rule"] == "dyadic":
        spec = BlaschkeSpec.dyadic(cfg["factors"])
    else:
        spec = BlaschkeSpec.power(cfg["alpha"], cfg["factors"])
    return blaschke_product_coeffs(spec, cfg["trunc"])


@_command("inner", *_SOURCE,
          Opt("trunc", int, 1000, "truncation order (default 1000)", *_at_least(0)),
          uses=("inner", "series"))
def _cmd_inner(cfg) -> list[Table]:
    """inner-function coefficient table (n, a_n, A_n, M_n, main_term)"""
    series = _build_series(cfg)
    profile = cesaro_profile(series)
    order = series.order
    if cfg["kind"] == "singular":
        main_term = LeadingNone(newman_shapiro_main_term(cfg["a"], np.arange(1, order + 1)))
    else:
        main_term = [None] * (order + 1)
    return [Table(
        "series",
        n=np.arange(order + 1),
        a_n=series.coeffs,
        A_n=profile.partial_sums,
        M_n=LeadingNone(profile.cesaro_means),
        main_term=main_term,
    )]


@_command("cesaro", *_SOURCE,
          Opt("trunc", int, 10000, "truncation order (default 10000)", *_at_least(0)),
          uses=("inner", "series"))
def _cmd_cesaro(cfg) -> list[Table]:
    """partial sums and Cesaro means of a coefficient sequence"""
    series = _build_series(cfg)
    profile = cesaro_profile(series)
    return [Table(
        "cesaro",
        n=np.arange(1, series.order + 1),
        partial_sum=profile.partial_sums[1:],
        cesaro_mean=profile.cesaro_means,
    )]


@_command("gap", *_SOURCE,
          Opt("trunc", int, 10000, "truncation order (default 10000)", *_at_least(0)),
          Opt("horizons", _parse_int_list, (1, 10, 100, 1000, 10000),
              "window lengths, e.g. 1,10,100 (default 1,10,...,10^4)", *_HORIZONS),
          Opt("c", float, None, "scalar to test; omitted means the minimizer",
              math.isfinite, "finite"),
          uses=("inner", "linear_process"))
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


@_command("prop6", Opt("n-range", _parse_span, (2, 20), "dyadic levels LO..HI (default 2..20)",
                      lambda span: 1 <= span[0] <= span[1], "LO..HI with 1 <= LO <= HI"),
          Opt("k-max", int, 40, "zeros kept in the full product (default 40)"),
          uses=("inner",))
def _cmd_prop6(cfg) -> list[Table]:
    """dyadic Blaschke midpoint bounds per level"""
    lo, hi = cfg["n_range"]
    k_max = cfg["k_max"]
    if hi + 1 > k_max:
        raise UsageError("need HI + 1 <= k-max")
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
    return inv_sqrt_log_rule() if text == "invsqrtlog" else power_rule(float(text[6:]))


_DECADES = tuple(10**j for j in range(7))


@_command("prop3", Opt("K", int, 4, "number of synthesized levels (default 4)", *_at_least(2)),
          Opt("b-rule", str, "invsqrtlog", "floor sequence: invsqrtlog or power:<beta>",
              _is_floor_rule, "invsqrtlog or power:<beta> with beta finite and > 0"),
          Opt("samples", int, 10000, "encode/decode round trips (default 10000)",
              *_at_least(1)),
          Opt("search-cap", int, DEFAULT_SEARCH_CAP,
              f"horizon search cap (default {DEFAULT_SEARCH_CAP})"),
          Opt("horizons", _parse_int_list, None, "norm-table horizons (default: "
              "powers of 10 merged with the synthesized horizons)", *_HORIZONS),
          uses=("layered_process",))
def _cmd_prop3(cfg) -> list[Table]:
    """layered-process synthesis, residual norms, decode summary"""
    rule = _floor_rule(cfg["b_rule"])
    params = synthesize_layer_params(rule, cfg["K"], cfg["search_cap"])
    columns = {key: getattr(params, key)
               for key in ("p", "rho", "phi", "log_q", "log_r", "log_s", "b_at_phi")}
    tables = [Table("params", level=np.arange(1, params.level_count + 1), **columns)]

    phi_set = set(params.phi.tolist())
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


@_command("prop2", Opt("depth", int, 3, "carrier depth, 1..6 (default 3)",
                      lambda depth: 1 <= depth <= 6, "in 1..6"),
          uses=("exact_model",))
def _cmd_prop2(cfg) -> list[Table]:
    """exact filtration model: increment norms and digit decoding"""
    depth = cfg["depth"]
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
        _bind_command(argv)
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


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one stderr line, as main reports an error."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def entry() -> None:
    """The console script: main(), then the exit handlers, a stdio flush and
    os._exit, which skips the interpreter's teardown of every object.  If
    another thread is alive or a flush fails, sys.exit ends the run instead,
    so the failure is reported as a normal exit reports it.  Before main,
    the named command's library modules are imported, so their cost falls
    outside main's wall time, and warnings are set to print one line each."""
    # A module that fails to import fails again in main, which reports it.
    with suppress(Exception):
        _bind_command(sys.argv[1:])
    warnings.showwarning = _warning_line
    # The imported modules live until the process ends: frozen, they are
    # never traversed by a collection during main, and main starts with a
    # full generation-0 allocation budget however much the imports allocated.
    gc.freeze()
    status = main()
    if threading.active_count() == 1:
        atexit._run_exitfuncs()
        with suppress(Exception):
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    sys.exit(status)


if __name__ == "__main__":
    entry()
