"""Command-line driver for every experiment in the package.

Each subcommand is a thin adapter, registered by ``_command`` together with
its help line and options: it calls library functions on the resolved
configuration and returns their results as ``Table``s, named columns of
native Python values or numpy arrays; main hands each to ``emit_table``
only once all of them are computed, removes the files of the earlier
tables if a later one fails to write, and prints the written paths only
once every table is written, so a failed command leaves no file and
prints no path.
Numeric work lives in the library; a command computes only its check
columns and prop2's closed form ``hannan_analytic``.
Configuration comes from flags, then a key=value config file, then
documented defaults; the resolved configuration is echoed into the output
metadata, and rerunning with an identical configuration produces
byte-identical files (wall time is reported on stderr only, never written
into an output).

A well-formed command line, a command name followed only by exact
``--name value`` pairs of its options, is parsed by ``_quick_flags``
without importing argparse.  argparse parses any other argv, and it alone
writes help, usage and error text: -h, an abbreviated flag, ``--name=value``,
a value starting with '-' that is not a number and a malformed argv all go
to it.  A number starting with '-' (``--c -1e5``) is a value on both paths:
argparse gets it as ``--c=-1e5``, since it would take -1e5 for a flag.

Importing this module loads no library module.  Once argv is parsed, main
binds here the public names (each module's ``__all__``) of the library
modules the command ``uses``; a name not bound here resolves through the
package on first access as an attribute.

Output layout: each table goes to {stem}_{table}.{format} where the stem
defaults to the subcommand name inside $MGAPPROX_OUT_DIR (or the working
directory).  CSV files carry a {file}.meta.json sidecar; JSON files embed
the metadata object directly.
"""

from __future__ import annotations

import atexit
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
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import DEFAULT_SEARCH_CAP, InvariantViolation, __version__, _bind

if TYPE_CHECKING:
    import argparse

def __getattr__(name: str):
    # A library name not yet bound here is the package's: the tracer finds
    # and replaces on this module the names it wraps before main runs.
    try:
        return getattr(sys.modules[__package__], name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


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
    it calls public names of the library modules ``uses`` lists, which main
    binds here before it runs."""
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _resolve(command: str, flags: dict) -> dict:
    """Merge flags, keyed by option dest with None when unset, over
    config-file values over defaults, checking domains."""
    opts = {opt.name.replace("-", "_"): opt for opt in _COMMANDS[command].opts}
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


def _is_number(text: str) -> bool:
    """Whether float() parses text."""
    try:
        float(text)
    except ValueError:
        return False
    return True


def _quick_flags(argv: list[str]) -> dict | None:
    """The flags argparse parses from argv, keyed by option dest, when argv
    is a command name followed only by exact --name value pairs of that
    command's options, no value starting with '-' but a number; None for
    any other argv.

    Values are converted in argv order, the last repeat winning, as
    argparse converts them.  A converter's ValueError or TypeError also
    gives None, so that argparse reports it; its UsageError propagates, as
    it does through argparse.  Every option of the command is a key, None
    when unset.
    """
    run = _COMMANDS.get(argv[0]) if argv else None
    if run is None or len(argv) % 2 == 0:
        return None
    opts = {f"--{opt.name}": opt for opt in run.opts}
    pairs = list(zip(argv[1::2], argv[2::2]))
    if any(flag not in opts or value.startswith("-") and not _is_number(value)
           for flag, value in pairs):
        return None
    flags = dict.fromkeys(opt.name.replace("-", "_") for opt in run.opts)
    try:
        for flag, value in pairs:
            flags[flag[2:].replace("-", "_")] = opts[flag].conv(value)
    except (ValueError, TypeError):
        return None
    return flags


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand and its options: the source
    of help, usage and error text, and the parser of any argv that
    _quick_flags declines.  Only those runs import argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mgapprox",
        description="martingale-approximation experiments with deterministic outputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        for opt in run.opts:
            p.add_argument(f"--{opt.name}", type=opt.conv, default=None, help=opt.help)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with each number that starts with '-' and follows a --name
    word joined to it as --name=value: argparse takes such a word for a
    flag unless it reads -N or -N.N."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1] and out[-1] != "--"
                and arg.startswith("-") and _is_number(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command argv names and its flags: by _quick_flags when argv is
    well formed, else by argparse, which exits on help and on errors."""
    flags = _quick_flags(argv)
    if flags is not None:
        return argv[0], flags
    flags = vars(_build_parser().parse_args(_joined(argv)))
    return flags.pop("command"), flags


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
    """Write chunks to path, text ones encoded as UTF-8, bytes as they are
    and file ones copied by the kernel, removing path if any chunk fails to
    render or write.  No chunk is held while the next one renders."""
    fh = open(path, "wb")
    try:
        with fh:
            for chunk in chunks:
                if isinstance(chunk, str):
                    chunk = chunk.encode()
                if isinstance(chunk, (bytes, bytearray)):
                    fh.write(chunk)
                else:
                    fh.flush()
                    offset, size = 0, os.fstat(chunk.fileno()).st_size
                    while offset < size:
                        offset += os.sendfile(fh.fileno(), chunk.fileno(), offset, size - offset)
                del chunk
    except BaseException:
        os.remove(path)
        raise


def _row_blocks(row: str | tuple, columns: list, start: int, stop: int):
    """Rows start..stop, _ROW_BLOCK at a time: under the row template, of
    (column, cell texts or None) pairs, as text, or, where row is the tuple
    of texts around a row's cells, of (array, row of its cell 0, %-spec)
    triples, each block of each array rendered by _text at once, as bytes."""
    if isinstance(row, tuple):
        from . import _text

        for lo in range(start, stop, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, stop)
            yield _text.rows(row, [(values[lo - at:hi - at], spec) for values, at, spec in columns])
        return
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
def _child_rows(row: str | tuple, columns: list, start: int, stop: int, directory: str):
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
                    spool.write(block.encode() if isinstance(block, str) else block)
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
    and rows.  Both are byte-stable for fixed inputs.  Rows render and are
    written _ROW_BLOCK at a time.  A column whose cells are all of one type
    (an array's dtype, a LeadingNone's rest) takes that type's %-spec, any
    other renders cell by cell.  In a table of at least _ROW_BLOCK rows whose
    columns are all integer or float64 arrays or LeadingNones of them, and
    take their specs (a JSON float column holding NaN or inf does not), rows
    1.. are numpy text blocks: _text turns each column's block into the texts
    of its spec at once, taking the spec cell by cell only where it cannot
    certify the digits.  Other rows render through a row template, arrays
    turned into Python values a block at a time; row 0 has its own template,
    which gives LeadingNone columns the None spec.  A table of at
    least 2 * _ROW_BLOCK rows, in a one-threaded process that may run on 2
    CPUs, is split at the row midpoint: a forked child renders the later
    half into an unlinked file beside path while this process renders the
    earlier one, and the kernel appends the child's bytes, so the file is
    the same bytes a serial run writes.  A file whose rendering or writing
    fails partway is removed, and so is the table when its sidecar fails to
    write, so a failure leaves no table file, and no child outlives the
    call.
    """
    if out_format not in ("csv", "json"):
        raise UsageError(f"out must be csv or json, got {out_format!r}")
    cell_text, column_spec = _RENDER[out_format]
    columns, firsts, specs, arrays = [], [], [], []
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
        arrays.append((values, int(isinstance(column, LeadingNone)), specs[-1]))
    n, schema, gaps = len(table), list(table.columns), ["\0"] * len(specs)
    if out_format == "csv":
        sidecar = json.dumps(metadata, sort_keys=True, indent=2) + "\n"
        head, first, row, around = (",".join(cells) + "\n"
                                    for cells in (schema, firsts, specs, gaps))
        tail = ""
    else:
        # keys in sorted order; a newline opens row 0 and a comma and newline each later row
        meta, names = (json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ")
                       for v in (metadata, schema))
        head = f'{{\n  "metadata": {meta},\n  "rows": ['
        tail = "\n  " * bool(n) + f'],\n  "schema": {names}\n}}\n'
        first = "\n" + _json_row(firsts)
        row, around = (",\n" + _json_row(cells) for cells in (specs, gaps))
    rest = columns
    if n >= _ROW_BLOCK and all(isinstance(a, np.ndarray) and s != "%s" for a, _, s in arrays):
        from . import _text  # noqa: F401 - imported before the fork, so the child has it

        row, rest = tuple(around.split("\0")), arrays
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    mid = 1 + (n - 1) // 2 if _forks(n) else n
    with _child_rows(row, rest, mid, n, directory) as later:
        _write_chunks(path, chain([head], _row_blocks(first, columns, 0, min(n, 1)),
                                  _row_blocks(row, rest, 1, mid), later, [tail]))
    if out_format == "csv":
        try:
            _write_chunks(path + ".meta.json", [sidecar])
        except BaseException:
            os.remove(path)
            raise
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
    # join drops an empty base and keeps an absolute stem as it is
    return os.path.join(os.environ.get(OUT_DIR_ENV, ""), cfg["out_path"] or cfg["command"])


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
    """Run the command argv names (default sys.argv[1:]) and return its exit
    status: 0 on success and after help, 1 for an error, 2 for a bad
    command line or a usage error, 3 for an invariant violation.

    argv is parsed by _quick_flags, or by argparse when it declines; the
    command's library names are bound, and it is resolved and run, all
    inside the wall time printed on stderr.
    """
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            command, flags = _parse(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        _bind(_COMMANDS[command].uses, globals())
        cfg = _resolve(command, flags)
        tables = _COMMANDS[command](cfg)
        metadata = _metadata(cfg)
        stem, ext = _stem(cfg), cfg["out"]
        written = []
        try:
            for table in tables:
                path = f"{stem}_{table.name}.{ext}"
                written += emit_table(table, out_format=ext, path=path, metadata=metadata)
        except BaseException:
            for path in written:
                os.remove(path)
            raise
        print(*written, sep="\n")
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
    the library names of the command named by the first argument are
    bound, so their import cost falls outside main's wall time, and
    warnings are set to print one line each."""
    # A module that fails to import fails again in main, which reports it.
    with suppress(Exception):
        _bind(_COMMANDS[sys.argv[1]].uses, globals())
    warnings.showwarning = _warning_line
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
