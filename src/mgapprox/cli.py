"""Command-line driver for every experiment in the package.

Each subcommand is a thin adapter: it calls library functions on the
resolved configuration and returns their results as tables of native
Python values; main writes the tables only once all of them are computed,
so a failed command writes no file.  No numeric logic lives here.
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
from itertools import chain, product as iter_product
from typing import Callable

import numpy as np

from . import __version__
from .errors import InvariantViolation
from .exact_model import (
    ExactModel,
    decode_digit_value,
    digit_value,
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

__all__ = ["UsageError", "emit_table", "entry", "main"]

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

_OPTS: dict[str, list[Opt]] = {
    "inner": _COMMON + _SOURCE + [
        Opt("trunc", int, 1000, "truncation order (default 1000)"),
    ],
    "cesaro": _COMMON + _SOURCE + [
        Opt("trunc", int, 10000, "truncation order (default 10000)"),
    ],
    "gap": _COMMON + _SOURCE + [
        Opt("trunc", int, 10000, "truncation order (default 10000)"),
        Opt("horizons", _parse_int_list, (1, 10, 100, 1000, 10000),
            "window lengths, e.g. 1,10,100 (default 1,10,...,10^4)"),
        Opt("c", float, None, "scalar to test; omitted means the minimizer"),
    ],
    "prop6": _COMMON + [
        Opt("n-range", _parse_span, (2, 20), "dyadic levels LO..HI (default 2..20)"),
        Opt("k-max", int, 40, "zeros kept in the full product (default 40)"),
    ],
    "prop3": _COMMON + [
        Opt("K", int, 4, "number of synthesized levels (default 4)"),
        Opt("b-rule", str, "invsqrtlog",
            "floor sequence: invsqrtlog or power:<beta>"),
        Opt("samples", int, 10000, "encode/decode round trips (default 10000)"),
        Opt("search-cap", int, 10**6, "horizon search cap (default 10^6)"),
        Opt("horizons", _parse_int_list, None,
            "norm-table horizons (default: powers of 10 merged with the "
            "synthesized horizons)"),
    ],
    "prop2": _COMMON + [
        Opt("depth", int, 3, "carrier depth, 1..6 (default 3)"),
    ],
}


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
    opts = {opt.name.replace("-", "_"): opt for opt in _OPTS[command]}
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
            except UsageError:
                raise
            except ValueError as exc:
                raise UsageError(f"bad value for {key}: {file_cfg[key]!r}") from exc
        else:
            cfg[key] = opt.default
        if opt.conv is float and cfg[key] is not None and not math.isfinite(cfg[key]):
            raise UsageError(f"{key} must be finite, got {cfg[key]!r}")
    if cfg["out"] not in ("csv", "json"):
        raise UsageError(f"out must be csv or json, got {cfg['out']!r}")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgapprox",
        description="martingale-approximation experiments with deterministic outputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descr = {
        "inner": "inner-function coefficient table (n, a_n, A_n, M_n, main_term)",
        "cesaro": "partial sums and Cesaro means of a coefficient sequence",
        "gap": "window-sum gap reports for scalar martingale approximants",
        "prop6": "dyadic Blaschke midpoint bounds per level",
        "prop3": "layered-process synthesis, residual norms, decode summary",
        "prop2": "exact filtration model: increment norms and digit decoding",
    }
    for command, opts in _OPTS.items():
        p = sub.add_parser(command, help=descr[command])
        for opt in opts:
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


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_table(rows, schema, out_format: str, path: str, metadata: dict) -> list[str]:
    """Write one table plus its metadata record; returns the written paths.

    Cells must be native Python values: None, bool, int, float or str.  Any
    other type, a numpy scalar included, raises TypeError naming its column.
    CSV: header row, '.' decimal separator, floats at 17 significant
    digits, None as the empty cell, booleans as true/false; metadata goes
    to a {path}.meta.json sidecar.  JSON: one object nesting metadata, the
    schema, and a rows array.  Both renderings are byte-stable for fixed
    inputs.
    """
    rows = list(rows)
    for row in rows:
        if len(row) != len(schema):
            raise ValueError("schema does not match row width")
    if out_format not in ("csv", "json"):
        raise UsageError(f"out must be csv or json, got {out_format!r}")
    if not set(map(type, chain.from_iterable(rows))) <= _CELL_TEXT.keys():
        name, kind = next((name, type(cell)) for row in rows for name, cell in zip(schema, row)
                          if type(cell) not in _CELL_TEXT)
        raise TypeError(f"column {name!r} holds a cell of type {kind.__name__}; "
                        "cells must be None, bool, int, float or str")
    if out_format == "csv":
        lines = [",".join(schema)]
        lines += [",".join([_CELL_TEXT[type(cell)](cell) for cell in row]) for row in rows]
        _write_text(path, "\n".join(lines) + "\n")
        sidecar = path + ".meta.json"
        _write_text(sidecar, json.dumps(metadata, sort_keys=True, indent=2) + "\n")
        return [path, sidecar]
    payload = {"metadata": metadata, "schema": list(schema), "rows": rows}
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
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
#
# Each command returns its tables as (name, schema, rows) and writes nothing;
# main writes them once every table is computed.

def _table(name: str, **columns: list) -> tuple:
    """A (name, schema, rows) table zipped from equal-length named columns."""
    return name, list(columns), list(zip(*columns.values(), strict=True))


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


def _cmd_inner(cfg) -> list[tuple]:
    series = _build_series(cfg)
    profile = cesaro_profile(series)
    order = series.order
    main_term = [None] * (order + 1)
    if cfg["kind"] == "singular":
        main_term[1:] = [newman_shapiro_main_term(cfg["a"], n) for n in range(1, order + 1)]
    return [_table(
        "series",
        n=list(range(order + 1)),
        a_n=series.coeffs.tolist(),
        A_n=profile.partial_sums.tolist(),
        M_n=[None, *profile.cesaro_means.tolist()],
        main_term=main_term,
    )]


def _cmd_cesaro(cfg) -> list[tuple]:
    series = _build_series(cfg)
    profile = cesaro_profile(series)
    return [_table(
        "cesaro",
        n=list(range(1, series.order + 1)),
        partial_sum=profile.partial_sums[1:].tolist(),
        cesaro_mean=profile.cesaro_means.tolist(),
    )]


def _cmd_gap(cfg) -> list[tuple]:
    series = _build_series(cfg)
    if cfg["c"] is None:
        reports = [best_scalar_gap(series, n) for n in cfg["horizons"]]
    else:
        reports = [approximation_gap(series, cfg["c"], n) for n in cfg["horizons"]]
    schema = ["n", "c", "sum_norm_sq", "cross", "gap_sq", "c_star", "min_gap_sq"]
    return [("gap", schema, [[getattr(rep, key) for key in schema] for rep in reports])]


def _cmd_prop6(cfg) -> list[tuple]:
    lo, hi = cfg["n_range"]
    k_max = cfg["k_max"]
    if lo < 1 or hi + 1 > k_max:
        raise UsageError("need 1 <= LO and HI + 1 <= k-max")
    spec = BlaschkeSpec.dyadic(k_max)
    rows = []
    for level in range(lo, hi + 1):
        rep = dyadic_midpoint_report(level, k_max)
        zero_val = abs(blaschke_eval_radial(spec, spec.zeros[level - 1]))
        floor = rep.c_bound**2 / 64.0
        rows.append([
            level, rep.r, rep.p1, rep.p2, rep.p3, rep.p4, rep.product,
            rep.c_bound, zero_val,
            rep.p1 >= rep.c_bound, rep.p2 >= 0.125,
            rep.p3 >= 0.125, rep.p4 >= rep.c_bound,
            rep.product >= floor, zero_val == 0.0,
        ])
    schema = [
        "level", "r", "p1", "p2", "p3", "p4", "product", "c_bound",
        "value_at_zero", "p1_ok", "p2_ok", "p3_ok", "p4_ok",
        "product_ok", "zero_ok",
    ]
    return [("bounds", schema, rows)]


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


def _cmd_prop3(cfg) -> list[tuple]:
    if cfg["K"] < 2:
        raise UsageError("K must be >= 2")
    rule = _floor_rule(cfg["b_rule"])
    params = synthesize_layer_params(rule, cfg["K"], cfg["search_cap"])
    columns = {key: getattr(params, key).tolist()
               for key in ("p", "rho", "phi", "log_q", "log_r", "log_s", "b_at_phi")}
    tables = [_table("params", level=list(range(1, params.level_count + 1)), **columns)]

    phi_set = set(columns["phi"])
    if cfg["horizons"] is None:  # the derived default is echoed in the metadata
        cfg["horizons"] = tuple(sorted(set(_DECADES) | phi_set))
    rows = []
    for n in cfg["horizons"]:
        lagged = residual_norm_sq_lagged(params, n)
        natural = residual_norm_sq_natural(params, n)
        floor = n * rule(n) ** 2
        synth = n in phi_set
        rows.append([
            n, synth, lagged, natural, floor,
            lagged <= 1.0, natural >= floor if synth else None,
        ])
    schema = [
        "n", "is_synth_horizon", "lagged_sq", "natural_sq", "n_floor_sq",
        "lagged_le_one", "natural_ge_floor",
    ]
    tables.append(("norms", schema, rows))

    report = simulate_and_decode(params, cfg["samples"], cfg["seed"])
    rows = [[
        report.samples, report.recovered, report.failures, report.boundary_hits,
        ";".join(map(str, report.suppressed_levels)),
        ";".join(map(str, report.nonzero_draws)),
        report.miss_probability, report.seed,
    ]]
    schema = [
        "samples", "recovered", "failures", "boundary_hits",
        "suppressed_levels", "nonzero_draws", "miss_probability", "seed",
    ]
    tables.append(("decode", schema, rows))
    return tables


def _cmd_prop2(cfg) -> list[tuple]:
    depth = cfg["depth"]
    if not 1 <= depth <= 6:
        raise UsageError("depth must lie in 1..6")
    model = ExactModel.build(depth)
    norms = martingale_difference_norms(model)
    total = hannan_sum(model)
    analytic = math.sqrt(5.0 + sum(9.0 ** -(2 * i + 1) for i in range(1, depth + 1))) + 0.125
    projection = remote_past_projection(model)

    patterns = 0
    decode_ok = True
    band = [*range(1, depth + 1), *range(-depth, 0)]
    for signs in iter_product((-1, 1), repeat=2 * depth):
        assignment = {("e", i): s for i, s in zip(band, signs)}
        recovered = decode_digit_value(digit_value(assignment, depth), depth)
        decode_ok = decode_ok and recovered == assignment
        patterns += 1

    rows = [[
        depth, total, analytic, abs(total - analytic),
        projection.norm, projection.matches_e0, projection.matches_two_e0,
        patterns, decode_ok,
    ]]
    schema = [
        "depth", "hannan_sum", "hannan_analytic", "hannan_abs_err",
        "remote_norm", "matches_e0", "matches_two_e0",
        "decode_patterns", "decode_ok",
    ]
    return [
        ("md_norms", ["k", "norm"], [[k, norms[k]] for k in sorted(norms)]),
        ("summary", schema, rows),
    ]


_COMMANDS = {
    "inner": _cmd_inner,
    "cesaro": _cmd_cesaro,
    "gap": _cmd_gap,
    "prop6": _cmd_prop6,
    "prop3": _cmd_prop3,
    "prop2": _cmd_prop2,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        cfg = _resolve(args.command, args)
        tables = _COMMANDS[args.command](cfg)
        metadata = _metadata(cfg)
        stem, ext = _stem(cfg), cfg["out"]
        for name, schema, rows in tables:
            for path in emit_table(rows, schema, ext, f"{stem}_{name}.{ext}", metadata):
                print(path)
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
