"""Correctness gate for the tables the benchmark's CLI invocations write.

A table passes when it matches its reference fingerprint and the program's
own checks hold.  Fingerprints compare values, not bytes:

* the metadata ``config`` block must agree key by key for every key the
  reference records, except ``seed`` and ``out``; every other metadata key
  (library ``versions``, health fields) is ignored;
* every reference column must be present with the same number of rows;
  columns the reference does not know are ignored;
* up to ``SAMPLE_ROWS`` rows, evenly spaced, compare cell by cell (all rows
  of a small table);
* each numeric column is cut into up to ``BLOCKS`` contiguous blocks whose
  exact sums (``math.fsum``) are compared.

A number passes when |new - ref| <= RTOL * scale + ATOL, where scale is
|ref| for a cell and the block's reference sum of |values| for a block sum
(ATOL then counts once per row in the block).  RTOL = 1e-10 sits two orders
above the largest relative change (8e-13) that the O(nK) Blaschke
recurrence causes in the ``gap`` tables, and one coefficient of the
``inner`` table perturbed by one part in 10^6 moves its block sum by more
than ten times the block tolerance.

Columns whose values depend on the draws (``DRAW_COLUMNS``) are left out of
the fingerprint and checked instead by recounting the draws from the
documented ``(seed, index)`` substream contract.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

RTOL = 1e-10
ATOL = 1e-15
SAMPLE_ROWS = 64
BLOCKS = 64

# per table name: columns that vary with --seed
DRAW_COLUMNS = {"decode": ("nonzero_draws", "seed")}
# config keys allowed to differ from the reference
FREE_CONFIG = ("seed", "out")


# ---------------------------------------------------------------------------
# reading tables

def _csv_cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: Path) -> dict:
    """Schema, rows and metadata config of one CSV (plus sidecar) or JSON table."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            schema = next(reader)
            rows = [[_csv_cell(cell) for cell in row] for row in reader]
        with open(f"{path}.meta.json", encoding="utf-8") as fh:
            metadata = json.load(fh)
    elif path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        schema, rows, metadata = payload["schema"], payload["rows"], payload["metadata"]
    else:
        raise ValueError(f"not a table: {path}")
    return {"schema": schema, "rows": rows, "config": metadata["config"]}


# ---------------------------------------------------------------------------
# fingerprints

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sample_index(n_rows: int) -> list[int]:
    if n_rows <= SAMPLE_ROWS:
        return list(range(n_rows))
    return sorted({round(i * (n_rows - 1) / (SAMPLE_ROWS - 1)) for i in range(SAMPLE_ROWS)})


def _block_edges(n_rows: int) -> list[int]:
    blocks = min(BLOCKS, n_rows)
    return [i * n_rows // blocks for i in range(blocks + 1)]


def fingerprint(table: dict, name: str) -> dict:
    """Reference record of one table: config, schema, sampled rows, block sums."""
    skip = DRAW_COLUMNS.get(name, ())
    columns = [col for col in table["schema"] if col not in skip]
    pos = [table["schema"].index(col) for col in columns]
    rows = table["rows"]
    index = _sample_index(len(rows))
    edges = _block_edges(len(rows))
    blocks = {}
    for col, j in zip(columns, pos):
        values = [row[j] for row in rows]
        if not all(v is None or _is_number(v) for v in values):
            continue
        values = [0.0 if v is None else float(v) for v in values]
        blocks[col] = {
            "sum": [math.fsum(values[a:b]) for a, b in zip(edges, edges[1:])],
            "abs": [math.fsum(map(abs, values[a:b])) for a, b in zip(edges, edges[1:])],
        }
    config = {k: v for k, v in table["config"].items() if k not in FREE_CONFIG}
    return {
        "config": config,
        "columns": columns,
        "n_rows": len(rows),
        "sample_index": index,
        "sample_rows": [[rows[i][j] for j in pos] for i in index],
        "blocks": blocks,
    }


def _close(new: float, ref: float, scale: float, atol: float) -> bool:
    return abs(new - ref) <= RTOL * scale + atol


def _same_cell(new, ref) -> bool:
    if _is_number(new) and _is_number(ref):
        return _close(float(new), float(ref), abs(float(ref)), ATOL)
    if isinstance(new, str) or isinstance(ref, str):
        # a CSV cell such as "5" in a ';'-joined column reads back as a number
        return str(new) == str(ref)
    return type(new) is type(ref) and new == ref


def compare(table: dict, ref: dict) -> list[str]:
    """Mismatches of a table against its reference fingerprint."""
    problems = []
    for key, value in ref["config"].items():
        if table["config"].get(key) != value:
            problems.append(f"config {key}={table['config'].get(key)!r}, reference {value!r}")
    missing = [col for col in ref["columns"] if col not in table["schema"]]
    if missing:
        return problems + [f"missing columns {missing}"]
    rows = table["rows"]
    if len(rows) != ref["n_rows"]:
        return problems + [f"{len(rows)} rows, reference {ref['n_rows']}"]
    pos = [table["schema"].index(col) for col in ref["columns"]]
    for i, ref_row in zip(ref["sample_index"], ref["sample_rows"]):
        for col, j, ref_cell in zip(ref["columns"], pos, ref_row):
            if not _same_cell(rows[i][j], ref_cell):
                problems.append(f"row {i} {col}={rows[i][j]!r}, reference {ref_cell!r}")
    edges = _block_edges(len(rows))
    for col, sums in ref["blocks"].items():
        j = table["schema"].index(col)
        values = [row[j] for row in rows]
        if not all(v is None or _is_number(v) for v in values):
            problems.append(f"column {col} is no longer numeric")
            continue
        values = [0.0 if v is None else float(v) for v in values]
        for a, b, ref_sum, ref_abs in zip(edges, edges[1:], sums["sum"], sums["abs"]):
            got = math.fsum(values[a:b])
            if not _close(got, ref_sum, ref_abs, ATOL * (b - a)):
                problems.append(f"{col} rows {a}..{b - 1} sum {got!r}, reference {ref_sum!r}")
    return problems


# ---------------------------------------------------------------------------
# the program's own checks

def _column(table: dict, name: str) -> list:
    j = table["schema"].index(name)
    return [row[j] for row in table["rows"]]


def self_checks(table: dict) -> list[str]:
    """Failed program checks: *_ok, lagged_le_one and natural_ge_floor flags,
    and full recovery in a decode summary."""
    problems = []
    for col in table["schema"]:
        if col.endswith("_ok") or col in ("lagged_le_one", "natural_ge_floor"):
            bad = [v for v in _column(table, col) if v is not None and v is not True]
            if bad:
                problems.append(f"{col} is false in {len(bad)} row(s)")
    if "recovered" in table["schema"]:
        for row in table["rows"]:
            rec = dict(zip(table["schema"], row))
            if rec["recovered"] != rec["samples"]:
                problems.append(f"recovered {rec['recovered']} of {rec['samples']}")
            if rec["failures"] != 0 or rec["boundary_hits"] != 0:
                problems.append(
                    f"failures={rec['failures']} boundary_hits={rec['boundary_hits']}"
                )
    return problems


@functools.lru_cache(maxsize=8)
def expected_draws(log_q: tuple[float, ...], live: tuple[int, ...], samples: int,
                   seed: int) -> tuple[int, ...]:
    """Nonzero level outcomes per level, recounted from the substream contract:
    sample i draws from default_rng(SeedSequence((seed, i))), levels ascending,
    E before D, and a live level fires when a uniform draw is below 1/q^2."""
    import numpy as np

    counts = [0] * len(log_q)
    fire = {lvl: math.exp(-2.0 * log_q[lvl - 1]) for lvl in live}
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed & (2**64 - 1), i)))
        for lvl in live:
            counts[lvl - 1] += (rng.random() < fire[lvl]) + (rng.random() < fire[lvl])
    return tuple(counts)


def check_draws(decode: dict, params: dict, seed: int) -> list[str]:
    """Seed-dependent decode columns: the seed echo and the per-level draw counts."""
    problems = []
    rec = dict(zip(decode["schema"], decode["rows"][0]))
    if rec["seed"] != seed:
        problems.append(f"decode seed {rec['seed']!r}, expected {seed}")
    suppressed = {int(s) for s in str(rec["suppressed_levels"] or "").split(";") if s}
    log_q = tuple(float(v) for v in _column(params, "log_q"))
    live = tuple(lvl for lvl in range(1, len(log_q) + 1) if lvl not in suppressed)
    want = expected_draws(log_q, live, int(rec["samples"]), seed)
    got = tuple(int(s) for s in str(rec["nonzero_draws"]).split(";"))
    if got != want:
        problems.append(f"nonzero_draws {got}, recount {want}")
    return problems
