"""Tests of the benchmark itself.

Run from the root of a source checkout::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import gate
import run

sys.path.insert(0, str(run.ROOT / "src"))

REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))

# small commands that reach every wrapped layer
SMALL = (
    "inner --kind singular --a 1 --trunc 2000",
    "cesaro --kind singular --a 1 --trunc 3000 --out json",
    "gap --kind blaschke --rule dyadic --factors 6 --trunc 2048",
    "prop3 --K 4 --samples 300",
    "prop2 --depth 3",
)


def _bench(tmp_path: Path, seed: int = 0, reference=REFERENCE) -> run.Bench:
    return run.Bench(seed, tmp_path, reference, time.monotonic() + 600.0)


def _outputs(inv: run.Invocation) -> dict[str, bytes]:
    return {line: Path(line).read_bytes() for line in inv.stdout.split()}


def test_benchmark_json_names_what_the_driver_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(REFERENCE) == sorted({run.command_key(c) for cs in run.WORKLOADS.values()
                                        for c in cs})


def test_traced_and_untraced_runs_write_identical_tables(tmp_path):
    bench = _bench(tmp_path, reference=None)
    spans = {}
    for index, command in enumerate(SMALL):
        plain = bench.invoke(index, command, traced=False)
        traced = bench.invoke(index, command, traced=True)
        assert plain.problems == [] and traced.problems == []
        assert _outputs(traced) == _outputs(plain), command
        spans[command.split()[0]] = traced.spans
    assert all(s["spans"]["cli.main"][0] == 1 for s in spans.values())
    # 6 factors, so 5 products of order 2048
    assert spans["gap"]["spans"]["series.cauchy_product"][0] == 5
    assert spans["gap"]["counts"]["series.cauchy_product.macs"] == 5 * 2049**2
    assert spans["prop3"]["spans"]["layered_process.decode"][0] == 300
    assert spans["prop2"]["spans"]["exact_model.martingale_difference_norms"][0] == 2


def test_gate_accepts_the_reference_and_rejects_one_perturbed_coefficient(tmp_path):
    bench = _bench(tmp_path)
    command = run.WORKLOADS["tables-csv"][0]
    inv = bench.invoke(0, command, traced=False)
    bench.check(command, inv)
    assert inv.problems == []
    path = next(Path(p) for p in inv.stdout.split() if p.endswith("_series.csv"))
    ref = REFERENCE[run.command_key(command)]["series"]

    # scipy leaving the versions block, and new metadata keys, do not matter
    sidecar = Path(f"{path}.meta.json")
    meta = json.loads(sidecar.read_text())
    del meta["versions"]["scipy"]
    meta["health"] = {"tail_mass": 0.01}
    sidecar.write_text(json.dumps(meta))
    table = gate.read_table(path)
    assert gate.compare(table, ref) == []

    row = 12345
    assert row not in ref["sample_index"]
    col = table["schema"].index("a_n")
    table["rows"][row][col] *= 1.0 + 1e-6
    problems = gate.compare(table, ref)
    assert len(problems) == 1 and problems[0].startswith("a_n rows")


def test_gate_accepts_blaschke_coefficients_moved_by_8e_16(tmp_path, monkeypatch):
    import mgapprox.cli as cli
    from mgapprox.series import CoefficientSeries

    exact = cli.blaschke_product_coeffs
    rng = np.random.default_rng(0)

    def moved(spec, n):
        series = exact(spec, n)
        noise = 8e-16 * rng.choice([-1.0, 1.0], size=series.coeffs.size)
        return CoefficientSeries(series.coeffs + noise, series.tail_mass_bound, True)

    monkeypatch.setattr(cli, "blaschke_product_coeffs", moved)
    monkeypatch.setenv("MGAPPROX_OUT_DIR", str(tmp_path))
    for index, command in enumerate(run.WORKLOADS["blaschke"]):
        args = command.split() + ["--out-path", f"{index}-gap"]
        assert cli.main(args) == 0
        table = gate.read_table(tmp_path / f"{index}-gap_gap.csv")
        assert gate.compare(table, REFERENCE[command]["gap"]) == []
        table["rows"][-1][table["schema"].index("cross")] *= 1.0 + 1e-8
        assert gate.compare(table, REFERENCE[command]["gap"]) != []


def test_seed_reaches_every_command_and_ladder_passes_on_a_second_seed(tmp_path):
    bench = _bench(tmp_path, seed=7)
    for index, command in enumerate(run.WORKLOADS["ladder"]):
        inv = bench.invoke(index, command, traced=False)
        bench.check(command, inv)
        assert inv.args[inv.args.index("--seed") + 1] == "7"
        assert inv.problems == [], inv.problems
        tables = bench.tables(inv.args[-1], inv.stdout)
        for table in tables.values():
            assert table["config"]["seed"] == 7
        if "decode" in tables:
            assert gate.check_draws(tables["decode"], tables["params"], 7) == []
            assert gate.check_draws(tables["decode"], tables["params"], 8) != []


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "ladder", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
