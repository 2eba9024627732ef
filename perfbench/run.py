"""End-to-end and per-layer benchmark of the mgapprox command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: each workload is a fixed sequence of
``mgapprox`` invocations, each in a fresh interpreter, one child process at
a time.  A pass is one run of the sequence.  After one discarded warm-up
pass, passes repeat until the next one would end past ``--seconds`` (at least
``MIN_PASSES`` of them).  With ``--trace 1`` each round is an untraced pass,
a pass run through ``perfbench/tracer.py`` and one ``-X importtime`` probe;
per-layer metrics are medians over rounds.  Every table written is checked
by ``gate.py`` against ``reference.json``; any miss counts as a failed
invocation.

Output: a readable report, then as the last line one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOADS = {
    "tables-csv": (
        "inner --kind singular --a 1 --trunc 30000",
        "cesaro --kind singular --a 1 --trunc 60000",
    ),
    "tables-json": (
        "inner --kind singular --a 1 --trunc 30000 --out json",
        "cesaro --kind singular --a 1 --trunc 60000 --out json",
    ),
    "blaschke": (
        "gap --kind blaschke --rule dyadic --factors 9 --trunc 16384",
        "gap --kind blaschke --rule power --alpha 2 --factors 20 --trunc 8192",
    ),
    "ladder": (
        "prop3 --K 8 --samples 4000",
        "prop3 --K 24 --samples 1000",
        "prop2 --depth 6",
    ),
}

END_TO_END = {
    "session_s": "s",
    "setup_s": "s",
    "compute_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("cli", "inner", "series", "linear_process", "layered_process", "exact_model", "rng")

# Names ending in .calls, .s / _s and .self_s read the span named by the
# prefix (call count, total time, self time); other names are counters or
# are computed in _layer_values.
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.mpmath_s": "s",
    "import.mgapprox_s": "s",
    "import.total_s": "s",
    "cli.main.self_s": "s",
    "cli.emit_table.csv_s": "s",
    "cli.emit_table.json_s": "s",
    "cli.rows": "count",
    "cli.out_bytes": "bytes",
    "inner.singular_inner_coeffs.s": "s",
    "inner.newman_shapiro_main_term.calls": "count",
    "inner.newman_shapiro_main_term.s": "s",
    "inner.blaschke_product_coeffs.s": "s",
    "inner.blaschke_factor_coeffs.calls": "count",
    "inner.resolution_warnings": "count",
    "series.cauchy_product.calls": "count",
    "series.cauchy_product.s": "s",
    "series.cauchy_product.macs": "count",
    "series.cesaro_profile.s": "s",
    "linear_process.best_scalar_gap.calls": "count",
    "linear_process.best_scalar_gap.s": "s",
    "layered_process.synthesize_layer_params.s": "s",
    "layered_process.decoding_table.s": "s",
    "layered_process.LayerCodec.init_s": "s",
    "layered_process.LayerCodec.dps": "digits",
    "layered_process.encode.calls": "count",
    "layered_process.encode.s": "s",
    "layered_process.decode.calls": "count",
    "layered_process.decode.s": "s",
    "layered_process.decode.distinct_ratio": "ratio",
    "layered_process.simulate_and_decode.self_s": "s",
    "rng.substream.calls": "count",
    "rng.substream.s": "s",
    "exact_model.build.s": "s",
    "exact_model.conditional_expectation.calls": "count",
    "exact_model.conditional_expectation.s": "s",
    "exact_model.conditional_expectation.atoms": "count",
    "exact_model.martingale_difference_norms.calls": "count",
    "exact_model.digit_codec.s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}

IMPORT_PACKAGES = ("numpy", "scipy", "mpmath", "mgapprox")
MIN_PASSES = 3
MIN_ROUNDS = 2
# every child must end before this many seconds into the run
RUN_LIMIT_S = 170.0

_WALL = re.compile(r"^# wall_time_s=([0-9.]+)$", re.M)


class Timeout(Exception):
    """A child process outlived the run's time limit."""


def _on_alarm(signum, frame):
    raise Timeout


def _on_term(signum, frame):
    # unwinds through Bench.spawn, which kills and reaps the running child
    raise SystemExit(128 + signum)


@dataclass
class Invocation:
    args: list[str]
    status: int
    wall_s: float
    maxrss_kb: int
    stdout: str = ""
    cli_s: float | None = None
    problems: list[str] = field(default_factory=list)
    spans: dict | None = None


@dataclass
class Pass:
    session_s: float
    invocations: list[Invocation]

    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.problems)


def command_key(command: str) -> str:
    """Reference key of a command: its arguments without the output format."""
    words = command.split()
    if "--out" in words:
        i = words.index("--out")
        del words[i : i + 2]
    return " ".join(words)


class Bench:
    """Children, output directory and correctness gate of one benchmark run."""

    def __init__(self, seed: int, workdir: Path, reference: dict | None, deadline: float):
        self.seed = seed
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.out_dir.mkdir()
        self.reference = reference
        self.deadline = deadline
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.env = {**os.environ, "PYTHONPATH": pythonpath, "MGAPPROX_OUT_DIR": str(self.out_dir)}
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.signal(signal.SIGTERM, _on_term)

    def spawn(self, argv: list[str], tag: str) -> tuple[int, float, int, str, str]:
        """Run one child to completion; returns exit code, wall seconds,
        peak RSS in KiB, stdout and stderr."""
        out, err = self.workdir / f"{tag}.out", self.workdir / f"{tag}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Timeout
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        reaped = False
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        wall = time.perf_counter() - start
        return (os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss,
                out.read_text(encoding="utf-8", errors="replace"),
                err.read_text(encoding="utf-8", errors="replace"))

    def invoke(self, index: int, command: str, traced: bool) -> Invocation:
        args = command.split()
        args += ["--seed", str(self.seed), "--out-path", f"{index}-{args[0]}"]
        if traced:
            spans_path = self.workdir / f"{index}.spans.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "mgapprox.cli", *args]
        status, wall, rss, stdout, stderr = self.spawn(argv, str(index))
        inv = Invocation(args, status, wall, rss, stdout)
        match = _WALL.search(stderr)
        if match:
            inv.cli_s = float(match.group(1))
        if status != 0:
            inv.problems.append(f"exit status {status}: {stderr.strip()[-500:]}")
        elif inv.cli_s is None:
            inv.problems.append("no wall_time_s line on stderr")
        if traced and status == 0:
            inv.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return inv

    def tables(self, stem: str, stdout: str) -> dict[str, dict]:
        """Tables an invocation reports on stdout, by table name."""
        tables = {}
        for line in stdout.splitlines():
            path = Path(line.strip())
            if path.suffix in (".csv", ".json") and not line.endswith(".meta.json"):
                tables[path.stem[len(stem) + 1 :]] = gate.read_table(path)
        return tables

    def check(self, command: str, inv: Invocation) -> None:
        """Add to ``inv.problems`` every gate miss in the tables it wrote."""
        if inv.status != 0:
            return
        problems = inv.problems
        tables = self.tables(inv.args[-1], inv.stdout)
        for name, ref in self.reference[command_key(command)].items():
            if name not in tables:
                problems.append(f"table {name} not written")
                continue
            problems += [f"{name}: {p}" for p in gate.compare(tables[name], ref)]
            problems += [f"{name}: {p}" for p in gate.self_checks(tables[name])]
        if "decode" in tables and "params" in tables:
            problems += gate.check_draws(tables["decode"], tables["params"], self.seed)

    def run_pass(self, workload: str, traced: bool = False) -> Pass:
        """Run the workload's commands back to back, then check their tables;
        only the commands are timed."""
        commands = WORKLOADS[workload]
        invocations = []
        try:
            start = time.perf_counter()
            for index, command in enumerate(commands):
                invocations.append(self.invoke(index, command, traced))
            session = time.perf_counter() - start
            for command, inv in zip(commands, invocations):
                self.check(command, inv)
        finally:
            shutil.rmtree(self.out_dir)
            self.out_dir.mkdir()
        return Pass(session, invocations)

    def import_times(self) -> dict[str, float]:
        """Seconds of import work per package, from ``-X importtime`` self times."""
        argv = [sys.executable, "-X", "importtime", "-c", "import mgapprox.cli"]
        status, _, _, _, stderr = self.spawn(argv, "importtime")
        if status != 0:
            raise RuntimeError(f"import probe failed: {stderr.strip()[-500:]}")
        times = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        total = 0.0
        for line in stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:  # the column header
                continue
            total += self_us
            package = parts[2].strip().split(".")[0]
            if package in times:
                times[package] += self_us
        return {**{f"import.{k}_s": v / 1e6 for k, v in times.items()}, "import.total_s": total / 1e6}


# ---------------------------------------------------------------------------
# metrics

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _compute(p: Pass) -> float:
    return sum(inv.cli_s or 0.0 for inv in p.invocations)


def e2e_samples(passes: list[Pass]) -> dict[str, list[float]]:
    """Samples behind each end-to-end metric: one per pass, or one per
    invocation for setup_s."""
    return {
        "session_s": [p.session_s for p in passes],
        "setup_s": [inv.wall_s - inv.cli_s for p in passes for inv in p.invocations
                    if inv.cli_s is not None],
        "compute_s": [_compute(p) for p in passes],
        "peak_rss_mb": [max(inv.maxrss_kb for inv in p.invocations) / 1024 for p in passes],
    }


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    return {name: _median(values) for name, values in e2e_samples(passes).items()}


def merge_spans(p: Pass) -> dict:
    """Span aggregates and counters summed over the invocations of a traced pass."""
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    patterns = dps = 0
    for inv in p.invocations:
        if inv.spans is None:
            continue
        for name, (calls, total, self_s) in inv.spans["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in inv.spans["counts"].items():
            counts[name] = counts.get(name, 0) + value
        patterns += inv.spans["patterns"]
        dps = max(dps, inv.spans["dps"])
    return {"spans": spans, "counts": counts, "patterns": patterns, "dps": dps}


def _layer_values(merged: dict) -> dict[str, float]:
    spans, counts = merged["spans"], merged["counts"]

    def span(name: str, slot: int) -> float:
        return spans.get(name, (0, 0.0, 0.0))[slot]

    values = {}
    for name in PER_LAYER:
        if name in counts or name.endswith(".errors"):
            values[name] = counts.get(name, 0)
        elif name.endswith(".calls"):
            values[name] = span(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = span(name[: -len(".self_s")], 2)
        elif name.endswith((".s", "_s")) and not name.startswith(("import.", "trace.")):
            values[name] = span(name[:-2], 1)
        else:
            values[name] = 0
    decodes = span("layered_process.decode", 0)
    values["layered_process.decode.distinct_ratio"] = merged["patterns"] / decodes if decodes else 0.0
    values["layered_process.LayerCodec.dps"] = merged["dps"]
    return values


def per_layer(untraced: list[Pass], traced: list[Pass], imports: list[dict]) -> dict[str, float]:
    rounds = [_layer_values(merge_spans(p)) for p in traced]
    metrics = {name: _median(r[name] for r in rounds) for name in rounds[0]}
    for name in imports[0]:
        metrics[name] = _median(probe[name] for probe in imports)
    metrics["trace.overhead_s"] = (_median(_compute(p) for p in traced)
                                   - _median(_compute(p) for p in untraced))
    return metrics


def self_time_shares(traced: list[Pass]) -> list[tuple[str, float]]:
    """Share of traced compute time spent in each span's own code, all rounds pooled."""
    own: dict[str, float] = {}
    for p in traced:
        for name, rec in merge_spans(p)["spans"].items():
            own[name] = own.get(name, 0.0) + rec[2]
    total = sum(own.values()) or 1.0
    return sorted(((name, t / total) for name, t in own.items()), key=lambda kv: -kv[1])


# ---------------------------------------------------------------------------
# environment and report

def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **versions,
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g} n {len(values)}"


def report(args, env, passes, traced, metrics, attempted, failed, notes) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"closed loop, 1 client, {len(passes)} untraced pass(es) of "
          f"{len(WORKLOADS[args.workload])} invocation(s), {len(traced)} traced")
    samples = e2e_samples(passes)
    for name, unit in END_TO_END.items():
        print(f"  {name:<46} {_median(samples[name]):>14.6g} {unit:<7} {_spread(samples[name])}")
    print(f"  {'failed_ops':<46} {failed / max(attempted, 1):>14.6g} share   "
          f"{failed} of {attempted} invocations")
    if traced:
        print(f"per layer (medians over {len(traced)} traced round(s)):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<46} {metrics[name]:>14.6g} {unit}")
        print("self-time share of traced compute, top spans:")
        for name, share in self_time_shares(traced)[:8]:
            print(f"  {name:<46} {share:>8.1%}")
    for note in notes:
        print(f"FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mgapprox" / "cli.py").is_file():
        print(f"perfbench: no mgapprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    env = environment()
    deadline = time.monotonic() + RUN_LIMIT_S

    passes: list[Pass] = []
    traced: list[Pass] = []
    imports: list[dict] = []
    notes: list[str] = []
    attempted = failed = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(args.seed, Path(tmp), reference, deadline)

        def measured(p: Pass) -> Pass:
            nonlocal attempted, failed
            attempted += len(p.invocations)
            failed += p.failed()
            notes.extend(f"{' '.join(inv.args)}: {problem}"
                         for inv in p.invocations for problem in inv.problems[:5])
            return p

        try:
            measured(bench.run_pass(args.workload))  # warm-up, discarded
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                passes.append(measured(bench.run_pass(args.workload)))
                if args.trace:
                    traced.append(measured(bench.run_pass(args.workload, traced=True)))
                    imports.append(bench.import_times())
                last = time.perf_counter() - round_start
                enough = len(traced) >= MIN_ROUNDS if args.trace else len(passes) >= MIN_PASSES
                if enough and time.perf_counter() - start + last > args.seconds:
                    break
        except Timeout:
            attempted += 1
            failed += 1
            notes.append(f"a child was still running {RUN_LIMIT_S:.0f} s into the run")

    if not passes or (args.trace and not traced):
        print("perfbench: no complete pass; " + "; ".join(notes), file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(passes, traced, imports)
        units = PER_LAYER
    else:
        metrics = end_to_end(passes)
        units = END_TO_END
    report(args, env, passes, traced, metrics, attempted, failed, notes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
