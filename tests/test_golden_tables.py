"""Golden digests: every CLI table byte for byte, checked in process.

``golden_tables.json`` maps each command, in CSV and JSON, to its exit
status, the paths it prints, its stderr less the wall-time line, the
warnings it raises, and the SHA-256 of each file it writes.  The
``versions`` block of the metadata is cut out of each file before hashing
and compared on its own, so a numpy or Python upgrade shows as exactly
that and names the versions that differ.  Commands run at seed 0.

Refresh the manifest with::

    PYTHONPATH=src python tests/test_golden_tables.py

only in a change that moves table bytes on purpose, saying why and by how
much in CHANGES.md; a refresh never makes a failure pass.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

import pytest

from mgapprox.cli import OUT_DIR_ENV, main

MANIFEST = Path(__file__).with_name("golden_tables.json")

COMMANDS = [
    # the benchmark's workloads (prop2 --depth 6 comes with the depth range)
    "inner --kind singular --a 1 --trunc 30000",
    "cesaro --kind singular --a 1 --trunc 60000",
    "gap --kind blaschke --rule dyadic --factors 9 --trunc 16384",
    "gap --kind blaschke --rule power --alpha 2 --factors 20 --trunc 8192",
    "prop3 --K 8 --samples 4000",
    "prop3 --K 24 --samples 1000",
    # the six subcommands at their defaults
    "inner", "cesaro", "gap", "prop6", "prop3", "prop2",
    *(f"{command} --trunc {trunc}" for command in ("inner", "cesaro") for trunc in range(3)),
    "inner --kind blaschke --trunc 3000",
    *(f"prop2 --depth {depth}" for depth in range(1, 7)),
    "prop3 --K 2", "prop3 --K 8", "prop3 --K 24", "prop3 --b-rule power:0.25",
    "gap --a 700",
    # refusals: they exit 1 and write nothing
    "gap --c 1e308", "gap --a 746", "inner --kind blaschke --factors 1000000000",
]
CASES = [f"{command} --out {out}" for out in ("csv", "json") for command in COMMANDS]

_VERSIONS = re.compile(rb'"versions": (\{[^{}]*\})')


def split_versions(data: bytes) -> tuple[str, dict | None]:
    """The SHA-256 of data with its versions block emptied, and that block."""
    match = _VERSIONS.search(data)
    rest = _VERSIONS.sub(b'"versions": {}', data, count=1)
    return hashlib.sha256(rest).hexdigest(), match and json.loads(match.group(1))


def run_case(case: str) -> tuple[dict, dict]:
    """Run one command in the current directory, which must be empty; returns
    its record and the versions block each file holds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(case.split())
    files, versions = {}, {}
    for name in sorted(os.listdir()):
        files[name], versions[name] = split_versions(Path(name).read_bytes())
    record = {
        "status": status,
        "stdout": out.getvalue().splitlines(),
        "stderr": [line for line in err.getvalue().splitlines()
                   if not line.startswith("# wall_time_s=")],
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": files,
    }
    return record, versions


MANIFEST_DATA = json.loads(MANIFEST.read_text("utf-8")) if MANIFEST.exists() else {}


def test_manifest_covers_every_case():
    assert list(MANIFEST_DATA.get("cases", {})) == CASES


@pytest.mark.parametrize("case", CASES)
def test_case_matches_the_manifest(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    record, versions = run_case(case)
    expected_versions = MANIFEST_DATA["versions"]
    for name, block in versions.items():
        if block is not None and block != expected_versions:
            moved = sorted(key for key in {*block, *expected_versions}
                           if block.get(key) != expected_versions.get(key))
            pytest.fail(f"{name}: versions differ in {', '.join(moved)}: "
                        f"{block} against {expected_versions}")
    assert record == MANIFEST_DATA["cases"][case]


def refresh() -> None:
    os.environ.pop(OUT_DIR_ENV, None)
    cases, versions, home = {}, set(), os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            cases[case], blocks = run_case(case)
            os.chdir(home)
        versions.update(json.dumps(block, sort_keys=True) for block in blocks.values() if block)
    (block,) = versions
    manifest = {"versions": json.loads(block), "cases": cases}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(cases)} cases)")


if __name__ == "__main__":
    refresh()
