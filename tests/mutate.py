"""Run the mutation ledger, ``tests/mutants.json``, on the committed tree.

Each ledger entry replaces one text, ``old``, which occurs exactly once in
a file under ``src/``, by ``new``, and names in ``kills`` the pytest node
ids expected to fail on the result.  The runner copies ``HEAD`` with
``git archive`` into a fresh temporary directory per mutant, so it never
writes to the working tree, applies the replacement there and runs only
the entry's node ids.  A mutant is killed when every node id it lists
fails (a listed test function stands for all of its parametrized cases,
one failing case being enough), survived when one of them passes, and
timed out when the run outlasts ``TIMEOUT``.  Each run is its own process
group, and the whole group is killed when the run ends, so a mutant whose
forked child returns into pytest cannot hang the ledger.

Before the mutants, the union of their node ids runs on the unmutated
tree and must exit 0, so no kill is a test that fails anyway or a node id
that names no test.

    python tests/mutate.py            # every entry
    python tests/mutate.py ID [ID..]  # the named entries

The exit status is 0 when every entry run is killed, 2 for an unknown id,
else 1.  pytest does
not collect this file; ``tests/test_mutants.py`` checks, in tier-1, that
each entry still applies to the tree it sits in.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = "tests/mutants.json"
TIMEOUT = 300.0  # seconds per run of pytest


def committed_tree() -> bytes:
    """HEAD as a tar archive."""
    return subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
                          capture_output=True, check=True).stdout


def unpack(tree: bytes, directory: str) -> None:
    subprocess.run(["tar", "-x", "-C", directory], input=tree, check=True)


def pytest(directory: str, node_ids: list[str]) -> tuple[int | None, set[str]]:
    """Run node_ids in directory in a new process group: pytest's exit
    status, None if it timed out, and the node ids it reports as failed or
    in error."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE",
               "--tb=no", "--hypothesis-seed=0", "--continue-on-collection-errors", *node_ids]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(command, cwd=directory, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        # pytest may have exited while a child it forked holds the pipe
        status = proc.poll()
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    failed = set()
    for line in out.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ", 1)[0])
    return status, failed


def fails(node_id: str, failed: set[str]) -> bool:
    """Whether node_id, one of its parametrized cases, or its whole file
    (a collection error) is among the failed ids."""
    return any(f == node_id or f.startswith(node_id + "[") or node_id.startswith(f + "::")
               for f in failed)


def run_mutant(entry: dict, tree: bytes) -> tuple[str, list[str]]:
    """The mutant's verdict, and the listed node ids that did not fail."""
    with tempfile.TemporaryDirectory(prefix="mgapprox-mutant-") as directory:
        unpack(tree, directory)
        target = Path(directory, entry["path"])
        text = target.read_text(encoding="utf-8")
        if text.count(entry["old"]) != 1:
            return "stale", []
        target.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")
        status, failed = pytest(directory, entry["kills"])
    passed = [node_id for node_id in entry["kills"] if not fails(node_id, failed)]
    if status is None:
        return "timed out", passed
    return ("survived" if passed else "killed"), passed


def main(ids: list[str]) -> int:
    tree = committed_tree()
    ledger = json.loads(subprocess.run(["git", "-C", str(ROOT), "show", f"HEAD:{LEDGER}"],
                                       capture_output=True, check=True).stdout)
    by_id = {entry["id"]: entry for entry in ledger}
    unknown = [mutant for mutant in ids if mutant not in by_id]
    if unknown:
        print(f"no such mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    entries = [by_id[mutant] for mutant in ids] if ids else ledger
    started = time.monotonic()

    node_ids = sorted({node_id for entry in entries for node_id in entry["kills"]})
    with tempfile.TemporaryDirectory(prefix="mgapprox-unmutated-") as directory:
        unpack(tree, directory)
        status, failed = pytest(directory, node_ids)
    print(f"unmutated  {time.monotonic() - started:6.1f}s  {len(node_ids)} node ids, "
          f"pytest exit status {status}", flush=True)
    if status != 0:
        for node_id in sorted(failed):
            print(f"    fails unmutated: {node_id}")
        return 1

    verdicts = {}
    for entry in entries:
        start = time.monotonic()
        verdict, passed = run_mutant(entry, tree)
        verdicts[entry["id"]] = verdict
        print(f"{verdict:<10} {time.monotonic() - start:6.1f}s  {entry['id']}", flush=True)
        for node_id in passed:
            print(f"    passed: {node_id}")
    alive = [mutant for mutant, verdict in verdicts.items() if verdict != "killed"]
    print(f"{len(verdicts) - len(alive)} of {len(verdicts)} killed in "
          f"{time.monotonic() - started:.0f}s")
    if alive:
        print("not killed:", ", ".join(alive))
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
