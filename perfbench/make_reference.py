"""Write reference.json: fingerprints of every workload table at seed 0.

Usage, from the root of a source checkout::

    python3 perfbench/make_reference.py

Run it only at a commit whose tables are known to be right; the gate then
holds later commits to them.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import gate
from run import REFERENCE, ROOT, WORKLOADS, Bench, command_key


def main() -> int:
    reference: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(0, Path(tmp), None, time.monotonic() + 3600.0)
        for commands in WORKLOADS.values():
            for index, command in enumerate(commands):
                key = command_key(command)
                if key in reference:
                    continue
                inv = bench.invoke(index, command, traced=False)
                if inv.problems:
                    print(f"{command}: {inv.problems}", file=sys.stderr)
                    return 1
                tables = bench.tables(inv.args[-1], inv.stdout)
                reference[key] = {name: gate.fingerprint(table, name)
                                  for name, table in sorted(tables.items())}
                for name, table in tables.items():
                    problems = gate.self_checks(table)
                    if problems:
                        print(f"{command} {name}: {problems}", file=sys.stderr)
                        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}: {len(reference)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
