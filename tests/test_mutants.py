"""The mutation ledger, tests/mutants.json, still applies to this tree.

``python tests/mutate.py`` runs the ledger outside tier-1.  These checks
start no pytest run: they fail when a refactor moves a mutant's text or
removes a test it names, so the entry is updated in the same commit.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))


def test_every_entry_applies_once():
    assert len({entry["id"] for entry in LEDGER}) == len(LEDGER)
    stale = [entry["id"] for entry in LEDGER
             if set(entry) != {"id", "path", "old", "new", "kills", "pr"} or not entry["kills"]
             or not entry["path"].startswith("src/") or not (ROOT / entry["path"]).is_file()
             or (ROOT / entry["path"]).read_text(encoding="utf-8").count(entry["old"]) != 1
             or entry["new"] == entry["old"]]
    assert stale == []


def test_every_node_id_names_a_test_function():
    names = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                names |= {f"tests/{path.name}::{node.name}::{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)}
            elif isinstance(node, ast.FunctionDef):
                names.add(f"tests/{path.name}::{node.name}")
    missing = [node_id for entry in LEDGER for node_id in entry["kills"]
               if node_id.partition("[")[0] not in names]
    assert missing == []
