"""The reference scorer against the package, where the two must agree.

``tests/oracles.py`` is only a reference if it does not call what it checks:
the scan reads it with ``ast`` and imports nothing. The brace case is a
review whose braces, one of them inside a trigger string, would end a block
early for a scan that does not track JSON strings.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from eotbench.cli import EXIT_OK, main
from eotbench.prompting import PROMPT_VERSION
from conftest import ledger_entry
from oracles import oracle_score

ORACLES = Path(__file__).resolve().parent / "oracles.py"

# the package functions an oracle is the reference for
REFERENCED = {
    "tokenize", "tokenize_with_spans", "count_tokens", "rouge1", "rougeL", "score_predictions", "parse_output",
    "strata_in_order", "stratified_review_sample", "allocate_proportional", "stratum_key",
    "aggregate_gold", "resolve_overlaps",
}


def test_the_oracles_use_none_of_the_functions_they_check():
    """Neither imported by name nor read off an imported module; and nothing
    from ``eotbench.metrics``, whose reports the oracles restate as plain dicts."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    imported = {}  # bound name -> the name imported
    dotted = []  # every module and name imported, as a dotted path
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update({alias.asname or alias.name: alias.name for alias in node.names})
            if isinstance(node, ast.ImportFrom):
                dotted += [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                dotted += [alias.name for alias in node.names]
    assert [d for d in dotted if d == "eotbench.metrics" or d.startswith("eotbench.metrics.")] == []
    used = set(imported.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
            used.add(node.attr)
    assert sorted(used & REFERENCED) == []


BRACE_TEXT = "The lid {snaps} shut and I love it."
BRACE_REPLY = json.dumps({"emotions": [{"emotion": "Joy", "triggers": ["I love it", "lid {snaps"]}]})
BRACE_GOLD = {"Joy": ["I love it"]}


def _score_row(tmp_path: Path) -> dict[str, float]:
    """The metrics row ``eotbench score`` writes for a one-review run of the brace case."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"review_id": "b1", "text": BRACE_TEXT, "domain": "Home", "item_id": "lid"}) + "\n")
    gold = tmp_path / "gold.jsonl"
    emotions = [{"emotion": label, "triggers": texts} for label, texts in BRACE_GOLD.items()]
    gold.write_text(json.dumps({"review_id": "b1", "emotions": emotions}) + "\n")
    run_dir = tmp_path / "runs" / "r"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(json.dumps({
        "run_id": "r", "corpus": str(corpus), "strategy": "zs", "profile": "mock", "prompt_version": PROMPT_VERSION,
    }))
    (run_dir / "ledger").write_text(json.dumps(ledger_entry("b1", BRACE_REPLY)) + "\n")
    assert main(["score", "--run-id", "r", "--gold", str(gold), "--runs-dir", str(tmp_path / "runs")]) == EXIT_OK
    scores = json.loads((run_dir / "scores.json").read_text(encoding="utf-8"))
    emotion, trigger = scores["emotion"], scores["trigger"]
    return {
        "P": emotion["precision"], "R": emotion["recall"], "F1": emotion["f1"],
        "EM": trigger["exact_match"], "PM": trigger["partial_match"],
        "R1": trigger["rouge1"], "RL": trigger["rougeL"],
    }


def test_a_brace_inside_a_trigger_scores_as_score_writes_it(tmp_path):
    row = oracle_score({"b1": BRACE_TEXT}, {"b1": BRACE_GOLD}, {"b1": BRACE_REPLY})
    assert row == {"P": 1.0, "R": 1.0, "F1": 1.0, "EM": 0.5, "PM": 0.0, "R1": 1.0, "RL": 1.0}
    assert row == _score_row(tmp_path)
