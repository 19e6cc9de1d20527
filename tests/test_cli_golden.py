"""Byte-for-byte snapshots of what the CLI writes.

Every output is produced once from fixed inputs and compared with its file
under ``tests/golden/cli``: the ``score`` and ``report`` tables and CSVs,
``parsed`` and ``scores.json`` on the hand-scored fixture, ``stats`` on the
hand-scored gold, ``aggregate`` and ``agreement`` on a small three-annotator
set, and the ``sample`` output with its manifest on the corpus and plan in
``tests/data/sample``. A ledger line's key order
is pinned as well. After a deliberate format change, refresh the snapshots
with ``python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import DATA_DIR, GOLDEN_DIR, src_env
from eotbench.cli import EXIT_OK, main
from eotbench.jsonio import write_jsonl
from mock_provider import MockProviderServer

CLI_GOLDEN_DIR = GOLDEN_DIR / "cli"
HANDSCORED = DATA_DIR / "handscored"
SAMPLE_INPUTS = DATA_DIR / "sample"  # a corpus and a plan for `sample`

LEDGER_KEYS = [
    "run_id",
    "review_id",
    "strategy",
    "prompt_version",
    "raw_response",
    "latency_ms",
    "attempt_count",
    "status",
    "error",
]

AGREEMENT_CORPUS = [
    {"review_id": "a1", "text": "I am very happy with this cream.", "domain": "Beauty",
     "item_id": "b1"},
    {"review_id": "a2", "text": "The soup was cold and the waiter was rude.", "domain": "Yelp",
     "item_id": "y1"},
    {"review_id": "a3", "text": "It arrived early, what a surprise!", "domain": "Home",
     "item_id": "h1"},
    {"review_id": "a4", "text": "Plain socks, nothing more.", "domain": "Clothing",
     "item_id": "c1"},
]

AGREEMENT_LABELS = {
    "a1": {
        "A1": [{"emotion": "Joy", "triggers": ["very happy"]}],
        "A2": [{"emotion": "Joy", "triggers": ["very happy with this cream"]}],
        "A3": [{"emotion": "Joy", "triggers": ["happy"]},
               {"emotion": "Trust", "triggers": ["this cream"]}],
    },
    "a2": {
        "A1": [{"emotion": "Disgust", "triggers": ["soup was cold"]},
               {"emotion": "Anger", "triggers": ["waiter was rude"]}],
        "A2": [{"emotion": "Anger", "triggers": ["the waiter was rude"]}],
        "A3": [{"emotion": "Sadness", "triggers": ["The soup was cold"]}],
    },
    "a3": {
        "A1": [{"emotion": "Surprise", "triggers": ["what a surprise"]}],
        "A2": [{"emotion": "Surprise", "triggers": ["arrived early"]}],
        "A3": [{"emotion": "Joy", "triggers": ["arrived early"]}],
    },
    "a4": {
        "A1": [{"emotion": "Neutral", "triggers": []}],
        "A2": [{"emotion": "Neutral", "triggers": []}],
        "A3": [{"emotion": "Trust", "triggers": ["Plain socks"]}],
    },
}

# golden file name -> path of the output under the work directory
OUTPUTS = {
    "score.txt": "score.txt",
    "score.csv": "score.csv",
    "report.txt": "report.txt",
    "report.csv": "report.csv",
    "parsed.jsonl": "runs/fixture-run/parsed",
    "scores.json": "runs/fixture-run/scores.json",
    "stats.txt": "stats.txt",
    "stats.csv": "stats.csv",
    "aggregate.jsonl": "aggregate.jsonl",
    "agreement.txt": "agreement.txt",
    "agreement.csv": "agreement.csv",
    "sample.jsonl": "sample.jsonl",
    "sample.manifest.json": "sample.jsonl.manifest.json",
}


def _run(*argv: str) -> None:
    assert main(list(argv)) == EXIT_OK, argv


def write_agreement_inputs(work: Path) -> tuple[Path, Path]:
    """Write the three-annotator corpus and annotations; return their paths."""
    corpus = work / "agreement-corpus.jsonl"
    annotations = work / "annotations.jsonl"
    write_jsonl(corpus, AGREEMENT_CORPUS)
    write_jsonl(annotations, (
        {"review_id": review_id, "annotator_id": annotator, "emotions": emotions}
        for review_id, by_annotator in AGREEMENT_LABELS.items()
        for annotator, emotions in by_annotator.items()
    ))
    return corpus, annotations


def produce_outputs(work: Path) -> None:
    """Run every command whose output is pinned, writing into ``work``."""
    reviews = HANDSCORED / "reviews.jsonl"
    gold = str(HANDSCORED / "gold.jsonl")
    texts = {
        json.loads(line)["review_id"]: json.loads(line)["text"]
        for line in reviews.read_text(encoding="utf-8").splitlines()
    }
    by_text = {
        texts[obj["review_id"]]: obj["raw_response"]
        for obj in map(json.loads, (HANDSCORED / "responses.jsonl").read_text().splitlines())
    }
    runs = str(work / "runs")
    with MockProviderServer(by_text) as server:
        profile = work / "profiles.ini"
        profile.write_text(f"[mock]\nbase_url = {server.base_url}\nmodel_id = mock-model\n")
        _run("run", "--corpus", str(reviews), "--strategy", "eot-detect",
             "--profile", str(profile), "--run-id", "fixture-run", "--runs-dir", runs)
    scores = str(work / "runs" / "fixture-run" / "scores.json")
    for ext, fmt in (("txt", "table"), ("csv", "csv")):
        _run("score", "--run-id", "fixture-run", "--gold", gold, "--runs-dir", runs,
             "--format", fmt, "--out", str(work / f"score.{ext}"))
        _run("report", scores, "--format", fmt, "--out", str(work / f"report.{ext}"))
        _run("stats", "--gold", gold, "--corpus", str(reviews), "--format", fmt,
             "--out", str(work / f"stats.{ext}"))

    corpus, annotations = write_agreement_inputs(work)
    _run("aggregate", "--annotations", str(annotations), "--corpus", str(corpus),
         "--out", str(work / "aggregate.jsonl"))
    for ext, fmt in (("txt", "table"), ("csv", "csv")):
        _run("agreement", "--annotations", str(annotations), "--corpus", str(corpus),
             "--format", fmt, "--out", str(work / f"agreement.{ext}"))

    _run("sample", "--corpus", str(SAMPLE_INPUTS / "corpus.jsonl"),
         "--plan", str(SAMPLE_INPUTS / "plan.json"), "--out", str(work / "sample.jsonl"))


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("golden")
    produce_outputs(work)
    return work


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_golden_bytes(work, name):
    got = (work / OUTPUTS[name]).read_bytes()
    assert got == (CLI_GOLDEN_DIR / name).read_bytes(), name


def test_ledger_line_key_order(work):
    ledger = (work / "runs" / "fixture-run" / "ledger").read_text(encoding="utf-8")
    for line in ledger.splitlines():
        assert list(json.loads(line)) == LEDGER_KEYS


def test_sample_keeps_a_review_without_timestamp(work):
    # the golden sample must exercise review_to_dict's optional timestamp
    lines = [json.loads(l) for l in (work / "sample.jsonl").read_text().splitlines()]
    assert any("timestamp" not in line for line in lines)
    assert any("timestamp" in line for line in lines)


def test_agreement_and_stats_run_without_numpy(tmp_path):
    # numpy set to None in sys.modules makes any import of it an ImportError
    corpus, annotations = write_agreement_inputs(tmp_path)
    probe = (
        "import sys; sys.modules['numpy'] = None; from eotbench.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    inputs = {
        "agreement": ["--annotations", annotations, "--corpus", corpus],
        "stats": ["--gold", HANDSCORED / "gold.jsonl", "--corpus", HANDSCORED / "reviews.jsonl"],
    }
    for command, args in inputs.items():
        for ext, fmt in (("txt", "table"), ("csv", "csv")):
            out = tmp_path / f"{command}.{ext}"
            argv = [sys.executable, "-c", probe, command, *map(str, args), "--format", fmt, "--out", str(out)]
            done = subprocess.run(argv, env=src_env(), capture_output=True, text=True, timeout=60)
            assert done.returncode == EXIT_OK, done.stderr
            assert out.read_bytes() == (CLI_GOLDEN_DIR / out.name).read_bytes(), out.name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        produce_outputs(Path(tmp))
        CLI_GOLDEN_DIR.mkdir(exist_ok=True)
        for name, rel in OUTPUTS.items():
            (CLI_GOLDEN_DIR / name).write_bytes((Path(tmp) / rel).read_bytes())
    print(f"wrote {len(OUTPUTS)} snapshots to {CLI_GOLDEN_DIR}")
