"""Byte-for-byte snapshots of what the CLI writes.

Every output is produced once from fixed inputs and compared with its file
under ``tests/golden/cli``: the ``score`` and ``report`` tables and CSVs,
``parsed`` and ``scores.json`` on the hand-scored fixture, ``stats`` on the
hand-scored gold, ``aggregate`` and ``agreement`` on the three-annotator set
in ``tests/data/agreement``, and the ``sample`` output with its manifest on
the corpus and plan in ``tests/data/sample``. A ledger line's key order
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
from mock_provider import MockProviderServer

CLI_GOLDEN_DIR = GOLDEN_DIR / "cli"
HANDSCORED = DATA_DIR / "handscored"
SAMPLE_INPUTS = DATA_DIR / "sample"  # a corpus and a plan for `sample`
# a corpus of four reviews and three annotators' labels of each, for
# `aggregate` and `agreement`
AGREEMENT_CORPUS = DATA_DIR / "agreement" / "corpus.jsonl"
AGREEMENT_ANNOTATIONS = DATA_DIR / "agreement" / "annotations.jsonl"

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

    corpus, annotations = str(AGREEMENT_CORPUS), str(AGREEMENT_ANNOTATIONS)
    _run("aggregate", "--annotations", annotations, "--corpus", corpus,
         "--out", str(work / "aggregate.jsonl"))
    for ext, fmt in (("txt", "table"), ("csv", "csv")):
        _run("agreement", "--annotations", annotations, "--corpus", corpus,
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


def test_plan_key_order_reaches_no_output(tmp_path):
    # the plan of tests/data/sample with its keys shuffled, no strata_granularity
    # (Year, the default) and another seed, which --seed replaces
    plan = json.loads((SAMPLE_INPUTS / "plan.json").read_text(encoding="utf-8"))
    assert plan.pop("strata_granularity") == "Year"
    shuffled = {key: plan[key] for key in ("max_tokens", "reviews_per_item", "min_tokens", "items_per_group")}
    (tmp_path / "plan.json").write_text(json.dumps({**shuffled, "seed": plan["seed"] + 1}))
    _run("sample", "--corpus", str(SAMPLE_INPUTS / "corpus.jsonl"), "--plan", str(tmp_path / "plan.json"),
         "--seed", str(plan["seed"]), "--out", str(tmp_path / "sample.jsonl"))
    for name in ("sample.jsonl", "sample.manifest.json"):
        assert (tmp_path / OUTPUTS[name]).read_bytes() == (CLI_GOLDEN_DIR / name).read_bytes(), name


def test_agreement_and_stats_run_without_numpy(tmp_path):
    # numpy set to None in sys.modules makes any import of it an ImportError
    probe = (
        "import sys; sys.modules['numpy'] = None; from eotbench.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    inputs = {
        "agreement": ["--annotations", AGREEMENT_ANNOTATIONS, "--corpus", AGREEMENT_CORPUS],
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
