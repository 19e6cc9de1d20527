"""One table of the work each command does on the fixed test fixtures.

A module fixture runs `run`, `score`, `sample`, `aggregate`, `agreement` and
`stats` once through ``cli.main`` on the committed fixtures (`run` with four
workers, `agreement` with one review nobody annotated), counting calls of
the functions in COUNTED and the records built, by type. ``PINS`` holds every
count that is not zero. A change that builds more records or calls a
counted function more often fails here deterministically, whatever the
host's timing noise; a change to a pin is a change to the work done. The
records counted are frozen dataclasses whose fields live in slots.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

from eotbench import inference, model
from eotbench.cli import EXIT_OK, main
from eotbench.prompting import PROMPT_VERSION
from eotbench.transport import Response
from conftest import DATA_DIR, ledger_entry

HANDSCORED = DATA_DIR / "handscored"

# functions counted wherever an eotbench module calls them, as "<module>.<function>"
COUNTED = (
    "model.tokenize", "model.tokenize_with_spans", "model.count_tokens", "model.normalize_text",
    "model.locate_span", "corpus.stratum_key", "prompting.build_prompt", "inference.read_ledger",
    "extraction.parse_output", "jsonio.check_fields",
)
RECORDS = (model.Review, model.TriggerSpan, model.EmotionTriggers, model.EotOutput)

# (command, what is counted, the count): every count that is not zero. The
# hand-scored run has 10 reviews, all answered, one answer unparseable; its
# gold file has 10 records, 16 emotions and 17 triggers. `score` includes the
# `report` on its scores.json, as the bench's score workload does.
PINS = [
    ("run", "Review", 10 + 1),  # the corpus, and the template review of the request body
    ("run", "prompting.build_prompt", 1),  # one per run, whatever the number of reviews and workers
    ("run", "inference.read_ledger", 1),  # likewise
    ("run", "json.loads", 10),  # each reply body, once
    ("run", "jsonio.check_fields", 10 + 10 * 3),  # each review; each reply, its choice and its message
    ("score", "Review", 10),
    ("score", "extraction.parse_output", 10),
    ("score", "EotOutput", 10 + 10),  # one per gold record and per parsed response, none as a placeholder
    ("score", "EmotionTriggers", 16 + 12),
    ("score", "TriggerSpan", 17 + 12),  # each gold trigger, each response trigger found or repaired
    ("score", "model.locate_span", 17 + 13),  # each gold trigger, each response trigger under an emotion
    ("score", "model.normalize_text", 27),
    ("score", "model.tokenize", 23),
    ("score", "inference.read_ledger", 1),
    ("score", "json.loads", 1 + 1),  # the manifest and scores.json, read whole; no JSONL line
    # each review, ledger line, gold line and gold emotion, the manifest, and
    # scores.json with its two headline groups: a ledger entry is its checked line
    ("score", "jsonio.check_fields", 10 + 10 + 10 + 16 + 1 + 3),
    ("sample", "Review", 22),
    ("sample", "model.count_tokens", 16),  # each review of each drawn item, once
    ("sample", "corpus.stratum_key", 16),  # each of those the length filter keeps, once
    ("sample", "json.loads", 1),  # the plan
    ("sample", "jsonio.check_fields", 22 + 2),  # each review; the plan as an object, then against PLAN_SPEC
    ("aggregate", "Review", 4),
    ("aggregate", "EotOutput", 12 + 4),  # each annotation, each gold record
    ("aggregate", "EmotionTriggers", 14 + 4),
    ("aggregate", "TriggerSpan", 12),
    ("aggregate", "model.locate_span", 12),
    ("aggregate", "model.normalize_text", 7),  # one per span pooled under an emotion that wins
    ("aggregate", "jsonio.check_fields", 4 + 12 + 14),  # each review, annotation and annotated emotion
    ("agreement", "Review", 4 + 1),  # the annotated reviews, and one nobody annotated
    ("agreement", "EotOutput", 12),
    ("agreement", "EmotionTriggers", 14),
    ("agreement", "TriggerSpan", 12),
    ("agreement", "model.locate_span", 12),
    ("agreement", "model.tokenize_with_spans", 4),  # each annotated review, once; the other, never
    ("agreement", "jsonio.check_fields", 5 + 12 + 14),
    ("stats", "Review", 10),
    ("stats", "EotOutput", 10),
    ("stats", "EmotionTriggers", 16),
    ("stats", "TriggerSpan", 17),
    ("stats", "model.locate_span", 17),
    ("stats", "model.count_tokens", 17),  # each gold trigger, once
    ("stats", "jsonio.check_fields", 10 + 10 + 16),  # each review, gold line and gold emotion
]


class _Transport:
    """Answers each of the run's requests with the hand-scored response to the
    review whose text the request body holds, whichever worker sends it."""

    def __init__(self, replies: dict[str, str]):
        # a review's text as it reads in a body, JSON-escaped: no json.loads to count
        self.replies = {json.dumps(text)[1:-1].encode(): reply for text, reply in replies.items()}

    def post(self, body):
        [reply] = [reply for text, reply in self.replies.items() if text in body]
        return Response(200, {}, json.dumps({"choices": [{"message": {"content": reply}}]}).encode())


# the run's workers build records and call counted functions concurrently
_COUNTING = threading.Lock()


def _count_calls(monkeypatch, counts: Counter, target: str) -> None:
    """Count calls of ``target`` at every eotbench call site that names it."""
    module_name, name = target.split(".")
    original = getattr(sys.modules[f"eotbench.{module_name}"], name)

    def counting(*args, **kwargs):
        with _COUNTING:
            counts[target] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("eotbench") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)


def _count_records(monkeypatch, counts: Counter, cls: type) -> None:
    init = cls.__init__

    def counting(self, *args, **kwargs):
        with _COUNTING:
            counts[cls.__name__] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)


def _counting_loads(counts: Counter):
    loads = json.loads

    def counting(*args, **kwargs):
        with _COUNTING:
            counts["json.loads"] += 1
        return loads(*args, **kwargs)

    return counting


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("counts")


@pytest.fixture(scope="module")
def counts(workdir):
    """Per command, the counts of one call of it on the fixtures; the run's
    files are left in ``workdir``."""
    tmp = workdir
    text_of = {
        review["review_id"]: review["text"]
        for review in map(json.loads, (HANDSCORED / "reviews.jsonl").read_text().splitlines())
    }
    replies = {
        text_of[entry["review_id"]]: entry["raw_response"]
        for entry in map(json.loads, (HANDSCORED / "responses.jsonl").read_text().splitlines())
    }
    profile = tmp / "profiles.ini"
    profile.write_text("[fake]\nbase_url = http://127.0.0.1:9\nmodel_id = m\nmax_concurrency = 4\n")
    agreement_corpus = tmp / "agreement-corpus.jsonl"
    unannotated = {"review_id": "unrated", "text": "Nobody annotated this.", "domain": "Home", "item_id": "h9"}
    agreement_corpus.write_text((DATA_DIR / "agreement" / "corpus.jsonl").read_text() + json.dumps(unannotated) + "\n")
    runs = str(tmp / "runs")
    commands = {
        "run": ["run", "--corpus", str(HANDSCORED / "reviews.jsonl"), "--strategy", "zs",
                "--profile", str(profile), "--run-id", "hand-scored", "--runs-dir", runs],
        "score": ["score", "--run-id", "hand-scored", "--gold", str(HANDSCORED / "gold.jsonl"),
                  "--runs-dir", runs, "--out", str(tmp / "score.txt")],
        "report": ["report", str(tmp / "runs" / "hand-scored" / "scores.json"), "--out", str(tmp / "report.txt")],
        "sample": ["sample", "--corpus", str(DATA_DIR / "sample" / "corpus.jsonl"),
                   "--plan", str(DATA_DIR / "sample" / "plan.json"), "--out", str(tmp / "sample.jsonl")],
        "aggregate": ["aggregate", "--annotations", str(DATA_DIR / "agreement" / "annotations.jsonl"),
                      "--corpus", str(DATA_DIR / "agreement" / "corpus.jsonl"), "--out", str(tmp / "gold.jsonl")],
        "agreement": ["agreement", "--annotations", str(DATA_DIR / "agreement" / "annotations.jsonl"),
                      "--corpus", str(agreement_corpus), "--out", str(tmp / "agreement.txt")],
        "stats": ["stats", "--gold", str(HANDSCORED / "gold.jsonl"), "--corpus", str(HANDSCORED / "reviews.jsonl"),
                  "--out", str(tmp / "stats.txt")],
    }
    counted: dict[str, Counter] = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(inference, "http_transport", lambda *_: _Transport(replies))
        for command, argv in commands.items():
            counted[command] = Counter()
            with pytest.MonkeyPatch.context() as patch:
                for target in COUNTED:
                    _count_calls(patch, counted[command], target)
                for cls in RECORDS:
                    _count_records(patch, counted[command], cls)
                patch.setattr(json, "loads", _counting_loads(counted[command]))
                assert main(argv) == EXIT_OK, command
    # the report's read of scores.json is score's: bench's score workload runs both
    counted["score"] += counted.pop("report")
    return counted


@pytest.mark.parametrize("command, counted, pinned", PINS, ids=[f"{c}:{w}" for c, w, _ in PINS])
def test_work_count(counts, command, counted, pinned):
    assert counts[command][counted] == pinned


def test_every_count_is_pinned(counts):
    pinned = {(command, counted) for command, counted, n in PINS if n}
    assert {(command, counted) for command, by in counts.items() for counted, n in by.items() if n} == pinned


def test_a_crlf_ledger_is_read_through_json_loads(counts, workdir, tmp_path, monkeypatch):
    """The one-scan fast path takes a line that ends in "\\n" only; each
    "\\r\\n" line falls back to json.loads and reads the same entry."""
    ledger = tmp_path / "hand-scored" / "ledger"
    ledger.parent.mkdir()
    shutil.copy(workdir / "runs" / "hand-scored" / "ledger", ledger)
    entries = list(inference.iter_ledger(tmp_path, "hand-scored"))
    ledger.write_bytes(ledger.read_bytes().replace(b"\n", b"\r\n"))
    calls = Counter()
    monkeypatch.setattr(json, "loads", _counting_loads(calls))
    assert list(inference.iter_ledger(tmp_path, "hand-scored")) == entries
    assert calls["json.loads"] == len(entries) == 10


def test_score_parses_each_ok_entry_of_the_manifests_prompt_version(counts, workdir, tmp_path, monkeypatch):
    """`score` parses each Ok entry under the manifest's prompt version as it
    reads the ledger: never a Failed entry, nor one of another version."""
    run_dir = tmp_path / "hand-scored"
    shutil.copytree(workdir / "runs" / "hand-scored", run_dir)
    entries = sorted(map(json.loads, (run_dir / "ledger").read_text().splitlines()), key=lambda e: e["review_id"])
    failed = {**entries[0], "status": "Failed", "raw_response": "", "error": "HTTP 503"}
    ledger = [
        failed,  # a review never answered
        {**entries[1], "status": "Failed", "raw_response": "", "error": "HTTP 503"}, entries[1],  # failed, then Ok
        {**entries[2], "prompt_version": "0.9"},  # answered under another prompt version only
        *entries[3:],
    ]
    (run_dir / "ledger").write_text("".join(json.dumps(e) + "\n" for e in ledger))
    calls = Counter()
    for target in ("inference.read_ledger", "extraction.parse_output"):
        _count_calls(monkeypatch, calls, target)
    argv = ["score", "--run-id", "hand-scored", "--gold", str(HANDSCORED / "gold.jsonl"),
            "--runs-dir", str(tmp_path), "--out", str(tmp_path / "score.txt")]
    assert main(argv) == EXIT_OK
    assert calls == {"inference.read_ledger": 1, "extraction.parse_output": 1 + 7}
    scores = json.loads((run_dir / "scores.json").read_text())
    assert (scores["n_reviews_scored"], scores["parse_stats"]["failed_requests"]) == (8, 1)


def test_score_holds_no_ledger_in_memory(tmp_path):
    """`score` drops each reply once it is parsed: over a ledger of 200 replies
    with about 50 KB of reasoning each, its traced peak stays below a tenth
    of the ledger's size. A first call, untraced, pays what a process pays
    once (the parser, lazy imports, compiled patterns)."""
    answer = '{"emotions": [{"emotion": "Joy", "triggers": ["boils fast"]}]}'
    reasoning = "Let me weigh each phrase of the review against the nine labels once more. " * 680
    reviews = [{"review_id": f"r{i:03}", "text": f"Kettle {i} boils fast.", "domain": "Home", "item_id": "k"}
               for i in range(200)]
    (tmp_path / "reviews.jsonl").write_text("".join(json.dumps(r) + "\n" for r in reviews))
    (tmp_path / "gold.jsonl").write_text("".join(
        json.dumps({"review_id": r["review_id"], "emotions": [{"emotion": "Joy", "triggers": ["boils fast"]}]}) + "\n"
        for r in reviews
    ))
    run_dir = tmp_path / "runs" / "long"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(json.dumps({
        "corpus": str(tmp_path / "reviews.jsonl"), "strategy": "zs-cot", "profile": "p",
        "prompt_version": PROMPT_VERSION,
    }))
    ledger = run_dir / "ledger"
    ledger.write_text("".join(
        json.dumps(ledger_entry(r["review_id"], reasoning + answer, run_id="long", strategy="zs-cot")) + "\n"
        for r in reviews
    ))
    argv = ["score", "--run-id", "long", "--gold", str(tmp_path / "gold.jsonl"), "--runs-dir", str(tmp_path / "runs"),
            "--out", str(tmp_path / "score.txt")]
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((run_dir / "scores.json").read_text())["n_reviews_scored"] == 200
    assert peak < ledger.stat().st_size / 10, (peak, ledger.stat().st_size)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_each_record_is_frozen_and_holds_its_fields_in_slots(cls):
    names = tuple(field.name for field in dataclasses.fields(cls))
    assert cls.__dataclass_params__.frozen
    assert cls.__slots__ == names and "__dict__" not in dir(cls)
    assert list(inspect.signature(cls).parameters) == list(names)
