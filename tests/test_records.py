"""One table of hostile field values, built from the record specs.

For every field of every record spec (nested fields and array items
included), a missing required key, a value of the wrong kind, a lone
surrogate in a string, a string outside a field's allowed values and an
integer too big for a float in a number each go through ``cli.main``. The
command exits 3, or for a corpus line rejects that line, with no traceback
and no output file.
A field added to a spec is covered here without a new test.
"""

from __future__ import annotations

import copy
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import eotbench
from eotbench import annotation, cli, corpus, inference, metrics, prompting
from eotbench.cli import EXIT_DATA, EXIT_OK, main
from eotbench.jsonio import ARRAY, BOOLEAN, INTEGER, NUMBER, OBJECT, STRING, check_fields
from eotbench.prompting import PROMPT_VERSION
from conftest import DATA_DIR, ledger_entry

HANDSCORED = DATA_DIR / "handscored"
LONE_SURROGATE = "\ud83d"
TOO_BIG_FOR_A_FLOAT = 10**400
NOT_ALLOWED = "Bogus"  # no field's allowed values hold it
# a value of another kind for each kind: a float for an integer, a bool for a
# number, a string for a boolean, and so on
WRONG_KIND = {STRING: 7, INTEGER: 1.5, NUMBER: True, BOOLEAN: "false", ARRAY: "x", OBJECT: []}
MISSING = object()


def _cases(spec: tuple, record: dict, path: tuple = ()):
    """(path, value or MISSING) for each hostile value of each field of
    ``spec``, nested specs and the first item of each array or object
    included; ``record`` holds every nested object the spec names."""
    for name, kind, required, test in spec:
        where = (*path, name)
        if required:
            yield where, MISSING
        if type(kind) is tuple:  # a nested object
            yield where, WRONG_KIND[OBJECT]
            yield from _cases(kind, record[name], where)
            continue
        yield where, WRONG_KIND[kind]
        if kind is STRING:
            yield where, LONE_SURROGATE
            if test is not None:
                yield where, NOT_ALLOWED
        if kind is NUMBER:
            yield where, TOO_BIG_FOR_A_FLOAT
        if kind in (ARRAY, OBJECT) and test is not None:
            item = (*where, 0 if kind is ARRAY else next(iter(record[name])))
            if type(test) is tuple:  # each item an object
                yield item, WRONG_KIND[OBJECT]
                yield from _cases(test, record[name][item[-1]], item)
            else:
                yield item, WRONG_KIND[test]
                if test is STRING:
                    yield item, LONE_SURROGATE
                if test is NUMBER:
                    yield item, TOO_BIG_FOR_A_FLOAT


def _shown(value) -> str:
    return "missing" if value is MISSING else "10**400" if value is TOO_BIG_FOR_A_FLOAT else repr(value)


def _mutated(record: dict, path: tuple, value) -> dict:
    record = copy.deepcopy(record)
    target = record
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return record


def _jsonl(path: Path, records) -> Path:
    # json.dumps escapes a lone surrogate, so the file stays UTF-8
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


REVIEW = {"review_id": "r2", "text": "The kettle boils fast and looks fine.", "domain": "Home", "item_id": "k1",
          "timestamp": 1680000000}
PLAN = {"seed": 1, "items_per_group": 1, "reviews_per_item": 1, "min_tokens": 1, "max_tokens": 100,
        "strata_granularity": "Year"}
CONFIG = {"temperature": 0.2, "top_p": 0.95, "top_k": 25, "max_tokens": 2500, "n": 1}
NEUTRAL = '{"emotions": [{"emotion": "Neutral", "triggers": []}]}'
LEDGER_ENTRY = ledger_entry("r01", NEUTRAL)
ANNOTATION = _lines(DATA_DIR / "agreement" / "annotations.jsonl")[0]
GOLD = {
    "review_id": "r01",
    "emotions": [{"emotion": "Joy", "triggers": ["works perfectly"]}],
    "provenance": {
        "emotion_votes": {"Joy": 3},
        "trigger_annotators": [{"emotion": "Joy", "text": "works perfectly", "annotators": ["A1", "A2"]}],
        "no_majority": False,
    },
}
MANIFEST = {
    "format_version": "1", "run_id": "r", "corpus": str(HANDSCORED / "reviews.jsonl"), "strategy": "zs",
    "profile": "mock", "prompt_version": PROMPT_VERSION, "config": CONFIG, "seed": None,
}
SCORES = {
    "run_id": "demo", "strategy": "zs",
    "emotion": {"precision": 0.5, "recall": 0.25, "f1": 0.3},
    "trigger": {"exact_match": 0.1, "partial_match": 0.2, "rouge1": 0.3, "rougeL": 0.25},
}


def _run_dir(tmp: Path, manifest: dict, first_entry: dict) -> Path:
    run_dir = tmp / "runs" / "r"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    others = [{**LEDGER_ENTRY, "review_id": r["review_id"]} for r in _lines(HANDSCORED / "reviews.jsonl")[1:]]
    _jsonl(run_dir / "ledger", [first_entry, *others])
    return run_dir


def _score(tmp: Path, manifest: dict, first_entry: dict, mutated: str):
    run_dir = _run_dir(tmp, manifest, first_entry)
    argv = ["score", "--run-id", "r", "--gold", HANDSCORED / "gold.jsonl", "--runs-dir", tmp / "runs"]
    return argv, [run_dir / "scores.json", run_dir / "parsed"], run_dir / mutated


def _sample_corpus(tmp, record):
    other = {**REVIEW, "review_id": "r1", "text": "The kettle is quiet."}
    corpus_path = _jsonl(tmp / "corpus.jsonl", [other, record])
    plan = tmp / "plan.json"
    plan.write_text(json.dumps(PLAN))
    return ["sample", "--corpus", corpus_path, "--plan", plan, "--out", tmp / "s.jsonl"], [], corpus_path


def _sample_plan(tmp, record):
    corpus_path = _jsonl(tmp / "corpus.jsonl", [REVIEW])
    plan = tmp / "plan.json"
    plan.write_text(json.dumps(record))
    out = tmp / "s.jsonl"
    argv = ["sample", "--corpus", corpus_path, "--plan", plan, "--out", out]
    return argv, [out, Path(f"{out}.manifest.json")], plan


def _run_config(tmp, record):
    profile = tmp / "profiles.ini"
    # a URL no request can go to: a run that got past its config would stop on it
    profile.write_text("[mock]\nbase_url = ftp://127.0.0.1:9/v1\nmodel_id = m\n")
    config = tmp / "config.json"
    config.write_text(json.dumps(record))
    argv = ["run", "--corpus", HANDSCORED / "reviews.jsonl", "--strategy", "zs", "--profile", profile,
            "--config", config, "--run-id", "r", "--runs-dir", tmp / "runs"]
    return argv, [tmp / "runs"], config


def _aggregate(tmp, record):
    others = _lines(DATA_DIR / "agreement" / "annotations.jsonl")[1:]
    annotations = _jsonl(tmp / "annotations.jsonl", [record, *others])
    out = tmp / "gold.jsonl"
    return ["aggregate", "--annotations", annotations, "--corpus", DATA_DIR / "agreement" / "corpus.jsonl",
            "--out", out], [out], annotations


def _stats(tmp, record):
    gold = _jsonl(tmp / "gold.jsonl", [record, *_lines(HANDSCORED / "gold.jsonl")[1:]])
    out = tmp / "stats.txt"
    return ["stats", "--gold", gold, "--corpus", HANDSCORED / "reviews.jsonl", "--out", out], [out], gold


def _report(tmp, record):
    scores = tmp / "scores.json"
    scores.write_text(json.dumps(record))
    out = tmp / "report.txt"
    return ["report", scores, "--out", out], [out], scores


# (spec name, spec, a record that meets it, the command that reads it)
TABLE = [
    ("corpus.REVIEW_SPEC", corpus.REVIEW_SPEC, REVIEW, _sample_corpus),
    ("corpus.PLAN_SPEC", corpus.PLAN_SPEC, PLAN, _sample_plan),
    ("prompting.CONFIG_SPEC", prompting.CONFIG_SPEC, CONFIG, _run_config),
    ("inference.LEDGER_SPEC", inference.LEDGER_SPEC, LEDGER_ENTRY, lambda tmp, r: _score(tmp, MANIFEST, r, "ledger")),
    ("annotation.ANNOTATION_SPEC", annotation.ANNOTATION_SPEC, ANNOTATION, _aggregate),
    ("annotation.GOLD_SPEC", annotation.GOLD_SPEC, GOLD, _stats),
    ("cli.RUN_MANIFEST_SPEC", cli.RUN_MANIFEST_SPEC, MANIFEST, lambda tmp, r: _score(tmp, r, LEDGER_ENTRY, "manifest.json")),
    ("metrics.SCORES_SPEC", metrics.SCORES_SPEC, SCORES, _report),
]
CASES = [
    pytest.param(name, build, record, path, value,
                 id=f"{name}:{'.'.join(map(str, path))}={_shown(value)}")
    for name, spec, record, build in TABLE
    for path, value in _cases(spec, record)
]


@pytest.mark.parametrize("name, spec, record", [(name, spec, record) for name, spec, record, _ in TABLE])
def test_each_table_record_meets_its_spec(name, spec, record):
    check_fields(record, spec)


def test_the_table_covers_every_record_spec():
    specs = {}
    for info in pkgutil.iter_modules(eotbench.__path__):
        module = vars(importlib.import_module(f"eotbench.{info.name}"))
        specs.update({id(value): f"{info.name}.{name}" for name, value in module.items()
                      if name.endswith("_SPEC") and not name.startswith("_")})
    assert sorted(specs.values()) == sorted(name for name, *_ in TABLE)


@pytest.mark.parametrize("name, build, record, path, value", CASES)
def test_a_hostile_field_is_a_data_error(tmp_path, caplog, capsys, name, build, record, path, value):
    argv, outputs, mutated = build(tmp_path, _mutated(record, path, value))
    code = main([str(a) for a in argv])
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    if build is _sample_corpus:
        assert code == EXIT_OK
        assert f"{mutated}:2 rejected: " in caplog.text
        assert [r["review_id"] for r in _lines(tmp_path / "s.jsonl")] == ["r1"]
    else:
        assert code == EXIT_DATA
        assert str(mutated) in caplog.text  # the error names the file that holds the field
        assert [p for p in outputs if p.exists()] == []


UNKNOWN_KEYS = [f"unknown_{i}" for i in range(10_000)]


@pytest.mark.parametrize("build, record, error_text, shown", [
    (_report, _mutated(SCORES, ("emotion", "f1"), TOO_BIG_FOR_A_FLOAT), "emotion.f1 is not a number",
     repr(TOO_BIG_FOR_A_FLOAT)),
    (_report, _mutated(SCORES, ("emotion", "f1"), "x" * 100_000), "emotion.f1 is not a number", repr("x" * 100_000)),
    (_run_config, {**CONFIG, **dict.fromkeys(UNKNOWN_KEYS, 0)}, "bad inference config: not a known field",
     ", ".join(map(repr, UNKNOWN_KEYS))),
], ids=["10**400", "a long string", "many unknown keys"])
def test_an_error_names_a_long_value_without_echoing_it(tmp_path, caplog, build, record, error_text, shown):
    argv, outputs, mutated = build(tmp_path, record)
    assert main([str(a) for a in argv]) == EXIT_DATA
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{mutated}: {error_text}: {shown[:80]}")
    assert error.endswith(f"... ({len(shown)} characters)")
    assert len(error) < len(str(mutated)) + 150
