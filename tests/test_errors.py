"""The messages of the failures raised as a plain DataError or ProviderFailure,
pinned byte for byte at their raise sites, with the exit code each gives
``cli.main``: through ``main`` where a command reaches the site, by a direct
call where none does. A run's failed requests are pinned by their ledger
``error`` text; a failed entry makes ``run`` exit 4."""

from __future__ import annotations

import json
import logging
import socket

import pytest

from eotbench import inference
from eotbench.annotation import aggregate_gold, load_annotations
from eotbench.cli import EXIT_DATA, EXIT_PROVIDER, main
from eotbench.corpus import load_corpus
from eotbench.errors import DataError, ProviderFailure
from eotbench.prompting import DEFAULT_CONFIG, PROMPT_VERSION, Strategy
from conftest import DATA_DIR, ledger_entry, make_review
from mock_provider import MockProviderServer

REVIEWS = DATA_DIR / "handscored" / "reviews.jsonl"
GOLD = DATA_DIR / "handscored" / "gold.jsonl"


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def _main(caplog, *argv) -> tuple[int, str]:
    """The exit code of ``main(argv)`` and the one error it logs."""
    caplog.clear()
    code = main([str(a) for a in argv])
    [message] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    return code, message


def _raised(call) -> tuple[int, str]:
    try:
        call()
    except DataError as exc:
        return EXIT_DATA, str(exc)
    except ProviderFailure as exc:
        return EXIT_PROVIDER, str(exc)
    raise AssertionError("nothing raised")


def empty_corpus(tmp_path, caplog, monkeypatch):
    (tmp_path / "corpus.jsonl").write_text("")
    return _main(caplog, "stats", "--gold", GOLD, "--corpus", tmp_path / "corpus.jsonl")


def sample_too_large(tmp_path, caplog, monkeypatch):
    lines = [
        {"review_id": f"r{i}", "text": "works fine", "domain": "Home", "item_id": f"item-{i}"} for i in range(2)
    ]
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
    (tmp_path / "plan.json").write_text(json.dumps({
        "seed": 7, "items_per_group": 3, "reviews_per_item": 1, "min_tokens": 1, "max_tokens": 100,
        "strata_granularity": "Year",
    }))
    return _main(caplog, "sample", "--corpus", tmp_path / "corpus.jsonl", "--plan", tmp_path / "plan.json",
                 "--out", tmp_path / "sample.jsonl")


def wrong_annotator_count(tmp_path, caplog, monkeypatch):
    two = (DATA_DIR / "agreement" / "annotations.jsonl").read_text().splitlines(keepends=True)[:2]
    (tmp_path / "annotations.jsonl").write_text("".join(two))
    return _main(caplog, "aggregate", "--annotations", tmp_path / "annotations.jsonl",
                 "--corpus", DATA_DIR / "agreement" / "corpus.jsonl", "--out", tmp_path / "gold.jsonl")


def mismatched_review_ids(tmp_path, caplog, monkeypatch):
    # unreachable from the CLI, which groups annotations by review
    reviews = load_corpus(DATA_DIR / "agreement" / "corpus.jsonl")
    annotations = load_annotations(DATA_DIR / "agreement" / "annotations.jsonl", reviews)
    a1, a2 = annotations["a1"], annotations["a2"]
    return _raised(lambda: aggregate_gold({"A1": a1["A1"], "A2": a1["A2"], "A3": a2["A1"]}))


def missing_gold(tmp_path, caplog, monkeypatch):
    run_dir = tmp_path / "runs" / "r"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(json.dumps({
        "run_id": "r", "corpus": str(REVIEWS), "strategy": "zs", "profile": "mock", "prompt_version": PROMPT_VERSION,
    }))
    (run_dir / "ledger").write_text(json.dumps(ledger_entry()) + "\n")
    (tmp_path / "gold.jsonl").write_text("".join(GOLD.read_text().splitlines(keepends=True)[1:]))  # all but r01
    return _main(caplog, "score", "--run-id", "r", "--gold", tmp_path / "gold.jsonl", "--runs-dir", tmp_path / "runs")


def unset_token(tmp_path, caplog, monkeypatch):
    monkeypatch.delenv("EOTBENCH_UNSET_TOKEN", raising=False)
    (tmp_path / "profiles.ini").write_text(
        "[mock]\nbase_url = http://127.0.0.1:9/v1\nmodel_id = m\nauth_env_var = EOTBENCH_UNSET_TOKEN\n"
    )
    return _main(caplog, "run", "--corpus", REVIEWS, "--strategy", "zs", "--profile", tmp_path / "profiles.ini",
                 "--run-id", "r", "--runs-dir", tmp_path / "runs")


def _failed_entry(tmp_path, base_url: str, timeout: float) -> tuple[int, str]:
    profile = inference.ProviderProfile("local", base_url, "m", timeout=timeout)
    template = inference.body_template(profile, DEFAULT_CONFIG, Strategy.ZS)
    state = inference.run_experiment(
        [make_review()], template, inference.http_transport(profile), max_concurrency=1,
        runs_dir=tmp_path, run_id="r", max_attempts=2, sleep=lambda seconds: None,
    )
    [entry] = inference.iter_ledger(tmp_path, "r")
    assert state.failed == {"r1"}
    return EXIT_PROVIDER, entry["error"]


def rate_limited(tmp_path, caplog, monkeypatch):
    with MockProviderServer(status=429) as server:
        return _failed_entry(tmp_path, f"{server.base_url}/v1", 5.0)


def timed_out(tmp_path, caplog, monkeypatch):
    # the kernel accepts into the backlog; nothing ever answers
    with socket.create_server(("127.0.0.1", 0), backlog=4) as listener:
        return _failed_entry(tmp_path, f"http://127.0.0.1:{listener.getsockname()[1]}/v1", 0.2)


CASES = [
    (empty_corpus, EXIT_DATA, "no usable records in corpus file: {tmp_path}/corpus.jsonl"),
    (sample_too_large, EXIT_DATA, "domain Home of {tmp_path}/corpus.jsonl, items_per_group of {tmp_path}/plan.json:"
                                  " cannot draw 3 from a population of 2"),
    (wrong_annotator_count, EXIT_DATA, "{tmp_path}/annotations.jsonl: review 'a1': need exactly 3 records, got 2"),
    (mismatched_review_ids, EXIT_DATA, "records span several reviews: ['a1', 'a2']"),
    (missing_gold, EXIT_DATA, "no gold record for review 'r01'"),
    (unset_token, EXIT_PROVIDER, "auth environment variable EOTBENCH_UNSET_TOKEN is not set"),
    (rate_limited, EXIT_PROVIDER, "still rate limited after 2 attempts"),
    (timed_out, EXIT_PROVIDER, "request timed out after 2 attempts"),
]


@pytest.mark.parametrize("case, code, message", CASES, ids=[case.__name__ for case, *_ in CASES])
def test_the_message_at_each_raise_site(tmp_path, caplog, monkeypatch, case, code, message):
    assert case(tmp_path, caplog, monkeypatch) == (code, message.format(tmp_path=tmp_path))
