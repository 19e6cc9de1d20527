"""Correctness checks on the program's outputs, run outside the timed window.

Each check returns a list of problems; an empty list means the outputs are
right. The checks read the generator's files and ``expected.json``
directly and recompute what they compare against, so they share no code
with eotbench beyond calling its CLI.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np

EMOTIONS = ("Joy", "Trust", "Fear", "Surprise", "Sadness", "Disgust", "Anger", "Anticipation", "Neutral")
SCORE_KEYS = ("P", "R", "F1", "EM", "PM", "R1", "RL")
ORACLE_SLICE = 40  # reviews re-scored by the oracle; its trigger recovery is cubic in review length


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _expected(work: Path) -> dict:
    return json.loads((work / "expected.json").read_text(encoding="utf-8"))


def numpy_fleiss(counts: np.ndarray) -> float:
    """Fleiss kappa of an items x categories count matrix (equal rater counts)."""
    n = counts.sum(axis=1)[0]
    p_items = ((counts ** 2).sum(axis=1) - n) / (n * (n - 1))
    p_cat = counts.sum(axis=0) / counts.sum()
    p_bar, p_e = p_items.mean(), (p_cat ** 2).sum()
    return float((p_bar - p_e) / (1 - p_e))


def check_curate(work: Path) -> list[str]:
    problems = []
    expected_ids = _expected(work)["sample_ids"]
    sampled = [r["review_id"] for r in read_jsonl(work / "sample.jsonl")]
    if sampled != expected_ids:
        problems.append(f"sample: {len(sampled)} ids differ from the plan's {len(expected_ids)}")

    votes: dict[str, Counter] = {}
    for record in read_jsonl(work / "annotations.jsonl"):
        votes.setdefault(record["review_id"], Counter()).update(e["emotion"] for e in record["emotions"])
    gold = read_jsonl(work / "gold.jsonl")
    gold_ids = [g["review_id"] for g in gold]
    if sorted(gold_ids) != sorted(expected_ids) or len(set(gold_ids)) != len(gold_ids):
        problems.append("gold: not exactly one record per sampled review")
    for record in gold:
        counts = votes.get(record["review_id"], Counter())
        labels = {e["emotion"] for e in record["emotions"]}
        majority = {e for e in EMOTIONS[:-1] if counts[e] >= 2}
        if labels != (majority or {"Neutral"}):
            problems.append(f"gold {record['review_id']}: emotions {sorted(labels)} but votes {dict(counts)}")
        if any(counts[e] < 2 for e in labels - {"Neutral"}):
            problems.append(f"gold {record['review_id']}: an emotion has fewer than 2 votes")

    rows = np.array([[votes[rid][e], 3 - votes[rid][e]] for rid in sorted(votes) for e in EMOTIONS], dtype=float)
    kappa = numpy_fleiss(rows)
    with open(work / "agreement.csv", encoding="utf-8") as fh:
        table = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
    overall = next((row for row in table if row and row[0] == "Overall Average"), None)
    if overall is None or abs(float(overall[-1]) - kappa) > 5e-5 + 1e-12:
        problems.append(f"agreement: emotion Fleiss {overall and overall[-1]} != numpy {kappa:.6f}")
    return problems


def _ledger_ok(ledger: list[dict]) -> dict[str, str]:
    latest: dict[str, str] = {}
    for entry in ledger:
        if entry["status"] == "Ok":
            latest[entry["review_id"]] = entry["raw_response"]
    return latest


def check_score(work: Path, run_id: str, run_cli, oracle_score) -> list[str]:
    problems = []
    shapes = _expected(work)["shapes"]
    run_dir = work / "runs" / run_id
    scores = json.loads((run_dir / "scores.json").read_text(encoding="utf-8"))
    n_ok = sum(1 for s in shapes.values() if s != "failed")
    stats = scores["parse_stats"]
    if scores["n_reviews_scored"] != n_ok or stats["failed_requests"] != len(shapes) - n_ok:
        problems.append(f"score: scored {scores['n_reviews_scored']} / failed {stats['failed_requests']}, "
                        f"expected {n_ok} / {len(shapes) - n_ok}")
    if stats["clean"] + stats["repaired"] + stats["unparseable"] != n_ok:
        problems.append("score: parse statuses do not add up to the reviews scored")
    if len(read_jsonl(run_dir / "parsed")) != n_ok:
        problems.append("score: parsed holds the wrong number of records")
    row = [scores["emotion"]["precision"], scores["emotion"]["recall"], scores["emotion"]["f1"],
           scores["trigger"]["exact_match"], scores["trigger"]["partial_match"],
           scores["trigger"]["rouge1"], scores["trigger"]["rougeL"]]
    with open(work / "report.csv", encoding="utf-8") as fh:
        report = list(csv.reader(fh))
    if len(report) != 2 or [f"{v:.4f}" for v in row] != report[1][1:]:
        problems.append("report: row does not match scores.json")

    # the oracle on a fixed slice: the first ORACLE_SLICE reviews with an Ok entry
    reviews = {r["review_id"]: r["text"] for r in read_jsonl(work / "reviews.jsonl")}
    gold = {g["review_id"]: {e["emotion"]: e["triggers"] for e in g["emotions"]}
            for g in read_jsonl(work / "gold.jsonl")}
    ledger = read_jsonl(run_dir / "ledger")
    responses = _ledger_ok(ledger)
    chosen = sorted(responses)[:ORACLE_SLICE]
    slice_dir = work / "oracle_slice"
    (slice_dir / run_id).mkdir(parents=True, exist_ok=True)
    (slice_dir / run_id / "manifest.json").write_bytes((run_dir / "manifest.json").read_bytes())
    with open(slice_dir / run_id / "ledger", "w", encoding="utf-8") as fh:
        for entry in ledger:
            if entry["review_id"] in chosen:
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
    code = run_cli(["score", "--run-id", run_id, "--gold", str(work / "gold.jsonl"),
                    "--corpus", str(work / "reviews.jsonl"), "--runs-dir", str(slice_dir),
                    "--format", "csv", "--out", str(slice_dir / "score.csv")])
    if code != 0:
        return problems + [f"oracle slice: score exited {code}"]
    sliced = json.loads((slice_dir / run_id / "scores.json").read_text(encoding="utf-8"))
    got = dict(zip(SCORE_KEYS, [sliced["emotion"]["precision"], sliced["emotion"]["recall"],
                                sliced["emotion"]["f1"], sliced["trigger"]["exact_match"],
                                sliced["trigger"]["partial_match"], sliced["trigger"]["rouge1"],
                                sliced["trigger"]["rougeL"]]))
    want = oracle_score({r: reviews[r] for r in chosen}, {r: gold[r] for r in chosen},
                        {r: responses[r] for r in chosen})
    for key in SCORE_KEYS:
        if abs(got[key] - want[key]) > 1e-9:
            problems.append(f"oracle slice: {key} {got[key]!r} != oracle {want[key]!r}")
    return problems


def check_run(work: Path, run_id: str) -> list[str]:
    problems = []
    replies = {r["review_text"]: r["reply"] for r in read_jsonl(work / "replies.jsonl")}
    text_of = {r["review_id"]: r["text"] for r in read_jsonl(work / "reviews.jsonl")}
    preseeded = (work / "ledger.preseeded").read_bytes()
    ledger_bytes = (work / "runs" / run_id / "ledger").read_bytes()
    if not ledger_bytes.startswith(preseeded):
        problems.append("run: the pre-seeded ledger entries were modified")
    ledger = [json.loads(line) for line in ledger_bytes.decode("utf-8").splitlines() if line.strip()]
    ok = Counter(e["review_id"] for e in ledger if e["status"] == "Ok")
    if set(ok) != set(text_of) or any(n != 1 for n in ok.values()):
        problems.append(f"run: {len(ok)} reviews Ok of {len(text_of)}, "
                        f"{sum(1 for n in ok.values() if n != 1)} more than once")
    failed = sum(1 for e in ledger if e["status"] != "Ok")
    if failed:
        problems.append(f"run: {failed} Failed entries")
    wrong = sum(1 for e in ledger
                if e["status"] == "Ok" and e["raw_response"] != replies.get(text_of.get(e["review_id"])))
    if wrong:
        problems.append(f"run: {wrong} raw responses differ from the scripted replies")
    return problems
