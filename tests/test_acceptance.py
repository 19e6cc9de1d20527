"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; assertions carry the stated tolerances.
"""

from __future__ import annotations

import json
import random
import time

import pytest
from scipy.stats import chisquare

from eotbench.annotation import (
    aggregate_gold,
    cohen_kappa,
    fleiss_kappa,
    gold_statistics,
    render_gold_statistics,
    trigger_token_kappa,
)
from eotbench.cli import EXIT_OK, main
from eotbench.corpus import filter_by_length, srswor
from eotbench.extraction import parse_output
from eotbench.jsonio import load_json, write_jsonl
from eotbench.metrics import rouge1, rougeL
from eotbench.model import Domain, EmotionLabel, PRIMARY_EMOTIONS
from eotbench.prompting import Strategy, build_prompt, render_messages
from conftest import DATA_DIR, GOLDEN_DIR, assert_extractive, make_review
from mock_provider import MockProviderServer
from oracles import (
    brute_clipped_overlap,
    brute_lcs,
    load_handscored_fixture,
    oracle_score,
    prf_from_overlap,
)
from test_annotation import annotate, neutral_annotation, unanimous
from test_cli import write_profile


def _pass(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_rouge_oracle_equivalence():
    rng = random.Random(1001)
    alphabet = ["a", "b", "c", "d", "e"]
    pairs = [
        (
            [rng.choice(alphabet) for _ in range(rng.randrange(0, 13))],
            [rng.choice(alphabet) for _ in range(rng.randrange(0, 13))],
        )
        for _ in range(1000)
    ]
    started = time.monotonic()
    for a, b in pairs:
        expected_l = prf_from_overlap(brute_lcs(tuple(a), tuple(b)), len(a), len(b))
        got_l = rougeL(a, b)
        assert got_l == pytest.approx(expected_l, abs=1e-9)
        expected_1 = prf_from_overlap(brute_clipped_overlap(a, b), len(a), len(b))
        got_1 = rouge1(a, b)
        assert got_1 == pytest.approx(expected_1, abs=1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    _pass(1, f"rouge1/rougeL match brute-force oracles on 1000 pairs in {elapsed:.2f}s")


def test_criterion_2_kappa_sanity():
    # perfect agreement is exactly 1.0 for all three statistics
    sets = [{EmotionLabel.JOY}, {EmotionLabel.TRUST, EmotionLabel.JOY}, set()]
    assert cohen_kappa(sets, list(sets)) == 1.0
    assert fleiss_kappa([(3, 0), (0, 3), (3, 0)]) == 1.0
    review = make_review(text="I am very happy with it")
    annotations = {review.review_id: {a: annotate(review, {EmotionLabel.JOY: ["very happy"]}) for a in ("A1", "A2")}}
    _, overall = trigger_token_kappa(annotations, {review.review_id: review})
    assert overall[("A1", "A2")] == 1.0

    # independent uniform-random labeling over 10,000 items stays near zero
    rng = random.Random(2002)
    labels = list(EmotionLabel)
    sets_a = [{rng.choice(labels)} - {EmotionLabel.NEUTRAL} for _ in range(10_000)]
    sets_b = [{rng.choice(labels)} - {EmotionLabel.NEUTRAL} for _ in range(10_000)]
    assert abs(cohen_kappa(sets_a, sets_b)) < 0.05
    rows = []
    for _ in range(10_000):
        counts = [0, 0, 0]
        for _ in range(3):
            counts[rng.randrange(3)] += 1
        rows.append(counts)
    assert abs(fleiss_kappa(rows)) < 0.05

    # hand-derived Fleiss case
    assert fleiss_kappa([(3, 0), (1, 2)]) == pytest.approx(0.25, abs=1e-9)
    _pass(2, "kappa statistics: perfect=1.0, random<0.05, hand case=0.25")


def test_criterion_3_extractive_constraint_fuzz():
    review = make_review(
        text="The zipper broke on day two but the fabric still feels soft and warm."
    )
    rng = random.Random(3003)
    alphabet = "abcdef XY!,"
    accepted = 0
    for _ in range(1000):
        start = rng.randrange(0, len(review.text) - 2)
        end = rng.randrange(start + 1, len(review.text))
        trigger = review.text[start:end]
        op = rng.randrange(3)
        pos = rng.randrange(len(trigger))
        if op == 0:
            trigger = trigger[:pos] + rng.choice(alphabet) + trigger[pos:]
        elif op == 1:
            trigger = trigger[:pos] + trigger[pos + 1 :]
        else:
            trigger = trigger[:pos] + rng.choice(alphabet) + trigger[pos + 1 :]
        raw = json.dumps(
            {"emotions": [{"emotion": rng.choice(PRIMARY_EMOTIONS).value, "triggers": [trigger]}]}
        )
        output, _ = parse_output(raw, review)
        # every accepted trigger must satisfy the substring check exactly
        assert_extractive(review.text, output)
        accepted += sum(len(p.triggers) for p in output.pairs)

    crash_rng = random.Random(3033)
    for _ in range(10_000):
        length = crash_rng.randrange(0, 80)
        raw_bytes = bytes(crash_rng.randrange(256) for _ in range(length))
        parse_output(raw_bytes.decode("latin-1"), review)
    _pass(3, f"1000 mutated responses: {accepted} accepted triggers, all verbatim; no crashes on 10k byte strings")


def test_criterion_4_aggregation_properties():
    rng = random.Random(4004)
    words = ["soft", "warm", "broke", "fast", "cheap", "lovely", "rude", "fresh", "stale", "fine"]
    for _ in range(1000):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(6, 14)))
        review = make_review("rx", text, Domain.HOME, "i1")

        def random_annotation():
            if rng.random() < 0.15:
                return neutral_annotation(review)
            emotions = {}
            for emotion in rng.sample(PRIMARY_EMOTIONS, rng.randrange(1, 4)):
                triggers = []
                for _ in range(rng.randrange(1, 3)):
                    start = rng.randrange(0, len(text) - 2)
                    end = rng.randrange(start + 1, len(text))
                    chunk = text[start:end]
                    if chunk.strip():
                        triggers.append(chunk)
                if triggers:
                    emotions[emotion] = triggers
            if not emotions:
                return neutral_annotation(review)
            return annotate(review, emotions)

        records = [(a, random_annotation()) for a in ("A1", "A2", "A3")]
        gold, _ = aggregate_gold(dict(records))

        # permutation invariance
        for order in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
            shuffled = dict(records[i] for i in order)
            assert aggregate_gold(shuffled)[0] == gold

        votes = {}
        for _, output in records:
            for emotion in output.emotions:
                votes[emotion] = votes.get(emotion, 0) + 1
        for emotion, count in votes.items():
            if emotion is EmotionLabel.NEUTRAL:
                continue
            if count == 3:
                assert emotion in gold.emotions  # unanimous inclusion
            if count == 1:
                assert emotion not in gold.emotions  # singleton exclusion

        for pair in gold.pairs:  # post-resolution non-overlap
            spans = pair.triggers
            for i, a in enumerate(spans):
                for b in spans[i + 1 :]:
                    assert not a.overlaps(b)

        annotator_texts = {
            s.text for _, output in records for p in output.pairs for s in p.triggers
        }
        for pair in gold.pairs:  # every gold trigger came from an annotator
            for span in pair.triggers:
                assert span.text in annotator_texts

    # the overlapping very happy / happy case retains the longer span
    review = make_review("ry", "I am very happy today", Domain.BEAUTY, "i2")
    gold, _ = aggregate_gold({
        "A1": annotate(review, {EmotionLabel.JOY: ["very happy"]}),
        "A2": annotate(review, {EmotionLabel.JOY: ["happy"]}),
        "A3": annotate(review, {EmotionLabel.JOY: ["very happy"]}),
    })
    assert [s.text for s in gold.triggers_for(EmotionLabel.JOY)] == ["very happy"]
    _pass(4, "aggregation properties hold on 1000 random instances; longest-span case retained")


def test_criterion_5_gold_echo_end_to_end(tmp_path):
    started = time.monotonic()
    domains = [d.value for d in Domain]
    reviews = []
    gold_lines = []
    for i in range(20):
        if i < 2:
            text = f"Product number {i} does what the label says it does."
            emotions = [{"emotion": "Neutral", "triggers": []}]
        else:
            text = (
                f"The gadget number {i} works beautifully every day and "
                f"the support team responds quickly to question {i}."
            )
            emotions = [
                {"emotion": "Joy", "triggers": ["works beautifully every day"]},
                {"emotion": "Trust", "triggers": [f"responds quickly to question {i}"]},
            ]
        reviews.append(
            {
                "review_id": f"g{i:02d}",
                "text": text,
                "domain": domains[i % len(domains)],
                "item_id": f"item-{i}",
            }
        )
        gold_lines.append({"review_id": f"g{i:02d}", "emotions": emotions, "format_version": "1"})

    corpus_path = tmp_path / "toy.jsonl"
    gold_path = tmp_path / "gold.jsonl"
    write_jsonl(corpus_path, reviews)
    write_jsonl(gold_path, gold_lines)
    echo = {
        r["text"]: json.dumps({"emotions": g["emotions"]})
        for r, g in zip(reviews, gold_lines)
    }
    runs_dir = tmp_path / "runs"
    with MockProviderServer(echo) as server:
        profile = write_profile(tmp_path / "profiles.ini", server.base_url)
        assert main(
            [
                "run",
                "--corpus", str(corpus_path),
                "--strategy", "eot-detect",
                "--profile", f"{profile}:mock",
                "--run-id", "gold-echo",
                "--runs-dir", str(runs_dir),
            ]
        ) == EXIT_OK
    assert main(
        [
            "score",
            "--run-id", "gold-echo",
            "--gold", str(gold_path),
            "--runs-dir", str(runs_dir),
        ]
    ) == EXIT_OK
    scores = load_json(runs_dir / "gold-echo" / "scores.json")
    assert scores["emotion"]["precision"] == 1.0
    assert scores["emotion"]["recall"] == 1.0
    assert scores["emotion"]["f1"] == 1.0
    assert scores["trigger"]["exact_match"] == 1.0
    assert scores["trigger"]["partial_match"] == 0.0
    assert scores["trigger"]["rouge1"] == 1.0
    assert scores["trigger"]["rougeL"] == 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _pass(5, f"gold-echo run scores all ones with PM=0 in {elapsed:.2f}s")


def test_criterion_6_hand_scored_end_to_end(tmp_path):
    reviews, gold, responses, expected = load_handscored_fixture(DATA_DIR)

    # the committed expected values must match a fresh oracle computation
    oracle = oracle_score(reviews, gold, responses)
    for key, value in oracle.items():
        assert value == pytest.approx(expected[key], abs=1e-9)

    # and the pipeline must reproduce them through the CLI
    runs_dir = tmp_path / "runs"
    reviews_path = DATA_DIR / "handscored" / "reviews.jsonl"
    by_text = {reviews[rid]: responses[rid] for rid in reviews}
    with MockProviderServer(by_text) as server:
        profile = write_profile(tmp_path / "profiles.ini", server.base_url)
        assert main(
            [
                "run",
                "--corpus", str(reviews_path),
                "--strategy", "zs",
                "--profile", f"{profile}:mock",
                "--run-id", "hand-scored",
                "--runs-dir", str(runs_dir),
            ]
        ) == EXIT_OK
    assert main(
        [
            "score",
            "--run-id", "hand-scored",
            "--gold", str(DATA_DIR / "handscored" / "gold.jsonl"),
            "--runs-dir", str(runs_dir),
        ]
    ) == EXIT_OK
    scores = load_json(runs_dir / "hand-scored" / "scores.json")
    got = {
        "P": scores["emotion"]["precision"],
        "R": scores["emotion"]["recall"],
        "F1": scores["emotion"]["f1"],
        "EM": scores["trigger"]["exact_match"],
        "PM": scores["trigger"]["partial_match"],
        "R1": scores["trigger"]["rouge1"],
        "RL": scores["trigger"]["rougeL"],
    }
    for key, value in got.items():
        assert value == pytest.approx(expected[key], abs=1e-6), key
    for key in ("clean", "repaired", "unparseable"):
        assert scores["parse_stats"][key] == expected["parse_stats"][key]
    _pass(6, "hand-scored fixture reproduces the oracle metrics row to 1e-6")


def test_criterion_7_prompt_snapshots():
    review = make_review("snap-1", "The blender works perfectly and arrived two days early.", Domain.HOME, "item-9")
    rendered = {}
    for strategy, name in ((Strategy.ZS, "zs"), (Strategy.ZS_COT, "zs_cot"), (Strategy.EOT_DETECT, "eot_detect")):
        text = "\n".join(
            f"=== role: {role} ===\n{content}"
            for role, content in render_messages(build_prompt(strategy, review))
        ) + "\n"
        assert text == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8"), name
        rendered[strategy] = text

    spec = build_prompt(Strategy.EOT_DETECT, review)
    assert len(spec.instructions) == 5
    for check in ("Emotion Coverage", "Trigger Coverage", "Emotion Faithfulness", "Opinion Trigger Verifiability"):
        assert check in rendered[Strategy.EOT_DETECT]
    assert "think step-by-step" in rendered[Strategy.ZS_COT]
    assert "think step-by-step" not in rendered[Strategy.ZS]
    assert "think step-by-step" not in rendered[Strategy.EOT_DETECT]
    _pass(7, "all three prompts match pinned golden files with the required structure")


def test_criterion_8_sampling():
    plan = {"seed": 7, "items_per_group": 1, "reviews_per_item": 1, "min_tokens": 10, "max_tokens": 100}
    reviews = [
        make_review(f"t{n}", " ".join(f"w{k}" for k in range(n)), Domain.HOME, "i1")
        for n in (9, 10, 100, 101)
    ]
    kept = [r.review_id for r in filter_by_length(reviews, plan)]
    assert kept == ["t10", "t100"]

    population = list(range(1000))
    assert srswor(population, 50, 42) == srswor(population, 50, 42)

    from collections import Counter

    counts = Counter(srswor(["a", "b", "c", "d"], 1, seed)[0] for seed in range(10_000))
    p_value = chisquare([counts[x] for x in "abcd"]).pvalue
    assert p_value > 0.01
    _pass(8, f"length boundaries inclusive, seeded draws byte-stable, chi-square p={p_value:.3f}")


def test_criterion_9_gold_statistics_shape():
    r1 = make_review("h1", "Great pan, heats evenly every single time", Domain.HOME, "i1")
    r2 = make_review("h2", "The lid broke after a week of use", Domain.HOME, "i2")
    r3 = make_review("y1", "Lovely patio and the espresso is amazing", Domain.YELP, "i3")
    g1, _ = aggregate_gold(unanimous(
        annotate(r1, {EmotionLabel.JOY: ["heats evenly every single time"], EmotionLabel.TRUST: ["Great pan"]})
    ))
    g2, _ = aggregate_gold(unanimous(annotate(r2, {EmotionLabel.SADNESS: ["broke after a week"]})))
    g3, _ = aggregate_gold(unanimous(annotate(r3, {EmotionLabel.JOY: ["Lovely patio", "the espresso is amazing"]})))
    stats = gold_statistics([g1, g2, g3], {"h1": r1, "h2": r2, "y1": r3})

    home = stats["per_domain"]["Home"]
    assert home["total_emotions"] == 3
    assert home["avg_emotions_per_review"] == pytest.approx(1.5, abs=1e-9)
    joy_home = home["per_emotion"]["Joy"]
    assert joy_home["count"] == 1
    assert joy_home["share"] == pytest.approx(1 / 3, abs=1e-9)
    assert joy_home["total_triggers"] == 1
    assert joy_home["avg_triggers"] == pytest.approx(1.0, abs=1e-9)
    assert joy_home["avg_trigger_tokens"] == pytest.approx(5.0, abs=1e-9)

    yelp_joy = stats["per_domain"]["Yelp"]["per_emotion"]["Joy"]
    assert yelp_joy["total_triggers"] == 2
    assert yelp_joy["avg_triggers"] == pytest.approx(2.0, abs=1e-9)
    assert yelp_joy["avg_trigger_tokens"] == pytest.approx(3.0, abs=1e-9)  # (2 + 4) / 2

    overall = stats["overall"]
    assert overall["total_emotions"] == 4
    assert overall["avg_emotions_per_review"] == pytest.approx(4 / 3, abs=1e-9)
    assert overall["per_emotion"]["Joy"]["count"] == 2
    assert overall["per_emotion"]["Joy"]["share"] == pytest.approx(0.5, abs=1e-9)

    table = render_gold_statistics(stats)
    lines = table.splitlines()
    header = lines[0].split()
    assert header[0] == "Metric"
    for domain in Domain:
        assert domain.value in lines[0]
    assert "Overall" in lines[0]
    assert sum(1 for line in lines if line.startswith("[Emotion:")) == 9
    for row_name in ("Count (Percentage)", "Total Triggers", "Avg Triggers per Emotion", "Avg Trigger Length (words)"):
        assert any(line.startswith(row_name) for line in lines)
    _pass(9, "gold statistics match hand-computed values and emit the table structure")
