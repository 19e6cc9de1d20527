from __future__ import annotations

import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from eotbench import metrics
from eotbench.annotation import aggregate_gold
from eotbench.errors import DataError
from eotbench.metrics import (
    align_and_average_rouge,
    confusion_matrix,
    emotion_prf,
    rouge1,
    rougeL,
    score_predictions,
    score_row,
    trigger_em_pm,
)
from eotbench.model import (
    Domain,
    EmotionLabel,
    EmotionTriggers,
    EotOutput,
    PRIMARY_EMOTIONS,
    Review,
    TriggerSpan,
    locate_span,
    tokenize,
)
from conftest import make_review
from oracles import brute_clipped_overlap, brute_lcs, oracle_score_report, prf_from_overlap
from test_annotation import annotate, unanimous

JOY = EmotionLabel.JOY
TRUST = EmotionLabel.TRUST
ANGER = EmotionLabel.ANGER
NEUTRAL = EmotionLabel.NEUTRAL


def output(review: Review, emotions: dict[EmotionLabel, list[str]]) -> EotOutput:
    pairs = tuple(
        EmotionTriggers(e, tuple(locate_span(review.text, t) for t in triggers))
        for e, triggers in emotions.items()
    )
    return EotOutput(review.review_id, pairs)


def gold_for(review: Review, emotions: dict[EmotionLabel, list[str]]) -> EotOutput:
    return aggregate_gold(unanimous(annotate(review, emotions)))[0]


class TestEmotionPrf:
    def test_spec_example(self):
        review = make_review(text="The blender works perfectly and arrived two days early, amazing")
        gold = gold_for(review, {JOY: ["works perfectly"], TRUST: ["arrived two days early"]})
        pred = output(review, {JOY: ["works perfectly"], TRUST: ["arrived"], ANGER: ["amazing"]})
        scores = emotion_prf([pred], [gold])
        assert scores["precision"] == pytest.approx(2 / 3)
        assert scores["recall"] == 1.0
        assert scores["f1"] == pytest.approx(0.8)

    def test_identity(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"]})
        scores = emotion_prf([gold], [gold])
        assert (scores["precision"], scores["recall"], scores["f1"]) == (1.0, 1.0, 1.0)

    def test_neutral_participates_as_a_label(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"]})
        pred = output(review, {NEUTRAL: []})
        scores = emotion_prf([pred], [gold])
        assert scores["precision"] == 0.0
        assert scores["recall"] == 0.0
        assert scores["per_emotion"][NEUTRAL.value]["support"] == 0

    def test_missing_gold(self):
        review = make_review()
        with pytest.raises(DataError, match="^no gold record for review 'r1'$"):
            emotion_prf([output(review, {NEUTRAL: []})], [])

    def test_recall_monotonicity_when_adding_correct_prediction(self):
        review1 = make_review("r1")
        review2 = make_review("r2")
        golds = [
            gold_for(review1, {JOY: ["works perfectly"], TRUST: ["arrived two days early"]}),
            gold_for(review2, {JOY: ["works perfectly"]}),
        ]
        before = emotion_prf(
            [output(review1, {JOY: ["works perfectly"]}), output(review2, {NEUTRAL: []})], golds
        )
        after = emotion_prf(
            [
                output(review1, {JOY: ["works perfectly"], TRUST: ["arrived two days early"]}),
                output(review2, {NEUTRAL: []}),
            ],
            golds,
        )
        assert after["recall"] > before["recall"]

    def test_per_emotion_breakdown(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"]})
        pred = output(review, {TRUST: ["works perfectly"]})
        scores = emotion_prf([pred], [gold])
        assert scores["per_emotion"][JOY.value]["recall"] == 0.0
        assert scores["per_emotion"][JOY.value]["support"] == 1
        assert scores["per_emotion"][TRUST.value]["precision"] == 0.0


class TestTriggerEmPm:
    def test_spec_example_em_and_no_token_overlap(self):
        review = make_review(
            text="Non slip, great arch support and it fits well for daily use"
        )
        gold = gold_for(review, {JOY: ["Non slip, great arch support", "great arch"]})
        # gold aggregation retains only the longest overlapping span
        assert [s.text for s in gold.triggers_for(JOY)] == [
            "Non slip, great arch support"
        ]
        pred = output(review, {JOY: ["Non slip, great arch support", "it fits well"]})
        em, pm, counts = trigger_em_pm([pred], [gold])
        assert em == 0.5
        assert pm == 0.0
        assert counts["n_em"] + counts["n_pm"] + counts["n_nomatch"] == counts["n_pred"] == 2

    def test_token_overlap_is_partial_match(self):
        review = make_review(text="Non slip, great arch support")
        gold = gold_for(review, {JOY: ["Non slip, great arch support"]})
        pred = output(review, {JOY: ["great arch"]})
        em, pm, _ = trigger_em_pm([pred], [gold])
        assert (em, pm) == (0.0, 1.0)

    def test_empty_prediction(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"]})
        em, pm, counts = trigger_em_pm([EotOutput(review.review_id, ())], [gold])
        assert (em, pm) == (0.0, 0.0)
        assert counts["n_pred"] == 0
        assert counts["n_gold"] == 1

    def test_prediction_under_emotion_absent_from_gold_is_nomatch(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"]})
        pred = output(review, {ANGER: ["works perfectly"]})
        em, pm, counts = trigger_em_pm([pred], [gold])
        assert (em, pm) == (0.0, 0.0)
        assert counts["n_nomatch"] == 1

    def test_em_uses_normalized_text(self):
        review = make_review(text="LOVE the fit. love the fit")
        gold = gold_for(review, {JOY: ["LOVE the fit"]})
        pred = output(review, {JOY: ["love the fit"]})
        em, _, _ = trigger_em_pm([pred], [gold])
        assert em == 1.0


class TestRouge:
    def test_identical_bags(self):
        assert rouge1("battery life great".split(), "great battery life".split()).f1 == 1.0

    def test_clipped_multiset(self):
        score = rouge1(["good", "good"], ["good"])
        assert score.precision == 0.5
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert rouge1(["awful"], ["great"]).f1 == 0.0

    def test_rouge_l_spec_cases(self):
        score = rougeL("the shoes fit great".split(), "shoes fit great".split())
        assert score.precision == 0.75
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(0.857142857142857)
        assert rougeL("great battery life".split(), "battery life great".split()).f1 == pytest.approx(2 / 3)

    def test_identical_sequences(self):
        assert rougeL(["a", "b", "c"], ["a", "b", "c"]) == (1.0, 1.0, 1.0)

    def test_empty_conventions(self):
        assert rouge1([], []) == (1.0, 1.0, 1.0)
        assert rougeL([], []) == (1.0, 1.0, 1.0)
        assert rouge1([], ["x"]) == (0.0, 0.0, 0.0)
        assert rougeL(["x"], []) == (0.0, 0.0, 0.0)

    @given(
        st.lists(st.sampled_from("abcde"), max_size=12),
        st.lists(st.sampled_from("abcde"), max_size=12),
    )
    def test_matches_brute_force_oracles(self, a, b):
        expected_l = prf_from_overlap(brute_lcs(tuple(a), tuple(b)), len(a), len(b))
        got_l = rougeL(a, b)
        assert got_l == pytest.approx(expected_l, abs=1e-12)
        expected_1 = prf_from_overlap(brute_clipped_overlap(a, b), len(a), len(b))
        assert rouge1(a, b) == pytest.approx(expected_1, abs=1e-12)

    @given(
        st.lists(st.sampled_from("abc"), max_size=10),
        st.lists(st.sampled_from("abc"), max_size=10),
    )
    def test_f1_symmetry_and_ordering(self, a, b):
        assert rougeL(a, b).f1 == pytest.approx(rougeL(b, a).f1, abs=1e-12)
        assert rouge1(a, b).f1 == pytest.approx(rouge1(b, a).f1, abs=1e-12)
        assert rougeL(a, b).f1 <= rouge1(a, b).f1 + 1e-12


class TestAlignAndAverageRouge:
    def test_perfect_predictions(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly", "arrived two days early"]})
        r1, rl = align_and_average_rouge([gold], [gold])
        assert (r1, rl) == (1.0, 1.0)

    def test_no_predictions(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"]})
        r1, rl = align_and_average_rouge([EotOutput(review.review_id, ())], [gold])
        assert (r1, rl) == (0.0, 0.0)

    def test_one_of_two_gold_triggers_matched(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly", "arrived two days early"]})
        pred = output(review, {JOY: ["works perfectly"]})
        r1, rl = align_and_average_rouge([pred], [gold])
        assert rl == 0.5
        assert r1 == 0.5

    def test_greedy_alignment_is_one_to_one(self):
        review = make_review(text="good fit good price good value")
        gold = gold_for(review, {JOY: ["good fit", "good price"]})
        pred = output(review, {JOY: ["good fit"]})
        r1, rl = align_and_average_rouge([pred], [gold])
        # the single prediction pairs with "good fit" (F1 1.0); "good price" gets 0
        assert rl == 0.5

    def test_all_neutral_gold_is_vacuously_perfect(self):
        review = make_review()
        gold = gold_for(review, {NEUTRAL: []})
        r1, rl = align_and_average_rouge([gold], [gold])
        assert (r1, rl) == (1.0, 1.0)


class TestConfusionMatrix:
    def test_single_substitution(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"]})
        pred = output(review, {TRUST: ["works perfectly"]})
        matrix = confusion_matrix([pred], [gold])
        assert matrix[TRUST.value][JOY.value] == 1.0

    def test_identity_hits_diagonal_only(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"], TRUST: ["arrived two days early"]})
        matrix = confusion_matrix([gold], [gold])
        assert matrix[JOY.value][JOY.value] == 1.0
        assert matrix[TRUST.value][TRUST.value] == 1.0
        off_diagonal = sum(
            matrix[p.value][g.value] for p in EmotionLabel for g in EmotionLabel if p is not g
        )
        assert off_diagonal == 0.0

    def test_fractional_weighting(self):
        review = make_review()
        gold = gold_for(review, {JOY: ["works perfectly"]})
        pred = output(review, {TRUST: ["works perfectly"], EmotionLabel.FEAR: ["arrived"]})
        matrix = confusion_matrix([pred], [gold])
        assert matrix[TRUST.value][JOY.value] == 0.5
        assert matrix[EmotionLabel.FEAR.value][JOY.value] == 0.5


class TestGoldEcho:
    def test_scoring_gold_against_itself_is_all_ones_with_pm_zero(self):
        reviews = [
            make_review("r1", "The fit is perfect and shipping was fast", Domain.CLOTHING, "i1"),
            make_review("r2", "The screen cracked on the first day", Domain.ELECTRONICS, "i2"),
            make_review("r3", "Works fine.", Domain.HOME, "i3"),
        ]
        golds = [
            gold_for(reviews[0], {JOY: ["fit is perfect", "shipping was fast"]}),
            gold_for(reviews[1], {EmotionLabel.SADNESS: ["screen cracked on the first day"]}),
            gold_for(reviews[2], {NEUTRAL: []}),
        ]
        report = score_predictions(golds, golds)
        assert score_row(report) == (1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0)


class TestRandomizedPartition:
    def test_em_pm_nomatch_always_partition(self):
        rng = random.Random(11)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        for _ in range(300):
            text = " ".join(rng.choice(words) for _ in range(12))
            review = make_review("r1", text, Domain.HOME, "i1")
            def random_triggers():
                k = rng.randrange(1, 3)
                out = []
                for _ in range(k):
                    start = rng.randrange(0, len(text) - 5)
                    end = rng.randrange(start + 1, len(text))
                    chunk = text[start:end].strip()
                    if chunk:
                        out.append(chunk)
                return out or [text.split()[0]]
            gold_emos = {JOY: random_triggers()}
            pred_emos = {}
            for emotion in (JOY, TRUST):
                if rng.random() < 0.7:
                    triggers = random_triggers()
                    if triggers:
                        pred_emos[emotion] = triggers
            gold = gold_for(review, gold_emos)
            pred = output(review, pred_emos) if pred_emos else EotOutput("r1", ())
            _, _, counts = trigger_em_pm([pred], [gold])
            assert counts["n_em"] + counts["n_pm"] + counts["n_nomatch"] == counts["n_pred"]


# Reviews from a small vocabulary, so random triggers share tokens. Case and
# whitespace variants of a gold trigger take the exact-match path; a gold
# trigger with a word added takes the partial-match path.
WORDS = ("great", "Great", "GREAT", "battery", "battery,", "died", "fan", "bad!", "the", "...")
SEPARATORS = (" ", "  ", "\n", " - ")
VARIANTS = (
    str,
    str.upper,
    str.swapcase,
    lambda t: f"  {t}\t",
    lambda t: "\n".join(t.split(" ")),
    lambda t: f"the {t}",
    lambda t: f"{t} fan",
)
# Predictions draw from five labels and gold from four, so both predicted
# labels absent from gold and gold labels the prediction misses are common.
PRED_LABELS = PRIMARY_EMOTIONS[:5]
GOLD_LABELS = PRIMARY_EMOTIONS[1:5]


@st.composite
def substring_span(draw, text: str) -> TriggerSpan:
    start = draw(st.integers(0, len(text) - 1))
    end = draw(st.integers(start + 1, min(len(text), start + 30)))
    return TriggerSpan(text[start:end], start, end)


@st.composite
def eot_output(draw, review_id: str, text: str, labels, gold: EotOutput | None = None):
    kind = draw(st.sampled_from(("empty", "neutral", "emotions", "emotions", "emotions")))
    if kind == "empty":
        return EotOutput(review_id, ())
    if kind == "neutral":
        return EotOutput(review_id, (EmotionTriggers(NEUTRAL, ()),))
    if gold is not None:  # favour the gold labels, so that triggers meet gold ones
        labels = (*labels, *[p.emotion for p in gold.pairs if p.triggers] * 3)
    emotions = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    pairs = []
    for emotion in emotions:
        gold_spans = gold.triggers_for(emotion) if gold is not None else ()
        spans = []
        for _ in range(draw(st.integers(1, 3))):
            if gold_spans and draw(st.booleans()):
                variant = draw(st.sampled_from(VARIANTS))(draw(st.sampled_from(gold_spans)).text)
                spans.append(TriggerSpan(variant, 0, len(variant)))
            else:
                spans.append(draw(substring_span(text)))
        pairs.append(EmotionTriggers(emotion, tuple(spans)))
    return EotOutput(review_id, tuple(pairs))


@st.composite
def scored_sets(draw):
    """(predictions, gold outputs), with gold for some reviews that are not predicted."""
    pred, gold = [], []
    for i in range(draw(st.integers(1, 10))):
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))
        seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(words), max_size=len(words)))
        text = "".join(w + s for w, s in zip(words, seps))
        expected = draw(eot_output(f"r{i}", text, GOLD_LABELS))
        gold.append(expected)
        if draw(st.integers(0, 4)):
            pred.append(draw(eot_output(f"r{i}", text, PRED_LABELS, expected)))
    return draw(st.permutations(pred)), draw(st.permutations(gold))


class TestOnePassMatchesTheFourWalks:
    @settings(max_examples=300, deadline=None)
    @given(scored_sets())
    def test_every_field_is_identical(self, data):
        pred, gold = data
        report = score_predictions(pred, gold)
        # key order and every value, as scores.json holds them
        assert json.dumps(report) == json.dumps(oracle_score_report(pred, gold))
        assert sum(len(row) for row in report["confusion"].values()) == 81
        emotion, trigger = report["emotion"], report["trigger"]
        assert emotion_prf(pred, gold) == emotion
        assert trigger_em_pm(pred, gold) == (trigger["exact_match"], trigger["partial_match"], trigger["counts"])
        assert align_and_average_rouge(pred, gold) == (trigger["rouge1"], trigger["rougeL"])
        assert confusion_matrix(pred, gold) == report["confusion"]

    @settings(max_examples=50, deadline=None)
    @given(scored_sets())
    def test_a_prediction_without_gold_raises_in_both(self, data):
        pred, gold = data
        orphan = EotOutput("no-gold", (EmotionTriggers(NEUTRAL, ()),))
        for scorer in (score_predictions, oracle_score_report):
            with pytest.raises(DataError, match="^no gold record for review 'no-gold'$"):
                scorer([*pred, orphan], gold)

    @settings(max_examples=100, deadline=None)
    @given(scored_sets())
    def test_each_trigger_is_tokenized_once(self, data):
        # only a (review, emotion) pair that both sides have is tokenized
        pred, gold = data
        gold_map = {g.review_id: g for g in gold}
        expected = sum(
            len(output.triggers_for(emotion)) + len(gold_map[output.review_id].triggers_for(emotion))
            for output in pred
            for emotion in output.emotions & gold_map[output.review_id].emotions
        )
        with mock.patch.object(metrics, "tokenize", wraps=tokenize) as counted:
            score_predictions(pred, gold)
        assert counted.call_count == expected

    def test_a_review_sharing_no_emotion_tokenizes_nothing(self):
        review = make_review(text="The battery died but the fan is great.")
        gold = gold_for(review, {JOY: ["fan is great"], ANGER: ["battery died"]})
        pred = output(review, {TRUST: ["fan is great"], EmotionLabel.SADNESS: ["battery died"]})
        with mock.patch.object(metrics, "tokenize", wraps=tokenize) as counted:
            report = score_predictions([pred], [gold])
        assert counted.call_count == 0
        trigger = report["trigger"]
        assert trigger["counts"] == {"n_pred": 2, "n_gold": 2, "n_em": 0, "n_pm": 0, "n_nomatch": 2}
        assert (trigger["rouge1"], trigger["rougeL"]) == (0.0, 0.0)


TOKEN_LISTS = st.lists(st.sampled_from("abcd"), max_size=8)


class TestPairF1FastPaths:
    """The pair-F1 helpers equal the public ROUGE F1s bit for bit."""

    @given(st.one_of(
        st.tuples(TOKEN_LISTS, TOKEN_LISTS),
        TOKEN_LISTS.map(lambda a: (a, list(a))),  # identical
        st.tuples(st.lists(st.sampled_from("ab"), max_size=6), st.lists(st.sampled_from("cd"), max_size=6)),
        st.tuples(st.lists(st.sampled_from("ab"), min_size=3, max_size=8),
                  st.lists(st.sampled_from("ab"), min_size=3, max_size=8)),  # repeats
    ))
    @example(([], []))
    @example(([], ["a"]))
    @example((["a", "a"], ["a"]))
    @example((["a", "b", "a"], ["b", "a", "a"]))
    def test_equal_to_rougeL_and_rouge1(self, pair):
        a, b = pair
        assert metrics._rougeL_f1(a, b) == rougeL(a, b).f1
        assert metrics._rouge1_f1(a, b) == rouge1(a, b).f1
        assert metrics._rouge(metrics._lcs_length(a, b), len(a), len(b))[2] == rougeL(a, b).f1

    def test_identical_lists_skip_the_lcs(self):
        with mock.patch.object(metrics, "_lcs_length") as lcs:
            assert metrics._rougeL_f1(["great", "fan"], ["great", "fan"]) == 1.0
            assert metrics._rougeL_f1([], []) == 1.0
        lcs.assert_not_called()
