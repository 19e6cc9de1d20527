from __future__ import annotations

import csv
import json
import math
import random
import re
from unittest import mock

import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from eotbench.annotation import (
    aggregate_gold,
    build_agreement_report,
    cohen_kappa,
    fleiss_kappa,
    gold_statistics,
    kappa_from_binary_pairs,
    load_annotations,
    load_gold,
    render_agreement_report,
    resolve_overlaps,
    trigger_token_kappa,
)
from eotbench.errors import DataError
from eotbench.jsonio import write_jsonl
from eotbench.model import (
    Domain,
    EmotionLabel,
    EmotionTriggers,
    EotOutput,
    Review,
    TriggerSpan,
    locate_span,
)
from conftest import DEEPLY_NESTED, make_review, over_long_integer
from oracles import EMOTIONS, oracle_agreement_report

JOY = EmotionLabel.JOY
TRUST = EmotionLabel.TRUST
NEUTRAL = EmotionLabel.NEUTRAL


def annotate(review: Review, emotions: dict[EmotionLabel, list[str]]) -> EotOutput:
    """One annotator's output on ``review``: each emotion with its triggers, located in the text."""
    pairs = tuple(
        EmotionTriggers(emotion, tuple(locate_span(review.text, t) for t in triggers))
        for emotion, triggers in emotions.items()
    )
    return EotOutput(review.review_id, pairs)


def neutral_annotation(review: Review) -> EotOutput:
    return annotate(review, {NEUTRAL: []})


def unanimous(output: EotOutput) -> dict[str, EotOutput]:
    """Annotators A1, A2 and A3, each giving ``output``."""
    return {annotator: output for annotator in ("A1", "A2", "A3")}


class TestAggregateGold:
    def test_majority_vote_inclusion(self, sample_review):
        r = sample_review
        gold, provenance = aggregate_gold({
            "A1": annotate(r, {JOY: ["works perfectly"]}),
            "A2": annotate(r, {JOY: ["works perfectly"], TRUST: ["arrived two days early"]}),
            "A3": annotate(r, {JOY: ["works perfectly"]}),
        })
        assert gold.emotions == {JOY}
        assert provenance["emotion_votes"] == {"Joy": 3, "Trust": 1}

    def test_longest_overlapping_span_retained(self):
        review = make_review(text="I am very happy today with it")
        gold, _ = aggregate_gold({
            "A1": annotate(review, {JOY: ["very happy"]}),
            "A2": annotate(review, {JOY: ["happy"]}),
            "A3": annotate(review, {JOY: ["very happy"]}),
        })
        assert [s.text for s in gold.triggers_for(JOY)] == ["very happy"]

    def test_unanimous_neutral(self, sample_review):
        gold, provenance = aggregate_gold(unanimous(neutral_annotation(sample_review)))
        assert gold.emotions == {NEUTRAL}
        assert provenance["no_majority"] is False

    def test_no_majority_falls_back_to_neutral(self, sample_review):
        r = sample_review
        gold, provenance = aggregate_gold({
            "A1": annotate(r, {JOY: ["works perfectly"]}),
            "A2": annotate(r, {TRUST: ["arrived two days early"]}),
            "A3": annotate(r, {EmotionLabel.SURPRISE: ["arrived two days early"]}),
        })
        assert gold.emotions == {NEUTRAL}
        assert provenance["no_majority"] is True

    def test_permutation_invariance(self, sample_review):
        r = sample_review
        records = [
            ("A1", annotate(r, {JOY: ["works perfectly"]})),
            ("A2", annotate(r, {JOY: ["works perfectly and arrived"], TRUST: ["arrived two days early"]})),
            ("A3", annotate(r, {JOY: ["perfectly"], TRUST: ["two days early"]})),
        ]
        baseline, _ = aggregate_gold(dict(records))
        for permutation in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            shuffled = dict(records[i] for i in permutation)
            assert aggregate_gold(shuffled)[0] == baseline

    def test_trigger_union_deduplicates_normalized_text(self):
        review = make_review(text="Loved the fit. loved the fit again")
        gold, provenance = aggregate_gold({
            "A1": annotate(review, {JOY: ["Loved the fit"]}),
            "A2": annotate(review, {JOY: ["loved the fit"]}),
            "A3": annotate(review, {NEUTRAL: []}),
        })
        triggers = gold.triggers_for(JOY)
        assert len(triggers) == 1
        prov = provenance["trigger_annotators"][0]
        assert set(prov["annotators"]) == {"A1", "A2"}

    def test_pooled_spans_credit_every_annotator_of_their_normalized_text(self):
        review = make_review(text="Loved the fit. loved the fit again, very happy today")
        _, provenance = aggregate_gold({
            "A1": annotate(review, {JOY: ["Loved the fit", "very happy"], TRUST: ["today"]}),
            "A2": annotate(review, {JOY: ["loved the fit", "happy today"]}),
            "A3": annotate(review, {JOY: ["very happy today"], TRUST: ["fit again"]}),
        })
        assert provenance["trigger_annotators"] == [
            {"emotion": "Joy", "text": "Loved the fit", "annotators": ["A1", "A2"]},
            {"emotion": "Joy", "text": "very happy today", "annotators": ["A3"]},
            {"emotion": "Trust", "text": "fit again", "annotators": ["A3"]},
            {"emotion": "Trust", "text": "today", "annotators": ["A1"]},
        ]

    def test_wrong_count_and_mismatched_ids(self, sample_review):
        outputs = {a: neutral_annotation(sample_review) for a in ("A1", "A2")}
        with pytest.raises(DataError, match="^need exactly 3 records, got 2$"):
            aggregate_gold(outputs)
        other = make_review(review_id="other")
        with pytest.raises(DataError, match=re.escape("records span several reviews: ['other', 'r1']")):
            aggregate_gold({**outputs, "A3": neutral_annotation(other)})

    def test_retained_triggers_never_overlap(self):
        review = make_review(text="abcdefghij klmnop qrstuv wxyz abc")
        rng = random.Random(5)
        for _ in range(200):
            spans = []
            for _ in range(rng.randrange(1, 6)):
                start = rng.randrange(0, len(review.text) - 1)
                end = rng.randrange(start + 1, len(review.text) + 1)
                spans.append(locate_span(review.text, review.text[start:end]))
            kept = resolve_overlaps(spans)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    assert not a.overlaps(b)
            longest = max(len(s.text) for s in spans)
            assert max(len(s.text) for s in kept) == longest


# Words of the pooled reviews: case variants, a trailing comma, repeats.
_POOL_WORDS = ("good", "Good", "GOOD", "fit", "Fit", "very", "good,")
_POOL_SEPARATORS = (" ", " ", "  ", "\t", " \n")
_POOL_LABELS = (JOY, TRUST, EmotionLabel.ANGER)


@st.composite
def pooled_annotations(draw):
    """Three annotators' outputs on one review, as annotator id -> output, in
    a drawn order. Each annotator marks Neutral, nothing, or one to three
    emotions whose triggers come from one pool of substrings: shared spans,
    spans of one text at two places, spans that fold to one text, overlaps."""
    words = draw(st.lists(st.sampled_from(_POOL_WORDS), min_size=2, max_size=8))
    seps = draw(st.lists(st.sampled_from(_POOL_SEPARATORS), min_size=len(words) - 1, max_size=len(words) - 1))
    text = words[0] + "".join(sep + word for sep, word in zip(seps, words[1:]))
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, len(text) - 1))
        end = draw(st.integers(start + 1, min(len(text), start + 16)))
        pool.append(TriggerSpan(text[start:end], start, end))
    outputs = {}
    for annotator in draw(st.permutations(["A1", "A2", "A3"])):
        kind = draw(st.sampled_from(["emotions", "emotions", "emotions", "neutral", "empty"]))
        labels = [] if kind == "empty" else [NEUTRAL] if kind == "neutral" else draw(
            st.lists(st.sampled_from(_POOL_LABELS), min_size=1, max_size=3, unique=True)
        )
        pairs = []
        for label in labels:
            spans = [] if label is NEUTRAL else draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            pairs.append(EmotionTriggers(label, spans))
        outputs[annotator] = EotOutput("r1", tuple(pairs))
    return outputs


def _joy(*spans: tuple[str, int]) -> EotOutput:
    return EotOutput("r1", (EmotionTriggers(JOY, tuple(TriggerSpan(t, at, at + len(t)) for t, at in spans)),))


class TestAggregateGoldMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(pooled_annotations())
    # "good fit" and "fit good" overlap and are as long: the leftmost is kept
    @example({"A1": _joy(("fit good", 5)), "A2": _joy(("good fit", 0)), "A3": _joy(("good", 9))})
    # one text at two places, and its case variant: the earliest is kept
    @example({"A1": _joy(("good", 9)), "A2": _joy(("Good", 0)), "A3": _joy(("good", 5))})
    def test_gold_and_provenance_match_the_brute_force_oracle(self, outputs):
        expected_output, expected_provenance = oracles.oracle_aggregate_gold(outputs)
        gold, provenance = aggregate_gold(outputs)
        assert gold == expected_output
        # key order and every value, as the gold line holds them
        assert json.dumps(provenance) == json.dumps(expected_provenance)


class TestKappa:
    def test_perfect_agreement_is_exactly_one(self):
        sets = [{JOY}, {TRUST, JOY}, set(), {NEUTRAL}]
        assert cohen_kappa(sets, list(sets)) == 1.0

    def test_hand_derived_binary_case(self):
        # both-yes 4, both-no 4, one disagreement each way: po=0.8, pe=0.5
        pairs = (
            [(True, True)] * 4 + [(False, False)] * 4 + [(True, False), (False, True)]
        )
        assert kappa_from_binary_pairs(pairs) == pytest.approx(0.6, abs=1e-12)

    def test_independent_random_labeling_is_near_zero(self):
        rng = random.Random(123)
        pairs = [(rng.random() < 0.4, rng.random() < 0.4) for _ in range(10_000)]
        assert abs(kappa_from_binary_pairs(pairs)) < 0.05

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DataError):
            cohen_kappa([{JOY}], [{JOY}, {TRUST}])

    def test_fleiss_unanimous(self):
        assert fleiss_kappa([(3, 0), (0, 3), (3, 0)]) == 1.0

    def test_fleiss_hand_case(self):
        # two items over {Joy, Trust}: P_bar = 2/3, P_bar_e = 5/9
        assert fleiss_kappa([(3, 0), (1, 2)]) == pytest.approx(0.25, abs=1e-9)

    def test_fleiss_uniform_random(self):
        rng = random.Random(99)
        rows = []
        for _ in range(10_000):
            counts = [0, 0, 0]
            for _ in range(3):
                counts[rng.randrange(3)] += 1
            rows.append(counts)
        assert abs(fleiss_kappa(rows)) < 0.05

    def test_fleiss_requires_equal_row_sums(self):
        with pytest.raises(DataError):
            fleiss_kappa([(3, 0), (2, 2)])

    @pytest.mark.parametrize("matrix", [[(3, 0), (1, 1, 1)], [3, 0], [], [[]]])
    def test_fleiss_requires_an_items_by_categories_matrix(self, matrix):
        # the ragged rows both sum to 3
        with pytest.raises(DataError):
            fleiss_kappa(matrix)


class TestTriggerTokenKappa:
    def test_identical_spans_everywhere(self):
        review = make_review(text="I am very happy today")
        annotations = {"r1": {a: annotate(review, {JOY: ["very happy"]}) for a in ("A1", "A2")}}
        per_domain, overall = trigger_token_kappa(annotations, {"r1": review})
        assert per_domain[("A1", "A2")][review.domain.value] == 1.0
        assert overall[("A1", "A2")] == 1.0

    def test_partial_overlap_hand_case(self):
        # tokens: i, am, very, happy, today; A1 covers very+happy, A2 covers happy
        # observed agreement 4/5, marginals 2/5 and 1/5 -> kappa = 6/11
        review = make_review(text="I am very happy today")
        annotations = {"r1": {"A1": annotate(review, {JOY: ["very happy"]}), "A2": annotate(review, {JOY: ["happy"]})}}
        _, overall = trigger_token_kappa(annotations, {"r1": review})
        assert overall[("A1", "A2")] == pytest.approx(6 / 11, abs=1e-12)

    def test_no_triggers_on_either_side_is_vacuously_perfect(self):
        review = make_review()
        annotations = {"r1": {"A1": neutral_annotation(review), "A2": neutral_annotation(review)}}
        _, overall = trigger_token_kappa(annotations, {"r1": review})
        assert overall[("A1", "A2")] == 1.0


class TestAgreementReport:
    def _three_annotator_corpus(self):
        beauty = make_review("b1", "I am very happy with this cream", Domain.BEAUTY, "i1")
        yelp = make_review("y1", "The soup was cold and the staff was rude", Domain.YELP, "i2")
        annotations = {
            "b1": {
                "A1": annotate(beauty, {JOY: ["very happy"]}),
                "A2": annotate(beauty, {JOY: ["very happy"]}),
                "A3": annotate(beauty, {JOY: ["happy"]}),
            },
            "y1": {
                "A1": annotate(yelp, {EmotionLabel.ANGER: ["the staff was rude"]}),
                "A2": annotate(yelp, {EmotionLabel.ANGER: ["staff was rude"]}),
                "A3": annotate(yelp, {EmotionLabel.DISGUST: ["The soup was cold"]}),
            },
        }
        return {"b1": beauty, "y1": yelp}, annotations

    def test_report_structure(self):
        reviews, annotations = self._three_annotator_corpus()
        report = build_agreement_report(annotations, reviews)
        assert list(report) == [
            "pairwise_emotion_kappa", "pairwise_emotion_overall", "fleiss_emotion_kappa", "fleiss_emotion_overall",
            "pairwise_trigger_token_kappa", "pairwise_trigger_token_overall",
            "fleiss_trigger_token_kappa", "fleiss_trigger_token_overall",
        ]
        assert set(report["pairwise_emotion_kappa"]) == {("A1", "A2"), ("A1", "A3"), ("A2", "A3")}
        # the table runs domains in DOMAIN_ORDER, adjacent pairs first, then the first with the last
        table = list(csv.reader(render_agreement_report(report, "csv").splitlines()[1:]))
        assert table[0] == ["Domain", "A1/A2", "A2/A3", "A1/A3", "Average", "Fleiss"]
        assert [row[0] for row in table[1:4]] == ["[Emotion Agreement]", "Beauty", "Yelp"]
        for by_domain in report["pairwise_emotion_kappa"].values():
            for value in by_domain.values():
                assert -1.0 <= value <= 1.0 or value != value
        assert report["fleiss_emotion_overall"] is not None

    def test_identical_annotators_score_one_everywhere(self):
        reviews, _ = self._three_annotator_corpus()
        annotations = {rid: unanimous(annotate(review, {JOY: [review.text]})) for rid, review in reviews.items()}
        report = build_agreement_report(annotations, reviews)
        for by_domain in report["pairwise_emotion_kappa"].values():
            assert all(v == 1.0 for v in by_domain.values())
        for by_domain in report["pairwise_trigger_token_kappa"].values():
            assert all(v == 1.0 for v in by_domain.values())
        assert report["fleiss_emotion_overall"] == 1.0
        assert report["fleiss_trigger_token_overall"] == 1.0

    def test_csv_keeps_a_comma_in_an_annotator_id(self):
        reviews, annotations = self._three_annotator_corpus()
        renamed = {
            review_id: {"A,1" if a == "A1" else a: output for a, output in outputs.items()}
            for review_id, outputs in annotations.items()
        }
        text = render_agreement_report(build_agreement_report(renamed, reviews), "csv")
        note, *lines = text.splitlines()
        assert note.startswith("# ")
        rows = list(csv.reader(lines))
        assert rows[0] == ["Domain", "A,1/A2", "A2/A3", "A,1/A3", "Average", "Fleiss"]
        assert {len(row) for row in rows} == {6}


def _assert_same_kappas(got: dict, expected: dict) -> None:
    def same(a, b) -> bool:
        if a is None or b is None:
            return a is b
        return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12

    assert got.keys() == expected.keys()
    for field, want in expected.items():
        if isinstance(want, dict):
            assert got[field].keys() == want.keys(), field
            for key, value in want.items():
                if isinstance(value, dict):
                    assert got[field][key].keys() == value.keys(), (field, key)
                    assert all(same(got[field][key][d], value[d]) for d in value), (field, key)
                else:
                    assert same(got[field][key], value), (field, key)
        else:
            assert same(got[field], want), field


# Words of the random reviews: plain, punctuated, and punctuation only.
_WORDS = ("good", "Bad!", "very", "«ok»", "it's", "--", "!!", "...", "fine,", "(so)")


_real_oracle_fleiss = oracles._oracle_fleiss


def _nan_when_empty(rows) -> float:
    return _real_oracle_fleiss(rows) if len(rows) else float("nan")


@st.composite
def annotated_corpora(draw):
    """1-4 reviews over 1-2 domains, each rated by one, two or all three of
    A1-A3: emotions whose triggers are random substrings (punctuation and
    whitespace included), Neutral, or an empty output."""
    domains = draw(st.lists(st.sampled_from(list(Domain)), min_size=1, max_size=2, unique=True))
    reviews, annotations = {}, {}
    for i in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8))
        review = reviews[f"r{i}"] = make_review(f"r{i}", " ".join(words), draw(st.sampled_from(domains)), f"item{i}")
        outputs = annotations[review.review_id] = {}
        raters = draw(st.sampled_from([("A1", "A2", "A3"), ("A1", "A2"), ("A2", "A3"), ("A1", "A3"), ("A2",)]))
        for rater in raters:
            kind = draw(st.sampled_from(["emotions", "emotions", "neutral", "empty"]))
            if kind == "neutral":
                outputs[rater] = neutral_annotation(review)
                continue
            emotions = [] if kind == "empty" else draw(
                st.lists(st.sampled_from(EMOTIONS[:-1]), min_size=1, max_size=3, unique=True)
            )
            pairs = []
            for emotion in emotions:
                spans = []
                for _ in range(draw(st.integers(1, 2))):
                    start = draw(st.integers(0, len(review.text) - 1))
                    end = draw(st.integers(start + 1, len(review.text)))
                    spans.append(locate_span(review.text, review.text[start:end]))
                pairs.append(EmotionTriggers(EmotionLabel(emotion), tuple(spans)))
            outputs[rater] = EotOutput(review.review_id, tuple(pairs))
    return reviews, annotations


class TestFleissWithoutTriggerItems:
    """Fully rated non-Neutral reviews without tokens give no Fleiss trigger items."""

    def _rated(self, review, triggers):
        return {review.review_id: unanimous(annotate(review, {JOY: triggers}))}

    def test_an_empty_domain_is_nan_and_the_pool_keeps_the_rest(self):
        bare = make_review("p1", "!!! ...", Domain.HOME, "i1")
        worded = make_review("b1", "A bright screen and a fast charger", Domain.ELECTRONICS, "i2")
        annotations = {**self._rated(bare, ["!!!"]), **self._rated(worded, ["bright screen"])}
        report = build_agreement_report(annotations, {"p1": bare, "b1": worded})
        assert math.isnan(report["fleiss_trigger_token_kappa"]["Home"])
        assert report["fleiss_trigger_token_kappa"]["Electronics"] == 1.0
        assert report["fleiss_trigger_token_overall"] == 1.0
        assert "nan" in render_agreement_report(report, "csv")

    def test_the_pool_is_nan_when_every_domain_is_empty(self):
        bare = make_review("p1", "!!! ...", Domain.HOME, "i1")
        report = build_agreement_report(self._rated(bare, ["..."]), {"p1": bare})
        assert math.isnan(report["fleiss_trigger_token_kappa"]["Home"])
        assert math.isnan(report["fleiss_trigger_token_overall"])
        assert report["fleiss_emotion_overall"] == 1.0


class TestAgreementMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(annotated_corpora())
    def test_every_kappa_matches_the_per_token_oracle(self, corpus):
        reviews, annotations = corpus
        try:
            expected = oracle_agreement_report(annotations, reviews)
        except DataError:
            # a domain whose fully rated non-Neutral reviews are all punctuation:
            # its Fleiss trigger matrix has no items, and the report gives NaN
            # there (and pooled, when every domain is like that)
            with mock.patch.object(oracles, "_oracle_fleiss", _nan_when_empty):
                expected = oracle_agreement_report(annotations, reviews)
            assert any(math.isnan(k) for k in expected["fleiss_trigger_token_kappa"].values())
            if expected["fleiss_trigger_token_overall"] is None:
                expected["fleiss_trigger_token_overall"] = float("nan")
        _assert_same_kappas(build_agreement_report(annotations, reviews), expected)
        fields = ("pairwise_trigger_token_kappa", "pairwise_trigger_token_overall")
        _assert_same_kappas(
            dict(zip(fields, trigger_token_kappa(annotations, reviews))), {f: expected[f] for f in fields}
        )


class TestGoldStatistics:
    def test_single_record_arithmetic(self):
        review = make_review(
            "h1", "The pan heats evenly and cleanup takes ten seconds flat", Domain.HOME, "i1"
        )
        gold, _ = aggregate_gold(unanimous(annotate(review, {JOY: ["heats evenly", "cleanup takes ten seconds flat"]})))
        stats = gold_statistics([gold], {"h1": review})
        home = stats["per_domain"]["Home"]
        joy = home["per_emotion"]["Joy"]
        assert home["total_emotions"] == 1
        assert joy["count"] == 1
        assert joy["total_triggers"] == 2
        assert joy["avg_triggers"] == 2.0
        assert joy["avg_trigger_tokens"] == 3.5  # (2 + 5) / 2
        assert home["avg_emotions_per_review"] == 1.0

    def test_share_is_fraction_of_domain_emotions(self):
        r1 = make_review("h1", "Great pan, heats evenly", Domain.HOME, "i1")
        r2 = make_review("h2", "The lid broke after a week", Domain.HOME, "i2")
        g1, _ = aggregate_gold(unanimous(annotate(r1, {JOY: ["heats evenly"], TRUST: ["Great pan"]})))
        g2, _ = aggregate_gold(unanimous(annotate(r2, {EmotionLabel.SADNESS: ["broke after a week"]})))
        stats = gold_statistics([g1, g2], {"h1": r1, "h2": r2})
        home = stats["per_domain"]["Home"]
        assert home["total_emotions"] == 3
        assert home["per_emotion"]["Joy"]["share"] == pytest.approx(1 / 3, abs=1e-12)
        assert home["avg_emotions_per_review"] == pytest.approx(1.5, abs=1e-12)
        assert stats["overall"]["total_emotions"] == 3

    def test_empty_gold_list_is_all_zero(self):
        stats = gold_statistics([], {})
        assert stats["overall"]["total_emotions"] == 0
        assert stats["overall"]["avg_emotions_per_review"] == 0.0
        for domain_stats in stats["per_domain"].values():
            assert domain_stats["total_emotions"] == 0
            for emotion_stats in domain_stats["per_emotion"].values():
                assert emotion_stats["count"] == 0
                assert emotion_stats["share"] == 0.0


class TestAnnotationIo:
    def test_load_and_aggregate_roundtrip(self, tmp_path):
        review = make_review("b1", "I am very happy with this cream", Domain.BEAUTY, "i1")
        reviews = {review.review_id: review}
        lines = [
            {
                "review_id": "b1",
                "annotator_id": annotator,
                "emotions": [{"emotion": "Joy", "triggers": [trigger]}],
            }
            for annotator, trigger in (
                ("A1", "very happy"),
                ("A2", "very happy"),
                ("A3", "happy"),
            )
        ]
        path = tmp_path / "annotations.jsonl"
        write_jsonl(path, lines)
        annotations = load_annotations(path, reviews)
        assert list(annotations) == ["b1"] and list(annotations["b1"]) == ["A1", "A2", "A3"]
        gold, provenance = aggregate_gold(annotations["b1"])
        assert gold.to_dict()["emotions"] == [{"emotion": "Joy", "triggers": ["very happy"]}]
        assert provenance["emotion_votes"] == {"Joy": 3}
        assert provenance["trigger_annotators"] == [
            {"emotion": "Joy", "text": "very happy", "annotators": ["A1", "A2"]}
        ]

    def test_groups_each_reviews_outputs_by_annotator_in_file_order(self, tmp_path):
        first, second = make_review("r1", "I am very happy"), make_review("r2", "I trust this brand")
        path = tmp_path / "annotations.jsonl"
        write_jsonl(path, [
            {"review_id": review_id, "annotator_id": annotator, "emotions": emotions}
            for review_id, annotator, emotions in (
                ("r2", "A2", [{"emotion": "Trust", "triggers": ["trust this brand"]}]),
                ("r1", "A1", [{"emotion": "Joy", "triggers": ["very happy"]}]),
                ("r2", "A1", [{"emotion": "Neutral"}]),
                ("r1", "A2", [{"emotion": "Neutral"}]),
            )
        ])
        annotations = load_annotations(path, {"r1": first, "r2": second})
        assert {review_id: list(outputs) for review_id, outputs in annotations.items()} == {
            "r2": ["A2", "A1"], "r1": ["A1", "A2"],
        }
        assert list(annotations) == ["r2", "r1"]
        assert annotations["r1"]["A1"] == annotate(first, {JOY: ["very happy"]})
        assert annotations["r2"]["A2"] == annotate(second, {TRUST: ["trust this brand"]})
        assert annotations["r2"]["A1"] == neutral_annotation(second)

    def test_an_annotator_twice_on_one_review_is_a_data_error_with_its_line(self, tmp_path):
        reviews = {"r1": make_review("r1", "I am very happy"), "r2": make_review("r2", "I am very happy")}
        path = tmp_path / "annotations.jsonl"
        write_jsonl(path, [
            {"review_id": review_id, "annotator_id": "A1", "emotions": [{"emotion": "Neutral"}]}
            for review_id in ("r1", "r2", "r1")
        ])
        with pytest.raises(DataError) as excinfo:
            load_annotations(path, reviews)
        assert str(excinfo.value) == f"{path}:3: annotator 'A1' appears twice for review 'r1'"

    def test_a_line_of_a_review_not_in_the_corpus_is_a_data_error_with_its_line(self, tmp_path):
        reviews = {"b1": make_review("b1", "I am very happy", Domain.BEAUTY, "i1")}
        annotations = tmp_path / "annotations.jsonl"
        write_jsonl(annotations, [
            {"review_id": review_id, "annotator_id": "A1", "emotions": [{"emotion": "Neutral"}]}
            for review_id in ("b1", "b2")
        ])
        with pytest.raises(DataError) as excinfo:
            load_annotations(annotations, reviews)
        assert str(excinfo.value) == f"{annotations}:2: unknown review_id 'b2'"
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"review_id": "b2", "emotions": [{"emotion": "Neutral"}]}])
        with pytest.raises(DataError) as excinfo:
            load_gold(gold, reviews)
        assert str(excinfo.value) == f"{gold}:1: unknown review_id 'b2'"

    def test_a_loaded_gold_record_keeps_no_provenance(self, tmp_path):
        review = make_review("b1", "I am very happy", Domain.BEAUTY, "i1")
        line = {
            "review_id": "b1", "emotions": [{"emotion": "Joy", "triggers": ["very happy"]}],
            "provenance": {
                "emotion_votes": {"Joy": 3},
                "trigger_annotators": [{"emotion": "Joy", "text": "very happy", "annotators": ["A1", "A2"]}],
                "no_majority": False,
            },
        }
        path = tmp_path / "gold.jsonl"
        write_jsonl(path, [line])
        [gold] = load_gold(path, {"b1": review})
        assert gold.to_dict() == {"review_id": "b1", "emotions": line["emotions"]}

    def test_non_utf8_line_is_a_data_error_with_its_line(self, tmp_path):
        review = make_review("b1", "I am very happy", Domain.BEAUTY, "i1")
        line = json.dumps({"review_id": "b1", "annotator_id": "A1", "emotions": []}).encode()
        path = tmp_path / "annotations.jsonl"
        path.write_bytes(line + b"\n" + line.replace(b"A1", b"A\xe9") + b"\n")
        with pytest.raises(DataError, match=r"annotations\.jsonl:2: invalid UTF-8"):
            load_annotations(path, {"b1": review})
        gold = tmp_path / "gold.jsonl"
        gold.write_bytes(b'{"review_id": "b\xe9"}\n')
        with pytest.raises(DataError, match=r"gold\.jsonl:1: invalid UTF-8"):
            load_gold(gold, {"b1": review})

    @pytest.mark.parametrize(
        "line, message",
        [
            ('["not", "an", "object"]', "record is not an object"),
            ('{"review_id": ["b1"]}', r"review_id is not a string: \['b1'\]"),
            ('{"review_id": "b1", "emotions": [{"emotion": "Joy", "triggers": ["sad"]}]}', "sad"),
            ('{"review_id": "b1", "emotions": [], "provenance": {"trigger_annotators": [1]}}', "provenance"),
            pytest.param(DEEPLY_NESTED, "invalid JSON", id="deeply-nested"),
        ],
    )
    def test_malformed_gold_line_is_a_data_error_with_its_line(self, tmp_path, line, message):
        review = make_review("b1", "I am very happy", Domain.BEAUTY, "i1")
        path = tmp_path / "gold.jsonl"
        path.write_text('{"review_id": "b1", "emotions": [{"emotion": "Neutral"}]}\n' + line + "\n")
        with pytest.raises(DataError, match=rf"gold\.jsonl:2: .*{message}"):
            load_gold(path, {"b1": review})

    def test_over_long_integer_is_a_data_error_with_its_line(self, tmp_path):
        review = make_review("b1", "I am very happy", Domain.BEAUTY, "i1")
        path = tmp_path / "gold.jsonl"
        path.write_text('{"review_id": "b1", "emotions": [{"emotion": "Neutral"}]}\n'
                        f'{{"review_id": "b1", "emotions": [], "n": {over_long_integer()}}}\n')
        with pytest.raises(DataError, match=r"gold\.jsonl:2: invalid JSON"):
            load_gold(path, {"b1": review})

    def test_non_extractive_annotation_is_rejected(self, tmp_path):
        review = make_review("b1", "I am very happy", Domain.BEAUTY, "i1")
        path = tmp_path / "annotations.jsonl"
        write_jsonl(
            path,
            [
                {
                    "review_id": "b1",
                    "annotator_id": "A1",
                    "emotions": [{"emotion": "Joy", "triggers": ["very  happy"]}],
                }
            ],
        )
        with pytest.raises(DataError):
            load_annotations(path, {"b1": review})
