from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from eotbench.errors import SpanNotFound, UnknownEmotion
from eotbench.model import (
    EMOTION_ORDER,
    LABEL_INDEX,
    EmotionLabel,
    EmotionTriggers,
    EotOutput,
    Review,
    TriggerSpan,
    canonical_emotion,
    count_tokens,
    locate_span,
    normalize_text,
    tokenize,
    tokenize_with_spans,
)
from conftest import assert_extractive, make_review
from oracles import oracle_token_spans, oracle_tokenize

# Letters, ASCII and Unicode punctuation, whitespace beyond the ASCII space,
# and any other character.
_TOKEN_ALPHABET = st.sampled_from(
    list("aZé9'-.,!?\"()«»¿¡—…。、「」・") + [" ", "\t", "\n", "\x1c", "\xa0", "\u3000", "\u2028"]
) | st.characters()


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("very happy") == ["very", "happy"]

    def test_punctuation_stripped_and_lowercased(self):
        assert tokenize("Non slip, great arch support") == [
            "non", "slip", "great", "arch", "support",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_all_punctuation_token_dropped(self):
        assert tokenize("wow !! nice") == ["wow", "nice"]

    def test_inner_punctuation_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    @given(st.text(max_size=80))
    def test_idempotent_on_joined_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    @given(st.text(_TOKEN_ALPHABET, max_size=60))
    def test_matches_oracle(self, text):
        expected = oracle_tokenize(text)
        assert tokenize(text) == expected
        assert count_tokens(text) == len(expected)
        starts, ends = tokenize_with_spans(text)
        assert [text[a:b].lower() for a, b in zip(starts, ends)] == expected
        assert list(zip(starts, ends)) == oracle_token_spans(text)

    def test_spans_point_into_original_text(self):
        text = "Great fit, LOVE it!"
        starts, ends = tokenize_with_spans(text)
        assert [text[a:b] for a, b in zip(starts, ends)] == ["Great", "fit", "LOVE", "it"]
        assert [text[a:b].lower() for a, b in zip(starts, ends)] == tokenize(text)


def test_label_index_is_each_labels_place_in_emotion_order():
    assert [EMOTION_ORDER[LABEL_INDEX[label]] for label in EmotionLabel] == list(EmotionLabel)
    assert sorted(LABEL_INDEX.values()) == list(range(len(EMOTION_ORDER)))


class TestCanonicalEmotion:
    def test_case_folding(self):
        assert canonical_emotion("JOY") is EmotionLabel.JOY

    def test_trim(self):
        assert canonical_emotion(" neutral ") is EmotionLabel.NEUTRAL

    def test_no_synonym_mapping(self):
        with pytest.raises(UnknownEmotion):
            canonical_emotion("happiness")

    @pytest.mark.parametrize("label", list(EmotionLabel))
    def test_roundtrip_identity_on_canonical_names(self, label):
        assert canonical_emotion(label.value) is label


class TestLocateSpan:
    def test_direct_substring(self):
        assert locate_span("I love it", "love it") == TriggerSpan("love it", 2, 9)

    def test_leftmost_rule(self):
        assert locate_span("aaa", "aa") == TriggerSpan("aa", 0, 2)

    def test_punctuation_mismatch(self):
        with pytest.raises(SpanNotFound):
            locate_span("great fit", "great fit!")

    def test_empty_trigger(self):
        with pytest.raises(SpanNotFound):
            locate_span("anything", "")

    @given(st.text(min_size=1, max_size=60), st.data())
    def test_located_span_reads_back(self, text, data):
        start = data.draw(st.integers(0, len(text) - 1))
        end = data.draw(st.integers(start + 1, len(text)))
        span = locate_span(text, text[start:end])
        assert_extractive(text, span)


class TestTriggerSpan:
    def test_rejects_inverted_offsets(self):
        with pytest.raises(ValueError, match="invalid span offsets"):
            TriggerSpan("x", 3, 2)

    # each of these would pass the length check: only the offset check rejects them
    @pytest.mark.parametrize("text, start, end", [("x", 3, 3), ("", 3, 3), ("ab", -1, 1)])
    def test_rejects_empty_or_negative_offsets(self, text, start, end):
        with pytest.raises(ValueError, match="invalid span offsets"):
            TriggerSpan(text, start, end)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TriggerSpan("abc", 0, 2)


class TestEotOutput:
    def _span(self, review: Review, text: str) -> TriggerSpan:
        return locate_span(review.text, text)

    def test_neutral_must_be_alone(self, sample_review):
        joy = EmotionTriggers(EmotionLabel.JOY, (self._span(sample_review, "works perfectly"),))
        neutral = EmotionTriggers(EmotionLabel.NEUTRAL, ())
        with pytest.raises(ValueError):
            EotOutput(sample_review.review_id, (joy, neutral))

    def test_neutral_carries_no_triggers(self, sample_review):
        bad = EmotionTriggers(EmotionLabel.NEUTRAL, (self._span(sample_review, "works"),))
        with pytest.raises(ValueError):
            EotOutput(sample_review.review_id, (bad,))

    def test_duplicate_emotions_rejected(self, sample_review):
        joy = EmotionTriggers(EmotionLabel.JOY, (self._span(sample_review, "works perfectly"),))
        with pytest.raises(ValueError):
            EotOutput(sample_review.review_id, (joy, joy))

    def test_non_neutral_requires_triggers(self, sample_review):
        with pytest.raises(ValueError):
            EotOutput(sample_review.review_id, (EmotionTriggers(EmotionLabel.JOY, ()),))

    def test_empty_output_is_legal(self, sample_review):
        assert EotOutput(sample_review.review_id, ()).pairs == ()


class TestReview:
    def test_blank_text_rejected(self):
        with pytest.raises(ValueError):
            make_review(text="   ")

    def test_normalize_text(self):
        assert normalize_text("  Fits   WELL\tindeed ") == "fits well indeed"


class TestSlottedRecords:
    """The model records are frozen, slotted dataclasses: no per-instance dict."""

    def _records(self):
        review = make_review()
        span = locate_span(review.text, "works perfectly")
        pair = EmotionTriggers(EmotionLabel.JOY, (span,))
        output = EotOutput(review.review_id, (pair,))
        return [review, span, pair, output]

    @pytest.mark.parametrize("index", range(4), ids=["Review", "TriggerSpan", "EmotionTriggers", "EotOutput"])
    def test_frozen_equal_hashable_and_without_a_dict(self, index):
        record, twin = self._records()[index], self._records()[index]
        assert record is not twin
        assert record == twin and hash(record) == hash(twin)
        assert len({record, twin}) == 1
        assert not hasattr(record, "__dict__")
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            record.extra = 1

    def test_a_sequence_of_pairs_or_triggers_is_stored_as_a_tuple(self):
        review = make_review()
        span = locate_span(review.text, "works perfectly")
        pair = EmotionTriggers(EmotionLabel.JOY, [span])
        output = EotOutput(review.review_id, [pair])
        assert type(pair.triggers) is tuple and type(output.pairs) is tuple
        assert output == EotOutput(review.review_id, (EmotionTriggers(EmotionLabel.JOY, (span,)),))
