from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from eotbench import extraction
from eotbench.errors import NoStructuredBlock
from eotbench.extraction import (
    REASON_NEUTRAL_WITH_OTHERS,
    REASON_NOT_EXTRACTIVE,
    REASON_NO_VERIFIABLE_TRIGGER,
    REASON_OOV,
    _WORD,
    _close_table,
    extract_structured_block,
    parse_output,
)
from eotbench.model import EmotionLabel
from conftest import assert_extractive, make_review, over_long_integer
from oracles import _balanced_block, oracle_extract_structured_block, oracle_parse_output


def parsed_line(parsed: tuple) -> dict:
    """The ``parsed`` line of an (output, report) pair, without its format_version."""
    output, report = parsed
    return {**output.to_dict(), **report}


def response(emotions: list[dict]) -> str:
    return json.dumps({"emotions": emotions})


class TestExtractStructuredBlock:
    def test_bare_object(self):
        raw = '{"emotions": []}'
        assert extract_structured_block(raw) == raw

    def test_fenced_with_prose(self):
        inner = '{"emotions": [{"emotion": "Joy", "triggers": ["nice"]}]}'
        raw = f"Here is my analysis:\n```json\n{inner}\n```\nHope this helps."
        assert extract_structured_block(raw) == inner

    def test_pure_prose(self):
        with pytest.raises(NoStructuredBlock):
            extract_structured_block("The reviewer sounds upset about the delivery.")

    def test_braces_inside_strings_do_not_break_balance(self):
        inner = '{"emotions": [{"emotion": "Joy", "triggers": ["a } b"]}]}'
        assert extract_structured_block("x " + inner + " y") == inner

    def test_prefers_first_parseable_object(self):
        inner = '{"emotions": []}'
        raw = "{broken json} and then " + inner
        assert extract_structured_block(raw) == inner


def _extract_or_none(extract, raw: str) -> str | None:
    try:
        return extract(raw)
    except NoStructuredBlock:
        return None


# Heavy in the characters the scan reacts to, so strings, escapes and
# unclosed braces interleave in every way; the fragments add objects that
# parse, behind or inside unclosed drafts.
BRACE_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from('{}"\\'), max_size=24),
    st.text(alphabet=st.sampled_from('{{{}}}""\\\\ax:'), max_size=80),
    st.lists(st.sampled_from(['{"emotions": []}', "{", "}", '"', "\\", "x"]), max_size=40).map(
        "".join
    ),
)


class TestExtractMatchesOracle:
    @settings(deadline=None, max_examples=2000)
    @given(BRACE_TEXT)
    @example('{{"{\\""}')  # groups at different depths merge on the escaped quote
    def test_equals_the_rescanning_oracle(self, raw):
        ends = {i: _balanced_block(raw, i) for i, ch in enumerate(raw) if ch == "{"}
        assert _close_table(raw) == {i: end for i, end in ends.items() if end is not None}
        assert _extract_or_none(extract_structured_block, raw) == _extract_or_none(
            oracle_extract_structured_block, raw
        )

    def test_brace_seen_inside_an_unclosed_string_gets_its_own_scan(self):
        # the scan from the first '{' never closes and sees the second '{'
        # inside a string; a fresh scan from the second starts outside one
        raw = '{"a {"b": 1} c'
        assert extract_structured_block(raw) == '{"b": 1}'
        assert oracle_extract_structured_block(raw) == '{"b": 1}'


class TestExtractTimeBound:
    @pytest.mark.parametrize(
        "raw",
        ["{" * 32000, '{"' * 16000, '{"{\\"' * 8000],
        ids=["open-braces", "brace-quote", "brace-quote-escape"],
    )
    def test_adversarial_input_parses_quickly(self, raw):
        # quadratic for the rescanning extractor: a fresh scan from every '{'
        started = time.perf_counter()
        with pytest.raises(NoStructuredBlock):
            extract_structured_block(raw)
        assert time.perf_counter() - started < 2.0


class TestParseOutput:
    def test_clean_parse(self, sample_review):
        output, report = parse_output(
            response([{"emotion": "Joy", "triggers": ["works perfectly"]}]), sample_review
        )
        assert report["parse_status"] == "Clean"
        [pair] = output.pairs
        assert pair.emotion is EmotionLabel.JOY
        assert [s.text for s in pair.triggers] == ["works perfectly"]
        assert_extractive(sample_review.text, output)

    def test_whitespace_repair(self):
        review = make_review(text="Non slip, great arch support")
        output, report = parse_output(
            response([{"emotion": "Joy", "triggers": ["Non  slip, great arch support"]}]), review
        )
        assert report["parse_status"] == "Repaired"
        [pair] = output.pairs
        assert pair.triggers[0].text == "Non slip, great arch support"
        assert_extractive(review.text, output)

    def test_case_repair_recovers_original_case(self):
        review = make_review(text="LOVE the fit and the color")
        output, report = parse_output(
            response([{"emotion": "Joy", "triggers": ["love the fit"]}]), review
        )
        assert report["parse_status"] == "Repaired"
        assert output.pairs[0].triggers[0].text == "LOVE the fit"

    def test_non_extractive_trigger_dropped_then_emotion_dropped(self, sample_review):
        output, report = parse_output(
            response([{"emotion": "Joy", "triggers": ["amazing quality!!!"]}]), sample_review
        )
        assert output.pairs == ()
        assert [d["reason"] for d in report["dropped_triggers"]] == [REASON_NOT_EXTRACTIVE]
        assert [d["reason"] for d in report["dropped_emotions"]] == [REASON_NO_VERIFIABLE_TRIGGER]

    def test_oov_emotion_dropped(self, sample_review):
        output, report = parse_output(
            response(
                [
                    {"emotion": "happiness", "triggers": ["works perfectly"]},
                    {"emotion": "Joy", "triggers": ["works perfectly"]},
                ]
            ),
            sample_review,
        )
        assert output.emotions == {EmotionLabel.JOY}
        assert [d["reason"] for d in report["dropped_emotions"]] == [REASON_OOV]

    def test_neutral_dropped_when_others_survive(self, sample_review):
        output, report = parse_output(
            response(
                [
                    {"emotion": "Neutral", "triggers": []},
                    {"emotion": "Joy", "triggers": ["works perfectly"]},
                ]
            ),
            sample_review,
        )
        assert output.emotions == {EmotionLabel.JOY}
        assert any(d["reason"] == REASON_NEUTRAL_WITH_OTHERS for d in report["dropped_emotions"])

    def test_neutral_survives_alone(self, sample_review):
        output, report = parse_output(response([{"emotion": "Neutral", "triggers": []}]), sample_review)
        assert output.emotions == {EmotionLabel.NEUTRAL}

    def test_neutral_kept_when_other_emotions_lose_their_triggers(self, sample_review):
        output, report = parse_output(
            response(
                [
                    {"emotion": "Neutral", "triggers": []},
                    {"emotion": "Joy", "triggers": ["not in the review at all"]},
                ]
            ),
            sample_review,
        )
        assert output.emotions == {EmotionLabel.NEUTRAL}

    def test_duplicate_emotions_merged(self, sample_review):
        output, report = parse_output(
            response(
                [
                    {"emotion": "Joy", "triggers": ["works perfectly"]},
                    {"emotion": "JOY", "triggers": ["arrived two days early", "works perfectly"]},
                ]
            ),
            sample_review,
        )
        [pair] = output.pairs
        assert [s.text for s in pair.triggers] == ["works perfectly", "arrived two days early"]

    def test_unparseable_prose(self, sample_review):
        output, report = parse_output("It mostly expresses joy about the blender.", sample_review)
        assert report["parse_status"] == "Unparseable"
        assert output.pairs == ()

    @pytest.mark.parametrize("raw", [None, 42, b'{"emotions": []}'])
    def test_a_raw_that_is_not_a_str_is_unparseable(self, sample_review, raw):
        output, report = parse_output(raw, sample_review)
        assert report["parse_status"] == "Unparseable"
        assert output.pairs == ()

    def test_wrong_schema_is_unparseable(self, sample_review):
        output, report = parse_output('{"labels": ["Joy"]}', sample_review)
        assert report["parse_status"] == "Unparseable"

    def test_malformed_entries_skipped(self, sample_review):
        output, report = parse_output(
            response(["what", {"emotion": 3}, {"emotion": "Joy", "triggers": ["works perfectly"]}]),
            sample_review,
        )
        assert output.emotions == {EmotionLabel.JOY}
        assert len(report["dropped_emotions"]) == 2


class TestOverLongInteger:
    """``json`` raises a plain ValueError, not a JSONDecodeError, on integer
    text longer than ``sys.get_int_max_str_digits()``."""

    def test_a_response_holding_one_is_unparseable(self, sample_review):
        raw = f'{{"emotions": [{{"emotion": "Joy", "triggers": ["works perfectly"]}}], "n": {over_long_integer()}}}'
        assert parse_output(raw, sample_review)[1]["parse_status"] == "Unparseable"

    def test_a_later_candidate_that_parses_wins(self, sample_review):
        later = response([{"emotion": "Joy", "triggers": ["works perfectly"]}])
        raw = f'{{"n": {over_long_integer()}}} then {later}'
        assert extract_structured_block(raw) == later
        output, report = parse_output(raw, sample_review)
        assert report["parse_status"] == "Clean"
        assert output.emotions == {EmotionLabel.JOY}


class TestCloseTableOnlyAsFallback:
    @pytest.fixture
    def close_table_calls(self, monkeypatch):
        calls = []

        def counting(raw):
            calls.append(raw)
            return _close_table(raw)

        monkeypatch.setattr(extraction, "_close_table", counting)
        return calls

    @pytest.mark.parametrize(
        "raw",
        ['{"emotions": []}', 'Sure:\n```json\n{"emotions": []}\n``` {unclosed', '{"a": 1} {"emotions": []}'],
    )
    def test_not_built_when_the_first_brace_starts_a_json_object(self, close_table_calls, sample_review, raw):
        parse_output(raw, sample_review)
        assert close_table_calls == []

    def test_built_once_for_a_truncated_response(self, close_table_calls, sample_review):
        raw = '{"emotions": [{"emotion": "Joy", "triggers": ["works perf'
        assert parse_output(raw, sample_review)[1]["parse_status"] == "Unparseable"
        assert close_table_calls == [raw]


# Words that fold differently one character at a time than as a whole
# ("ΟΔΟΣ": final sigma), fold to more characters ("İ"), are titlecase
# digraphs ("ǅ") or carry punctuation, joined by ASCII and Unicode spaces.
REVIEW_WORDS = st.sampled_from(
    ["The", "blender", "WORKS", "perfectly,", "ΟΔΟΣ", "İstanbul", "ǅemal", "Straße",
     "naïve", "(café)!", "x", "Σ", "arrived", "early."]
)
SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", " \u2028 "])


@st.composite
def review_texts(draw) -> str:
    words = draw(st.lists(REVIEW_WORDS, min_size=1, max_size=12))
    gaps = draw(st.lists(SPACES, min_size=len(words) + 1, max_size=len(words) + 1))
    gaps[0] = draw(st.sampled_from(["", gaps[0]]))
    gaps[-1] = draw(st.sampled_from(["", gaps[-1]]))
    return gaps[0] + "".join(word + gap for word, gap in zip(words, gaps[1:]))


@st.composite
def triggers_for(draw, text: str):
    kind = draw(st.sampled_from(["verbatim", "case", "case", "spaces", "spaces", "other", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from([3, None, ["x"], ""]))
    if kind == "other":
        return draw(st.sampled_from(["not in it", "ΟΔΟΣ", "ὀδός", "i̇stanbul", "ǆemal", "STRASSE"]))
    start = draw(st.integers(0, len(text) - 1))
    trigger = text[start : draw(st.integers(start + 1, len(text)))]
    if kind == "case":
        trigger = draw(st.sampled_from([str.upper, str.lower, str.swapcase, str.title]))(trigger)
    elif kind == "spaces":
        trigger = draw(SPACES).join(trigger.split())
    return trigger


@st.composite
def responses(draw, text: str, triggers=triggers_for) -> str:
    # "\ud83d" decodes to a lone surrogate, which UTF-8 cannot encode
    labels = st.sampled_from(["Joy", "trust", " Fear ", "Neutral", "happiness", 3, "\ud83d"])
    entries = draw(
        st.lists(
            st.one_of(
                st.fixed_dictionaries(
                    {"emotion": labels, "triggers": st.lists(triggers(text) | st.just("\ud83d"), max_size=4)}
                ),
                st.fixed_dictionaries({"emotion": labels}),
                st.fixed_dictionaries({"emotion": labels, "triggers": st.just("works")}),
                st.just("not an entry"),
            ),
            max_size=4,
        )
    )
    document = json.dumps({"emotions": entries}, ensure_ascii=draw(st.booleans()))
    shape = draw(st.sampled_from(["bare", "fenced", "prose braces", "invalid first", "truncated"]))
    if shape == "fenced":
        return f"Here it is:\n```json\n{document}\n```\nHope this {{helps}}."
    if shape == "prose braces":
        return f"The {{customer}} is {{ upbeat. {document}"
    if shape == "invalid first":
        first = draw(st.sampled_from(["{draft}", '{"emotions": [}', f'{{"n": {over_long_integer()}}}']))
        return f"{first} then {document}"
    if shape == "truncated":
        return document[: draw(st.integers(0, len(document) - 1))]
    return document


class TestParseMatchesOracle:
    @settings(deadline=None, max_examples=400)
    @given(st.data())
    def test_equals_the_two_decode_per_character_oracle(self, data):
        review = make_review(text=data.draw(review_texts()))
        raw = data.draw(responses(review.text))
        assert parsed_line(parse_output(raw, review)) == parsed_line(
            oracle_parse_output(raw, review)
        )


# Every character that str.split treats as whitespace in ASCII.
ASCII_WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
ASCII_WORDS = st.sampled_from(["The", "blender", "WORKS", "perfectly,", "x", "arrived", "early.", "(cafe)!", "aB"])
ASCII_GAPS = st.text(alphabet=ASCII_WHITESPACE, min_size=1, max_size=4)


@st.composite
def ascii_review_texts(draw) -> str:
    words = draw(st.lists(ASCII_WORDS, min_size=1, max_size=10))
    gaps = draw(st.lists(ASCII_GAPS, min_size=len(words) + 1, max_size=len(words) + 1))
    gaps[0] = draw(st.sampled_from(["", gaps[0]]))
    gaps[-1] = draw(st.sampled_from(["", gaps[-1]]))
    return gaps[0] + "".join(word + gap for word, gap in zip(words, gaps[1:]))


@st.composite
def ascii_triggers_for(draw, text: str):
    """Substrings that may start or end mid-word or at either end of the
    text, with their case or whitespace changed so that only repair finds them."""
    start = draw(st.one_of(st.just(0), st.integers(0, len(text) - 1)))
    end = draw(st.one_of(st.just(len(text)), st.integers(start + 1, len(text))))
    trigger = text[start:end]
    kind = draw(st.sampled_from(["verbatim", "case", "spaces", "both"]))
    if kind in ("case", "both"):
        trigger = draw(st.sampled_from([str.upper, str.lower, str.swapcase]))(trigger)
    if kind in ("spaces", "both"):
        trigger = draw(ASCII_GAPS).join(trigger.split())
    return trigger


class TestAsciiRepairMatchesOracle:
    @settings(deadline=None, max_examples=400)
    @given(st.data())
    def test_equals_the_per_character_oracle(self, data):
        review = make_review(text=data.draw(ascii_review_texts()))
        raw = data.draw(responses(review.text, ascii_triggers_for))
        assert parsed_line(parse_output(raw, review)) == parsed_line(
            oracle_parse_output(raw, review)
        )

    @pytest.mark.parametrize(
        "text, trigger, found",
        [
            ("Works\x1c\x1dWELL\x0b\x0c\r\n", "works well", "Works\x1c\x1dWELL"),
            ("\t\x1fgreat  blender", "GREAT BLENDER", "great  blender"),
            ("the BLENDER works", "nder wor", "NDER wor"),
        ],
    )
    def test_hand_cases(self, text, trigger, found):
        output, report = parse_output(response([{"emotion": "Joy", "triggers": [trigger]}]), make_review(text=text))
        assert report["parse_status"] == "Repaired"
        assert [s.text for s in output.triggers_for(EmotionLabel.JOY)] == [found]


class TestOneFold:
    """Repair finds ``normalize_text(trigger)`` in ``normalize_text(review)``:
    the fold of exact matching and gold dedup, final sigma included."""

    @pytest.mark.parametrize(
        "text, trigger, found",
        [
            ("ΚΑΛΟΣ  ΚΑΦΕΣ here", "ΚΑΛΟΣ ΚΑΦΕΣ", "ΚΑΛΟΣ  ΚΑΦΕΣ"),  # final sigma, as a whole string folds it
            ("ΚΑΛΟΣ  ΚΑΦΕΣ here", "καλος", "ΚΑΛΟΣ"),
            ("İstanbul  ok", "i̇stanbul", "İstanbul"),  # "İ" lowers to two characters
            ("İstanbul  ok", "STANBUL ok", "stanbul  ok"),
        ],
    )
    def test_hand_cases(self, text, trigger, found):
        output, report = parse_output(response([{"emotion": "Joy", "triggers": [trigger]}]), make_review(text=text))
        assert report["parse_status"] == "Repaired"
        assert [s.text for s in output.triggers_for(EmotionLabel.JOY)] == [found]

    def test_a_medial_sigma_no_longer_matches_a_final_one(self):
        output, report = parse_output(response([{"emotion": "Joy", "triggers": ["καλοσ"]}]), make_review(text="ΚΑΛΟΣ here"))
        assert [d["reason"] for d in report["dropped_triggers"]] == [REASON_NOT_EXTRACTIVE]

    @pytest.mark.parametrize(
        "triggers, calls",
        [(["The BLENDER"], 0), (["the blender", "BLENDER  WORKS", "not in it"], 1), (["ΟΔΟΣ", "the blender"], 1)],
    )
    def test_word_starts_found_at_most_once_and_only_for_a_repair(self, monkeypatch, triggers, calls):
        counted = []

        class CountingWord:
            def finditer(self, text):
                counted.append(text)
                return _WORD.finditer(text)

        monkeypatch.setattr(extraction, "_WORD", CountingWord())
        review = make_review(text="The BLENDER works, ΟΔΟΣ")
        output, report = parse_output(response([{"emotion": "Joy", "triggers": triggers}]), review)
        assert len(counted) == calls
        assert report["parse_status"] == ("Repaired" if calls else "Clean")

    def test_word_pattern_and_lowering_agree_with_split_on_every_code_point(self):
        # one plane at a time, each character between two "a"s, to keep memory small
        for plane in range(17):
            text = "a".join(
                chr(c) for c in range(plane << 16, (plane + 1) << 16) if not 0xD800 <= c < 0xE000
            )
            words = _WORD.findall(text)
            assert words == text.split()
            assert [w.lower() for w in words] == text.lower().split()


class TestFuzz:
    def test_never_crashes_on_random_byte_strings(self, sample_review):
        rng = random.Random(20240811)
        for _ in range(10_000):
            length = rng.randrange(0, 60)
            raw = bytes(rng.randrange(256) for _ in range(length)).decode("latin-1")
            output, report = parse_output(raw, sample_review)
            assert_extractive(sample_review.text, output)

    def test_mutated_triggers_never_accepted_unverified(self):
        review = make_review(
            text="The zipper broke on day two but the fabric still feels soft and warm."
        )
        rng = random.Random(7)
        alphabet = "abcdef XY!,"
        emotions = [e.value for e in EmotionLabel if e is not EmotionLabel.NEUTRAL]
        for _ in range(1_000):
            start = rng.randrange(0, len(review.text) - 2)
            end = rng.randrange(start + 1, len(review.text))
            trigger = review.text[start:end]
            # random edit: insert, delete, or replace a character
            op = rng.randrange(3)
            pos = rng.randrange(len(trigger))
            if op == 0:
                trigger = trigger[:pos] + rng.choice(alphabet) + trigger[pos:]
            elif op == 1:
                trigger = trigger[:pos] + trigger[pos + 1 :]
            else:
                trigger = trigger[:pos] + rng.choice(alphabet) + trigger[pos + 1 :]
            raw = response([{"emotion": rng.choice(emotions), "triggers": [trigger]}])
            output, report = parse_output(raw, review)
            assert_extractive(review.text, output)
