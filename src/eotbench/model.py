"""Domain types and text primitives shared by every other module.

Reviews, emotion labels, trigger spans, and emotion-trigger outputs are
immutable after construction; tokenize / normalize_text / canonical_emotion /
locate_span are pure functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import itemgetter
from typing import Any

from .errors import SpanNotFound, UnknownEmotion


class EmotionLabel(Enum):
    """The eight primary emotions plus Neutral."""

    JOY = "Joy"
    TRUST = "Trust"
    FEAR = "Fear"
    SURPRISE = "Surprise"
    SADNESS = "Sadness"
    DISGUST = "Disgust"
    ANGER = "Anger"
    ANTICIPATION = "Anticipation"
    NEUTRAL = "Neutral"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and skips Enum's Python-level hash(self._name_).
    __hash__ = object.__hash__


# Canonical ordering used by reports and deterministic aggregation.
EMOTION_ORDER: tuple[EmotionLabel, ...] = tuple(EmotionLabel)
PRIMARY_EMOTIONS: tuple[EmotionLabel, ...] = tuple(
    e for e in EmotionLabel if e is not EmotionLabel.NEUTRAL
)

_CANONICAL_BY_LOWER = {e.value.lower(): e for e in EmotionLabel}


class Domain(Enum):
    BEAUTY = "Beauty"
    CLOTHING = "Clothing"
    HOME = "Home"
    ELECTRONICS = "Electronics"
    TRIPADVISOR = "TripAdvisor"
    YELP = "Yelp"


class Source(Enum):
    AMAZON = "Amazon"
    TRIPADVISOR = "TripAdvisor"
    YELP = "Yelp"


DOMAIN_SOURCE: dict[Domain, Source] = {
    Domain.BEAUTY: Source.AMAZON,
    Domain.CLOTHING: Source.AMAZON,
    Domain.HOME: Source.AMAZON,
    Domain.ELECTRONICS: Source.AMAZON,
    Domain.TRIPADVISOR: Source.TRIPADVISOR,
    Domain.YELP: Source.YELP,
}

DOMAIN_ORDER: tuple[Domain, ...] = tuple(Domain)


@dataclass(frozen=True, slots=True)
class Review:
    """One identified text unit with its grouping metadata.

    ``timestamp`` is epoch seconds and may be absent; ``item_id`` groups
    reviews of the same product or venue.
    """

    review_id: str
    text: str
    domain: Domain
    item_id: str
    timestamp: int | None = None

    def __post_init__(self):
        if not self.review_id or not self.item_id:
            raise ValueError("review_id and item_id must be non-empty")
        if not self.text.strip():
            raise ValueError(f"review {self.review_id!r} has empty text")


@dataclass(frozen=True, slots=True)
class TriggerSpan:
    """A verbatim contiguous substring of a review.

    ``start``/``end`` are character offsets (end exclusive) into the
    review text the span was located in.
    """

    text: str
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"invalid span offsets [{self.start}, {self.end})")
        if len(self.text) != self.end - self.start:
            raise ValueError("span text length does not match its offsets")

    def validate_against(self, review_text: str) -> None:
        """Assert the extractive constraint against a concrete review."""
        if review_text[self.start : self.end] != self.text:
            raise ValueError(
                f"span [{self.start}, {self.end}) does not read back as {self.text!r}"
            )

    def overlaps(self, other: "TriggerSpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, slots=True)
class EmotionTriggers:
    """One (emotion, triggers) pair of an output."""

    emotion: EmotionLabel
    triggers: tuple[TriggerSpan, ...]

    def __post_init__(self):
        if type(self.triggers) is not tuple:
            object.__setattr__(self, "triggers", tuple(self.triggers))


@dataclass(frozen=True, slots=True)
class EotOutput:
    """The emotion-trigger assignment for one review, gold or predicted.

    Invariants enforced on construction: Neutral appears only alone and
    with no triggers; emotions are unique; every non-Neutral pair carries
    at least one trigger. An output with zero pairs is legal and means
    "nothing verifiable was produced" (e.g. an unparseable response).
    """

    review_id: str
    pairs: tuple[EmotionTriggers, ...]

    def __post_init__(self):
        if type(self.pairs) is not tuple:
            object.__setattr__(self, "pairs", tuple(self.pairs))
        seen: set[EmotionLabel] = set()
        for pair in self.pairs:
            if pair.emotion in seen:
                raise ValueError(f"duplicate emotion {pair.emotion.value}")
            seen.add(pair.emotion)
            if pair.emotion is EmotionLabel.NEUTRAL:
                if len(self.pairs) != 1 or pair.triggers:
                    raise ValueError("Neutral must be the only pair and carry no triggers")
            elif not pair.triggers:
                raise ValueError(f"{pair.emotion.value} has no triggers")

    def to_dict(self) -> dict[str, Any]:
        """The ``review_id``/``emotions`` line shape of annotation, gold and parsed files."""
        return {
            "review_id": self.review_id,
            "emotions": [
                {"emotion": p.emotion.value, "triggers": [s.text for s in p.triggers]}
                for p in self.pairs
            ],
        }

    @property
    def emotions(self) -> set[EmotionLabel]:
        return {p.emotion for p in self.pairs}

    def triggers_for(self, emotion: EmotionLabel) -> tuple[TriggerSpan, ...]:
        for pair in self.pairs:
            if pair.emotion is emotion:
                return pair.triggers
        return ()

    def validate_against(self, review_text: str) -> None:
        for pair in self.pairs:
            for span in pair.triggers:
                span.validate_against(review_text)


class _PunctMemo(dict):
    """Whether a character is Unicode punctuation, looked up once per character.

    Filled on first use rather than at import: scanning all of Unicode
    would add a tenth of a second to every start-up.
    """

    def __missing__(self, ch: str) -> bool:
        is_punct = self[ch] = unicodedata.category(ch).startswith("P")
        return is_punct


_IS_PUNCT = _PunctMemo()


def _trim_punct(word: str) -> tuple[int, int]:
    """The range of ``word`` left once leading and trailing punctuation is stripped."""
    is_punct = _IS_PUNCT
    start, stop = 0, len(word)
    while start < stop and is_punct[word[start]]:
        start += 1
    while stop > start and is_punct[word[stop - 1]]:
        stop -= 1
    return start, stop


def tokenize_with_spans(text: str) -> tuple[list[int], list[int]]:
    """Two lists: the start and the end (exclusive) offset in ``text`` of
    each token of ``tokenize(text)``."""
    is_punct = _IS_PUNCT
    starts: list[int] = []
    ends: list[int] = []
    find = text.find
    end = 0
    for word in text.split():
        start = find(word, end)
        end = stop = start + len(word)
        if is_punct[word[0]] or is_punct[word[-1]]:
            first, last = _trim_punct(word)
            if first == last:
                continue
            start, stop = start + first, start + last
        starts.append(start)
        ends.append(stop)
    return starts, ends


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens with end punctuation stripped; their
    offsets in ``text`` are ``tokenize_with_spans(text)``."""
    is_punct = _IS_PUNCT
    tokens: list[str] = []
    for word in text.split():
        if is_punct[word[0]] or is_punct[word[-1]]:
            first, last = _trim_punct(word)
            if first == last:
                continue
            word = word[first:last]
        tokens.append(word.lower())
    return tokens


def count_tokens(text: str) -> int:
    """``len(tokenize(text))`` without building the tokens.

    A whitespace-separated word is a token unless every character of it
    is punctuation. Only a word whose first character is punctuation can
    fail that, so only those words are read further.
    """
    words = text.split()
    is_punct = _IS_PUNCT.__getitem__
    n = len(words)
    for word in compress(words, map(is_punct, map(itemgetter(0), words))):
        if all(map(is_punct, word)):
            n -= 1
    return n


def normalize_text(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces: the one
    case/whitespace fold, of exact matching, gold dedup and trigger repair."""
    return " ".join(text.lower().split())


def canonical_emotion(raw: str) -> EmotionLabel:
    """Map a raw label to the canonical 9-label vocabulary.

    Matching is case-insensitive and whitespace-trimmed; there is no
    synonym mapping, so e.g. "happiness" is rejected.
    """
    label = _CANONICAL_BY_LOWER.get(raw.strip().lower())
    if label is None:
        raise UnknownEmotion(raw)
    return label


def locate_span(review_text: str, trigger_text: str) -> TriggerSpan:
    """Locate the leftmost exact occurrence of trigger_text.

    Raises SpanNotFound when the trigger is not a verbatim substring.
    """
    if not trigger_text:
        raise SpanNotFound(trigger_text)
    at = review_text.find(trigger_text)
    if at < 0:
        raise SpanNotFound(trigger_text)
    return TriggerSpan(text=trigger_text, start=at, end=at + len(trigger_text))
