"""Domain types and text primitives shared by every other module.

Reviews, emotion labels, trigger spans, and emotion-trigger outputs are
frozen: each record checks its invariants in ``__init__`` and cannot change
after it. The four records here are slotted dataclasses whose ``__init__``
is written by hand: it validates, then stores each field through the
field's member descriptor (``_record_slots``), which the frozen
``__setattr__`` does not guard and which costs one call per field. A bulk
command builds tens of thousands of them, so that store is on every
record's path. The enums hash by identity. tokenize / normalize_text /
canonical_emotion / locate_span are pure functions, so everything here is
safe to share across threads.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, fields
from enum import Enum
from itertools import compress
from operator import itemgetter
from typing import Any, Iterable

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
LABEL_INDEX: dict[EmotionLabel, int] = {label: i for i, label in enumerate(EMOTION_ORDER)}
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

    __hash__ = object.__hash__  # as EmotionLabel's


DOMAIN_ORDER: tuple[Domain, ...] = tuple(Domain)


def _record_slots(cls: type) -> tuple:
    """The member descriptors of a slotted dataclass's fields, in field order.

    ``descriptor.__set__(record, value)`` stores a field of a frozen record
    in one call: the record's own ``__setattr__`` refuses every store, and
    ``object.__setattr__`` looks the field's name up again on each one.
    """
    return tuple(cls.__dict__[f.name] for f in fields(cls))


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

    def __init__(self, review_id: str, text: str, domain: Domain, item_id: str, timestamp: int | None = None):
        if not review_id or not item_id:
            raise ValueError("review_id and item_id must be non-empty")
        if not text or text.isspace():
            raise ValueError(f"review {review_id!r} has empty text")
        set_id, set_text, set_domain, set_item, set_timestamp = _REVIEW_SLOTS
        set_id.__set__(self, review_id)
        set_text.__set__(self, text)
        set_domain.__set__(self, domain)
        set_item.__set__(self, item_id)
        set_timestamp.__set__(self, timestamp)


_REVIEW_SLOTS = _record_slots(Review)


@dataclass(frozen=True, slots=True)
class TriggerSpan:
    """A verbatim contiguous substring of a review.

    ``start``/``end`` are character offsets (end exclusive) into the
    review text the span was located in.
    """

    text: str
    start: int
    end: int

    def __init__(self, text: str, start: int, end: int):
        if start < 0 or start >= end:
            raise ValueError(f"invalid span offsets [{start}, {end})")
        if len(text) != end - start:
            raise ValueError("span text length does not match its offsets")
        set_text, set_start, set_end = _SPAN_SLOTS
        set_text.__set__(self, text)
        set_start.__set__(self, start)
        set_end.__set__(self, end)

    def overlaps(self, other: "TriggerSpan") -> bool:
        return self.start < other.end and other.start < self.end


_SPAN_SLOTS = _record_slots(TriggerSpan)


@dataclass(frozen=True, slots=True)
class EmotionTriggers:
    """One (emotion, triggers) pair of an output; any iterable of triggers is stored as a tuple."""

    emotion: EmotionLabel
    triggers: tuple[TriggerSpan, ...]

    def __init__(self, emotion: EmotionLabel, triggers: Iterable[TriggerSpan]):
        set_emotion, set_triggers = _PAIR_SLOTS
        set_emotion.__set__(self, emotion)
        set_triggers.__set__(self, triggers if type(triggers) is tuple else tuple(triggers))


_PAIR_SLOTS = _record_slots(EmotionTriggers)


@dataclass(frozen=True, slots=True)
class EotOutput:
    """The emotion-trigger assignment for one review, gold or predicted.

    Invariants enforced on construction: Neutral appears only alone and
    with no triggers; emotions are unique; every non-Neutral pair carries
    at least one trigger. An output with zero pairs is legal and means
    "nothing verifiable was produced" (e.g. an unparseable response).
    Any iterable of pairs is stored as a tuple.
    """

    review_id: str
    pairs: tuple[EmotionTriggers, ...]

    def __init__(self, review_id: str, pairs: Iterable[EmotionTriggers]):
        if type(pairs) is not tuple:
            pairs = tuple(pairs)
        seen: set[EmotionLabel] = set()
        for pair in pairs:
            emotion = pair.emotion
            if emotion in seen:
                raise ValueError(f"duplicate emotion {emotion.value}")
            seen.add(emotion)
            if emotion is EmotionLabel.NEUTRAL:
                if len(pairs) != 1 or pair.triggers:
                    raise ValueError("Neutral must be the only pair and carry no triggers")
            elif not pair.triggers:
                raise ValueError(f"{emotion.value} has no triggers")
        set_id, set_pairs = _OUTPUT_SLOTS
        set_id.__set__(self, review_id)
        set_pairs.__set__(self, pairs)

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


_OUTPUT_SLOTS = _record_slots(EotOutput)


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
