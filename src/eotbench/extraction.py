"""Parse raw model responses into validated emotion-trigger outputs.

Parsing is total: any byte string yields an output and its report, never
an exception. The report is the dict of parse keys a ``parsed`` line holds:
``parse_status`` (one of ``PARSE_STATUSES``), ``repair_applied``,
``dropped_triggers`` and ``dropped_emotions``. The machine-checkable half
of the final self-check is enforced here: labels outside the 9-label
vocabulary are dropped (emotion faithfulness) and triggers that cannot be
located verbatim in the review are dropped (opinion trigger
verifiability). The only repair attempted is relocation under
``normalize_text``, the case/whitespace fold of exact matching and gold
dedup; no fuzzy matching, since aggressive repair would inflate scores.

The structured block is the first balanced top-level object that parses
as a JSON object, otherwise the first balanced candidate. Most responses
need one JSON decode: when the first '{' begins a JSON object, that
object is the first candidate and parses, so it wins, and it is used as
decoded. Only when that decode fails is the one-pass close table built
and the candidates walked; the table takes one pass over the response
however many braces are left unclosed (truncated responses leave many):
linear time, with an O(n log n) bound on the worst adversarial input.
The block that wins is decoded once.
"""

from __future__ import annotations

import json
import re
from heapq import heapify, heappop, heapreplace
from typing import Any, Callable

from .errors import NoStructuredBlock, SpanNotFound, UnknownEmotion
from .jsonio import DECODE_ERRORS, utf8_encodable
from .model import (
    EmotionLabel,
    EmotionTriggers,
    EotOutput,
    Review,
    TriggerSpan,
    canonical_emotion,
    locate_span,
    normalize_text,
)

REASON_OOV = "OOV"
REASON_NOT_EXTRACTIVE = "NotExtractive"
REASON_NO_VERIFIABLE_TRIGGER = "NoVerifiableTrigger"
REASON_MALFORMED = "Malformed"
REASON_NEUTRAL_WITH_OTHERS = "NeutralWithOthers"
REASON_NEUTRAL_TRIGGER = "NeutralCarriesNoTriggers"


PARSE_STATUSES = ("Clean", "Repaired", "Unparseable")


_SCAN_CHARS = '{}"\\'  # the characters a brace scan reads


class _ScanGroup:
    """Brace scans that share one string state, so they see the same braces.

    `depth` counts the group's unmatched '{'; `closes_at[d]` lists the
    starts whose object closes when `depth` falls back to d.
    """

    __slots__ = ("depth", "closes_at", "size")

    def __init__(self) -> None:
        self.depth = 0
        self.closes_at: dict[int, list[int]] = {}
        self.size = 0


def _merge(a: _ScanGroup | None, b: _ScanGroup | None) -> _ScanGroup | None:
    """Merge the smaller group into the larger, rebasing its depths."""
    if a is None or b is None:
        return a or b
    if a.size < b.size:
        a, b = b, a
    shift = a.depth - b.depth
    for depth, starts in b.closes_at.items():
        a.closes_at.setdefault(depth + shift, []).extend(starts)
    a.size += b.size
    return a


def _close_table(raw: str) -> dict[int, int]:
    """Map each '{' index to the end (exclusive) of its balanced object.

    This is where a fresh scan from that '{' alone would close: each scan
    starts outside a string, counts braces outside strings and honours
    backslash escapes inside them. Starts that never close are absent.
    The string automaton is deterministic, so at any position the live
    scans fall into at most three groups by string state (outside, inside,
    inside after a backslash); groups that reach the same state merge
    small-to-large. One pass over the brace, quote and backslash
    characters, O(n log n) at worst: each of the four is found by
    ``str.find`` from just after the last, and a heap of the next of each
    says which comes first.
    """
    table: dict[int, int] = {}
    first = raw.find("{")
    if first < 0:
        return table
    outside = inside = escaped = None
    escape_at = first  # index of the backslash that made `escaped`
    upcoming = [(at, ch) for ch in _SCAN_CHARS if (at := raw.find(ch, first)) >= 0]
    heapify(upcoming)
    while upcoming:
        i, ch = upcoming[0]
        at = raw.find(ch, i + 1)
        if at < 0:
            heappop(upcoming)
        else:
            heapreplace(upcoming, (at, ch))
        if escaped is not None and escape_at + 1 < i:
            # the escaped character was plain text; the scans are back in the string
            inside = _merge(inside, escaped)
            escaped = None
        if ch == '"':
            outside, inside, escaped = inside, _merge(outside, escaped), None
        elif ch == "\\":
            inside, escaped = escaped, inside
            escape_at = i
        else:
            if escaped is not None:  # it escapes this brace
                inside = _merge(inside, escaped)
                escaped = None
            if ch == "{":
                if outside is None:
                    outside = _ScanGroup()
                outside.closes_at.setdefault(outside.depth, []).append(i)
                outside.size += 1
                outside.depth += 1
            elif outside is not None:
                outside.depth -= 1
                closed = outside.closes_at.pop(outside.depth, ())
                for start in closed:
                    table[start] = i + 1
                outside.size -= len(closed)
                if not outside.size:
                    outside = None
    return table


_raw_decode = json.JSONDecoder().raw_decode


def _structured_block(raw: str) -> tuple[str, dict | None]:
    """The structured block and its decoded object, None when it does not parse.

    Raises NoStructuredBlock when the response holds no balanced object.
    """
    first = raw.find("{")
    if first < 0:
        raise NoStructuredBlock("no balanced object in response")
    try:
        parsed, end = _raw_decode(raw, first)
    except DECODE_ERRORS:
        pass
    else:
        return raw[first:end], parsed
    table = _close_table(raw)
    candidates: list[str] = []
    pos = first
    while pos >= 0:
        end = table.get(pos)
        if end is None:
            pos = raw.find("{", pos + 1)
            continue
        candidate = raw[pos:end]
        try:
            return candidate, json.loads(candidate)  # it starts with '{': a dict or an error
        except DECODE_ERRORS:
            candidates.append(candidate)
        pos = raw.find("{", end)
    if candidates:
        return candidates[0], None
    raise NoStructuredBlock("no balanced object in response")


def extract_structured_block(raw: str) -> str:
    """Return the first balanced top-level object in a raw response.

    Code fences and surrounding prose are skipped by construction (the
    scan starts at brace characters). A '{' whose object never closes is
    skipped and the scan restarts at the next '{'; a closed object is a
    candidate and the scan resumes after it. Among the candidates, the
    first that parses as a JSON object wins; if none parses, the first
    candidate is returned as-is.
    """
    return _structured_block(raw)[0]


_WORD = re.compile(r"\S+")


def _normalized_review(text: str) -> tuple[str, Callable[[int], int]]:
    """``normalize_text(text)``, and a map from its indices to the review's.

    Lowering makes or removes no whitespace and ``_WORD`` agrees with
    ``str.split``, so index i lies in word k (k spaces before i) at its offset
    in the review; i is never a space, as no normalized trigger starts or ends
    with one. Only a word holding "İ", which lowers to two characters, is
    walked a character at a time. The words are found on the first lookup.
    """
    normalized = normalize_text(text)
    words: list[re.Match] = []

    def to_original(i: int) -> int:
        if not words:
            words.extend(_WORD.finditer(text))
        word = words[normalized.count(" ", 0, i)]
        offset = i - normalized.rfind(" ", 0, i) - 1
        if len(word[0].lower()) == len(word[0]):
            return word.start() + offset
        for at, ch in enumerate(word[0], word.start()):
            offset -= len(ch.lower())
            if offset < 0:
                break
        return at

    return normalized, to_original


def _repair_locate(
    review_text: str, trigger_text: str, normalized: tuple[str, Callable[[int], int]]
) -> TriggerSpan | None:
    """Find ``normalize_text(trigger_text)`` in the review's; `normalized` is
    ``_normalized_review(review_text)``, built once per response."""
    normalized_trigger = normalize_text(trigger_text)
    if not normalized_trigger:
        return None
    normalized_review, to_original = normalized
    at = normalized_review.find(normalized_trigger)
    if at < 0:
        return None
    start = to_original(at)
    end = to_original(at + len(normalized_trigger) - 1) + 1
    return TriggerSpan(text=review_text[start:end], start=start, end=end)


def parse_output(raw: str, review: Review) -> tuple[EotOutput, dict[str, Any]]:
    """Parse one raw response against one review: the output and its report.

    All failures are recorded in the report, never raised: an
    unparseable response, or a ``raw`` that is not a str, yields an empty
    output so it scores as a prediction with no pairs. A label or trigger
    that is not a str UTF-8 can encode is dropped as Malformed, with its
    ``repr``, so every text a report keeps can be written out.
    """
    try:
        parsed = _structured_block(raw)[1] if isinstance(raw, str) else None
    except NoStructuredBlock:
        parsed = None
    emotions = parsed.get("emotions") if parsed is not None else None
    if not isinstance(emotions, list):
        return EotOutput(review.review_id, ()), {
            "parse_status": "Unparseable", "repair_applied": False, "dropped_triggers": [], "dropped_emotions": [],
        }

    dropped_triggers: list[dict[str, str]] = []
    dropped_emotions: list[dict[str, str]] = []
    repair_applied = False
    merged: dict[EmotionLabel, list[TriggerSpan]] = {}
    normalized: tuple[str, Callable[[int], int]] | None = None  # built on the first repair
    for entry in emotions:
        name = entry.get("emotion") if isinstance(entry, dict) else None
        if not (isinstance(name, str) and utf8_encodable(name)):
            dropped_emotions.append({"label": repr(entry)[:120], "reason": REASON_MALFORMED})
            continue
        try:
            label = canonical_emotion(name)
        except UnknownEmotion:
            dropped_emotions.append({"label": name, "reason": REASON_OOV})
            continue
        emotion = label.value
        triggers = entry.get("triggers", [])
        if not isinstance(triggers, list):
            dropped_triggers.append({"emotion": emotion, "text": repr(triggers)[:120], "reason": REASON_MALFORMED})
            triggers = []
        spans = merged.setdefault(label, [])
        for trigger in triggers:
            if not (isinstance(trigger, str) and utf8_encodable(trigger)):
                dropped_triggers.append({"emotion": emotion, "text": repr(trigger)[:120], "reason": REASON_MALFORMED})
                continue
            if label is EmotionLabel.NEUTRAL:
                dropped_triggers.append({"emotion": emotion, "text": trigger, "reason": REASON_NEUTRAL_TRIGGER})
                continue
            try:
                span = locate_span(review.text, trigger)
            except SpanNotFound:
                if normalized is None:
                    normalized = _normalized_review(review.text)
                span = _repair_locate(review.text, trigger, normalized)
                if span is None:
                    dropped_triggers.append({"emotion": emotion, "text": trigger, "reason": REASON_NOT_EXTRACTIVE})
                    continue
                repair_applied = True
            if not any(s.start == span.start and s.end == span.end for s in spans):
                spans.append(span)

    survivors: list[tuple[EmotionLabel, list[TriggerSpan]]] = []
    neutral_seen = EmotionLabel.NEUTRAL in merged
    for label, spans in merged.items():
        if label is EmotionLabel.NEUTRAL:
            continue
        if spans:
            survivors.append((label, spans))
        else:
            dropped_emotions.append({"label": label.value, "reason": REASON_NO_VERIFIABLE_TRIGGER})
    if neutral_seen:
        if survivors:
            dropped_emotions.append({"label": EmotionLabel.NEUTRAL.value, "reason": REASON_NEUTRAL_WITH_OTHERS})
        else:
            survivors = [(EmotionLabel.NEUTRAL, [])]

    output = EotOutput(
        review.review_id,
        tuple(EmotionTriggers(label, tuple(spans)) for label, spans in survivors),
    )
    return output, {
        "parse_status": "Repaired" if repair_applied else "Clean", "repair_applied": repair_applied,
        "dropped_triggers": dropped_triggers, "dropped_emotions": dropped_emotions,
    }
