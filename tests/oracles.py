"""Independent reference implementations used to check the shipped code.

Each oracle is written against the definitions, not with the package's code:
tokens are the lower-cased texts of the spans a regex scan finds, ROUGE is a
recursive LCS and per-token clipped counting, blocks are found by rescanning
from every brace, the repair map is built one character at a time, gold
triggers are pooled by keeping the longest remaining span until none is left,
and the metric suite is four walks over the predictions. ``oracle_score`` gives a
metrics row by parsing with ``oracle_parse_output`` and scoring with
``oracle_score_report``. ``tests/test_oracles.py`` checks that no package
function an oracle is the reference for is imported here. The oracles share
with the package only:

- the record and error types (``Review``, ``TriggerSpan``, ``EotOutput``,
  ``DataError``, ...), the drop reasons and the ledger's ``LEDGER_SPEC`` with
  its checker ``check_fields``, so results and failures compare with ``==``;
  the parse, score and agreement reports are plain dicts, so nothing is
  imported from ``eotbench.metrics``;
- the label vocabulary: ``canonical_emotion`` and ``EMOTION_ORDER``;
- the sampling draws: ``oracle_sample`` calls ``srswor`` and ``derive_seed``,
  which define the draw, on the plan dict ``corpus.load_plan`` returns. It builds its own strata (UTC year or quarter, the
  unknown stratum last) and its own largest-remainder allocation, and differs
  in when it length-filters: every review of the corpus, before any item is
  drawn.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

from eotbench.corpus import FORMAT_VERSION, derive_seed, srswor
from eotbench.errors import (
    DataError,
    DegenerateDistribution,
    InsufficientReviews,
    NoStructuredBlock,
    UnknownEmotion,
)
from eotbench.extraction import (
    REASON_MALFORMED,
    REASON_NEUTRAL_TRIGGER,
    REASON_NEUTRAL_WITH_OTHERS,
    REASON_NO_VERIFIABLE_TRIGGER,
    REASON_NOT_EXTRACTIVE,
    REASON_OOV,
)
from eotbench.inference import LEDGER_SPEC
from eotbench.jsonio import check_fields
from eotbench.model import (
    EMOTION_ORDER,
    Domain,
    EmotionLabel,
    EmotionTriggers,
    EotOutput,
    Review,
    TriggerSpan,
    canonical_emotion,
)

EMOTIONS = ("Joy", "Trust", "Fear", "Surprise", "Sadness", "Disgust", "Anger", "Anticipation", "Neutral")


def oracle_token_spans(text: str) -> list[tuple[int, int]]:
    """Character ranges of the tokens: each whitespace-separated word with
    its leading and trailing punctuation stripped, unless nothing is left."""
    spans = []
    for match in re.finditer(r"\S+", text):
        start, end = match.start(), match.end()
        while start < end and unicodedata.category(text[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(text[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            spans.append((start, end))
    return spans


def oracle_tokenize(text: str) -> list[str]:
    """The lower-cased texts of ``oracle_token_spans(text)``."""
    return [text[start:end].lower() for start, end in oracle_token_spans(text)]


def brute_lcs(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def brute_clipped_overlap(a: list[str], b: list[str]) -> int:
    total = 0
    for token in set(a):
        total += min(a.count(token), b.count(token))
    return total


def _oracle_f1(precision: float, recall: float) -> float:
    if precision <= 0 or recall <= 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def prf_from_overlap(overlap: int, len_a: int, len_b: int) -> tuple[float, float, float]:
    if len_a == 0 and len_b == 0:
        return 1.0, 1.0, 1.0
    if len_a == 0 or len_b == 0:
        return 0.0, 0.0, 0.0
    p = overlap / len_a
    r = overlap / len_b
    return p, r, _oracle_f1(p, r)


def oracle_rouge1_f1(a: list[str], b: list[str]) -> float:
    return prf_from_overlap(brute_clipped_overlap(a, b), len(a), len(b))[2]


def oracle_rougeL_f1(a: list[str], b: list[str]) -> float:
    return prf_from_overlap(brute_lcs(tuple(a), tuple(b)), len(a), len(b))[2]


def _balanced_block(raw: str, start: int) -> int | None:
    """End index (exclusive) of the object starting at raw[start] == '{'."""
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(raw)):
        ch = raw[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def oracle_extract_structured_block(raw: str) -> str:
    """Return the first balanced top-level object in a raw response.

    Code fences and surrounding prose are skipped by construction (the
    scan starts at brace characters). Among the balanced candidates, the
    first that parses as a JSON object wins; if none parses, the first
    balanced candidate is returned as-is.
    """
    candidates: list[str] = []
    pos = 0
    while True:
        start = raw.find("{", pos)
        if start < 0:
            break
        end = _balanced_block(raw, start)
        if end is None:
            pos = start + 1
            continue
        candidates.append(raw[start:end])
        pos = end
    for candidate in candidates:
        try:
            if isinstance(json.loads(candidate), dict):
                return candidate
        except (ValueError, RecursionError):  # ValueError: also an over-long integer
            continue
    if candidates:
        return candidates[0]
    raise NoStructuredBlock("no balanced object in response")


def _oracle_normalized_with_map(text: str) -> tuple[str, list[int]]:
    """Casefolded, whitespace-collapsed text plus normalized->original index
    map, built one character at a time. Each character's folded text is its
    share of ``text.lower()``, so a word-final sigma folds as it does in the
    whole string (to "ς"); a character lowers to as many characters either way."""
    lowered = text.lower()
    chars: list[str] = []
    index_map: list[int] = []
    pending_space_at: int | None = None
    at = 0  # where the character's folded text starts in `lowered`
    for i, ch in enumerate(text):
        folded = lowered[at : at + len(ch.lower())]
        at += len(folded)
        if ch.isspace():
            if chars and pending_space_at is None:
                pending_space_at = i
            continue
        if pending_space_at is not None:
            chars.append(" ")
            index_map.append(pending_space_at)
            pending_space_at = None
        for c in folded:
            chars.append(c)
            index_map.append(i)
    assert at == len(lowered)
    return "".join(chars), index_map


def oracle_fold(text: str) -> str:
    """The case/whitespace fold: lower-cased, each whitespace run one space, no space at either end."""
    return _oracle_normalized_with_map(text)[0]


def _utf8_str(value) -> bool:
    """Whether ``value`` is a str that UTF-8 can encode (it holds no lone surrogate)."""
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def oracle_parse_output(raw: str, review: Review) -> tuple[EotOutput, dict]:
    """``extraction.parse_output`` as two decodes of the rescanning oracle's
    block and a repair map built one character at a time: the output and the
    parse keys of its ``parsed`` line. A label or trigger that is not a str
    UTF-8 can encode is dropped as Malformed."""
    report = {"parse_status": "Clean", "repair_applied": False, "dropped_triggers": [], "dropped_emotions": []}
    try:
        parsed = json.loads(oracle_extract_structured_block(raw))
    except (NoStructuredBlock, ValueError, RecursionError):
        return EotOutput(review.review_id, ()), {**report, "parse_status": "Unparseable"}
    emotions = parsed.get("emotions") if isinstance(parsed, dict) else None
    if not isinstance(emotions, list):
        return EotOutput(review.review_id, ()), {**report, "parse_status": "Unparseable"}

    merged: dict[EmotionLabel, list[TriggerSpan]] = {}
    normalized = None
    for entry in emotions:
        if not isinstance(entry, dict) or not _utf8_str(entry.get("emotion")):
            report["dropped_emotions"].append({"label": repr(entry)[:120], "reason": REASON_MALFORMED})
            continue
        try:
            label = canonical_emotion(entry["emotion"])
        except UnknownEmotion:
            report["dropped_emotions"].append({"label": entry["emotion"], "reason": REASON_OOV})
            continue
        triggers = entry.get("triggers", [])
        if not isinstance(triggers, list):
            report["dropped_triggers"].append(
                {"emotion": label.value, "text": repr(triggers)[:120], "reason": REASON_MALFORMED}
            )
            triggers = []
        spans = merged.setdefault(label, [])
        for trigger in triggers:
            if not _utf8_str(trigger):
                report["dropped_triggers"].append(
                    {"emotion": label.value, "text": repr(trigger)[:120], "reason": REASON_MALFORMED}
                )
                continue
            if label is EmotionLabel.NEUTRAL:
                report["dropped_triggers"].append(
                    {"emotion": label.value, "text": trigger, "reason": REASON_NEUTRAL_TRIGGER}
                )
                continue
            at = review.text.find(trigger) if trigger else -1
            if at >= 0:
                span = TriggerSpan(trigger, at, at + len(trigger))
            else:
                if normalized is None:
                    normalized = _oracle_normalized_with_map(review.text)
                normalized_review, index_map = normalized
                normalized_trigger = oracle_fold(trigger)
                at = normalized_review.find(normalized_trigger) if normalized_trigger else -1
                if at < 0:
                    report["dropped_triggers"].append(
                        {"emotion": label.value, "text": trigger, "reason": REASON_NOT_EXTRACTIVE}
                    )
                    continue
                start = index_map[at]
                end = index_map[at + len(normalized_trigger) - 1] + 1
                span = TriggerSpan(review.text[start:end], start, end)
                report["parse_status"], report["repair_applied"] = "Repaired", True
            if not any(s.start == span.start and s.end == span.end for s in spans):
                spans.append(span)

    survivors = []
    for label, spans in merged.items():
        if label is EmotionLabel.NEUTRAL:
            continue
        if spans:
            survivors.append((label, spans))
        else:
            report["dropped_emotions"].append(
                {"label": label.value, "reason": REASON_NO_VERIFIABLE_TRIGGER}
            )
    if EmotionLabel.NEUTRAL in merged:
        if survivors:
            report["dropped_emotions"].append(
                {"label": EmotionLabel.NEUTRAL.value, "reason": REASON_NEUTRAL_WITH_OTHERS}
            )
        else:
            survivors = [(EmotionLabel.NEUTRAL, [])]
    output = EotOutput(
        review.review_id,
        tuple(EmotionTriggers(label, tuple(spans)) for label, spans in survivors),
    )
    return output, report


# ---------------------------------------------------------------------------
# Gold aggregation, by brute force from the README's rules.
# ---------------------------------------------------------------------------


def oracle_aggregate_gold(outputs: dict[str, EotOutput]) -> tuple[EotOutput, dict]:
    """``aggregate_gold(outputs)``: annotator id -> that annotator's output on
    one review, to the gold output and its provenance.

    An emotion other than Neutral that two or more annotators list is gold.
    Its triggers are every annotator's triggers for it, one span per folded
    text (the earliest start, then the earliest end, then the smallest text).
    Then, until none is left, the longest remaining span (ties: leftmost
    start, then smallest text) is kept and every span it overlaps is dropped.
    With no such emotion the gold is Neutral, flagged ``no_majority`` unless
    two annotators chose Neutral. A kept trigger credits, in ``outputs``
    order, each annotator with a trigger of its folded text for that emotion.
    """
    if len(outputs) != 3:
        raise DataError(f"need exactly 3 records, got {len(outputs)}")
    review_ids = sorted({output.review_id for output in outputs.values()})
    if len(review_ids) != 1:
        raise DataError(f"records span several reviews: {review_ids}")

    def triggers(annotator: str, label: str) -> list[TriggerSpan]:
        return [s for p in outputs[annotator].pairs if p.emotion.value == label for s in p.triggers]

    votes = {label: sum(any(p.emotion.value == label for p in o.pairs) for o in outputs.values()) for label in EMOTIONS}
    winners = [label for label in EMOTIONS if label != "Neutral" and votes[label] >= 2]
    pairs, credited = [], []
    for label in winners:
        pooled = [s for annotator in outputs for s in triggers(annotator, label)]
        candidates = []
        for span in pooled:
            same_text = [s for s in pooled if oracle_fold(s.text) == oracle_fold(span.text)]
            if span == min(same_text, key=lambda s: (s.start, s.end, s.text)) and span not in candidates:
                candidates.append(span)
        kept = []
        while candidates:
            best = min(candidates, key=lambda s: (s.start - s.end, s.start, s.text))
            kept.append(best)
            candidates = [s for s in candidates if s.end <= best.start or best.end <= s.start]
        kept.sort(key=lambda s: s.start)
        for span in kept:
            annotators = [
                a for a in outputs if any(oracle_fold(s.text) == oracle_fold(span.text) for s in triggers(a, label))
            ]
            credited.append({"emotion": label, "text": span.text, "annotators": annotators})
        pairs.append(EmotionTriggers(EmotionLabel(label), tuple(kept)))
    if not winners:
        pairs.append(EmotionTriggers(EmotionLabel.NEUTRAL, ()))
    provenance = {
        "emotion_votes": {label: n for label, n in votes.items() if n},
        "trigger_annotators": credited,
        "no_majority": not winners and votes["Neutral"] < 2,
    }
    return EotOutput(review_ids[0], tuple(pairs)), provenance


# ---------------------------------------------------------------------------
# Agreement report: the per-(annotator, emotion) implementation that
# re-tokenizes a review for every coverage list and tests every token
# against every span.
# ---------------------------------------------------------------------------


def _oracle_kappa(pairs) -> float:
    n = len(pairs)
    if n == 0:
        return 1.0
    agree = sum(1 for a, b in pairs if a == b)
    yes_a = sum(1 for a, _ in pairs if a)
    yes_b = sum(1 for _, b in pairs if b)
    p_o = agree / n
    p_a, p_b = yes_a / n, yes_b / n
    p_e = p_a * p_b + (1 - p_a) * (1 - p_b)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise DegenerateDistribution("chance agreement is 1 but raters disagree")
    return (p_o - p_e) / (1 - p_e)


def _oracle_safe_kappa(pairs) -> float:
    try:
        return _oracle_kappa(pairs)
    except DegenerateDistribution:
        return float("nan")


def _oracle_cohen(labels_a, labels_b) -> float:
    return _oracle_kappa(
        [(label in sa, label in sb) for sa, sb in zip(labels_a, labels_b) for label in EMOTIONS]
    )


def _oracle_fleiss(rows) -> float:
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise DataError("need a non-empty items x categories matrix")
    n = data.sum(axis=1)[0]
    p_items = ((data * data).sum(axis=1) - n) / (n * (n - 1))
    p_bar = float(p_items.mean())
    proportions = data.sum(axis=0) / data.sum()
    p_bar_e = float((proportions**2).sum())
    if p_bar_e == 1.0:
        if p_bar == 1.0:
            return 1.0
        raise DegenerateDistribution("chance agreement is 1 but raters disagree")
    return (p_bar - p_bar_e) / (1 - p_bar_e)


def _oracle_coverage(text: str, spans) -> list[bool]:
    return [any(t0 < s.end and s.start < t1 for s in spans) for t0, t1 in oracle_token_spans(text)]


def oracle_agreement_report(annotations, reviews) -> dict:
    """``build_agreement_report(annotations, reviews)``: the same eight keys,
    every kappa recomputed; emotions are compared by name. ``annotations``
    maps review id -> annotator id -> output, ``reviews`` review id -> review."""
    annotator_ids = sorted({annotator for outputs in annotations.values() for annotator in outputs})
    rater_count = len(annotator_ids)

    def emotions_of(output) -> set[str]:
        return {p.emotion.value for p in output.pairs}

    def triggers_for(output, emotion: str):
        return next((p.triggers for p in output.pairs if p.emotion.value == emotion), ())

    emotion_sets: dict = {pair: {} for pair in combinations(annotator_ids, 2)}
    fleiss_rows: dict[str, list] = {}
    pools: dict = {pair: {} for pair in combinations(annotator_ids, 2)}
    for review_id, per_annotator in annotations.items():
        review = reviews.get(review_id)
        if review is None:
            raise DataError(f"annotations reference unknown review {review_id!r}")
        domain = review.domain.value
        for pair in combinations(sorted(per_annotator), 2):
            rec_a, rec_b = per_annotator[pair[0]], per_annotator[pair[1]]
            sets_a, sets_b = emotion_sets[pair].setdefault(domain, ([], []))
            sets_a.append(emotions_of(rec_a))
            sets_b.append(emotions_of(rec_b))
            items = pools[pair].setdefault(domain, [])
            used = (emotions_of(rec_a) | emotions_of(rec_b)) - {"Neutral"}
            for emotion in sorted(used, key=EMOTIONS.index):
                covered_a = _oracle_coverage(review.text, triggers_for(rec_a, emotion))
                covered_b = _oracle_coverage(review.text, triggers_for(rec_b, emotion))
                items.extend(zip(covered_a, covered_b))
        if len(per_annotator) == rater_count and rater_count >= 2:
            rows = fleiss_rows.setdefault(domain, [])
            for label in EMOTIONS:
                yes = sum(1 for rec in per_annotator.values() if label in emotions_of(rec))
                rows.append((yes, rater_count - yes))

    pairwise_emotion = {
        pair: {domain: _oracle_cohen(a, b) for domain, (a, b) in by_domain.items()}
        for pair, by_domain in emotion_sets.items()
    }
    pairwise_emotion_overall = {}
    for pair, by_domain in emotion_sets.items():
        all_a = [s for a, _ in by_domain.values() for s in a]
        all_b = [s for _, b in by_domain.values() for s in b]
        pairwise_emotion_overall[pair] = _oracle_cohen(all_a, all_b) if all_a else float("nan")
    pooled_rows = [row for rows in fleiss_rows.values() for row in rows]

    trig_fleiss_rows: dict[str, list] = {}
    for review_id, per_annotator in annotations.items():
        if len(per_annotator) != rater_count or rater_count < 2:
            continue
        review = reviews[review_id]
        emotions = sorted(
            set().union(*(emotions_of(rec) for rec in per_annotator.values())) - {"Neutral"},
            key=EMOTIONS.index,
        )
        if not emotions:
            continue
        rows = trig_fleiss_rows.setdefault(review.domain.value, [])
        coverages = {
            annotator: {e: _oracle_coverage(review.text, triggers_for(rec, e)) for e in emotions}
            for annotator, rec in per_annotator.items()
        }
        for emotion in emotions:
            for idx in range(len(oracle_token_spans(review.text))):
                yes = sum(1 for annotator in per_annotator if coverages[annotator][emotion][idx])
                rows.append((yes, rater_count - yes))
    pooled_trig = [row for rows in trig_fleiss_rows.values() for row in rows]

    return {
        "pairwise_emotion_kappa": pairwise_emotion,
        "pairwise_emotion_overall": pairwise_emotion_overall,
        "fleiss_emotion_kappa": {d: _oracle_fleiss(rows) for d, rows in fleiss_rows.items()},
        "fleiss_emotion_overall": _oracle_fleiss(pooled_rows) if pooled_rows else None,
        "pairwise_trigger_token_kappa": {
            pair: {domain: _oracle_safe_kappa(items) for domain, items in by_domain.items()}
            for pair, by_domain in pools.items()
        },
        "pairwise_trigger_token_overall": {
            pair: _oracle_safe_kappa([item for items in by_domain.values() for item in items])
            for pair, by_domain in pools.items()
        },
        "fleiss_trigger_token_kappa": {
            d: _oracle_fleiss(rows) for d, rows in trig_fleiss_rows.items()
        },
        "fleiss_trigger_token_overall": _oracle_fleiss(pooled_trig) if pooled_trig else None,
    }


# ---------------------------------------------------------------------------
# Metric suite: four walks over the (prediction, gold) pairs, each rebuilding
# the gold map and tokenizing the triggers it needs again. The brute-force
# ROUGE F1s come from the same integers by the same formula as the one-pass
# scorer's and are summed in the same order, so the floats agree bit for bit.
# ---------------------------------------------------------------------------


def _aligned(pred, gold):
    gold_map = {g.review_id: g for g in gold}
    for output in pred:
        expected = gold_map.get(output.review_id)
        if expected is None:
            raise DataError(f"no gold record for review {output.review_id!r}")
        yield output, expected


def _oracle_emotion_prf(pred, gold) -> dict:
    hits = 0
    n_pred = 0
    n_gold = 0
    label_hits: Counter = Counter()
    label_pred: Counter = Counter()
    label_gold: Counter = Counter()
    for output, expected_output in _aligned(pred, gold):
        predicted = output.emotions
        expected = expected_output.emotions
        hits += len(predicted & expected)
        n_pred += len(predicted)
        n_gold += len(expected)
        label_hits.update(predicted & expected)
        label_pred.update(predicted)
        label_gold.update(expected)
    precision = hits / n_pred if n_pred else 0.0
    recall = hits / n_gold if n_gold else 0.0
    per_emotion = {}
    for label in EMOTION_ORDER:
        p = label_hits[label] / label_pred[label] if label_pred[label] else 0.0
        r = label_hits[label] / label_gold[label] if label_gold[label] else 0.0
        per_emotion[label.value] = {"precision": p, "recall": r, "f1": _oracle_f1(p, r), "support": label_gold[label]}
    return {"precision": precision, "recall": recall, "f1": _oracle_f1(precision, recall), "per_emotion": per_emotion}


def _oracle_trigger_em_pm(pred, gold):
    n_pred = n_em = n_pm = 0
    n_gold = 0
    for output, expected_output in _aligned(pred, gold):
        gold_norm = {}
        gold_tokens = {}
        for pair in expected_output.pairs:
            gold_norm[pair.emotion] = {oracle_fold(s.text) for s in pair.triggers}
            gold_tokens[pair.emotion] = [set(oracle_tokenize(s.text)) for s in pair.triggers]
            n_gold += len(pair.triggers)
        for pair in output.pairs:
            for span in pair.triggers:
                n_pred += 1
                norms = gold_norm.get(pair.emotion, set())
                if oracle_fold(span.text) in norms:
                    n_em += 1
                    continue
                tokens = set(oracle_tokenize(span.text))
                if any(tokens & g for g in gold_tokens.get(pair.emotion, [])):
                    n_pm += 1
    n_nomatch = n_pred - n_em - n_pm
    em = n_em / n_pred if n_pred else 0.0
    pm = n_pm / n_pred if n_pred else 0.0
    return em, pm, {"n_pred": n_pred, "n_gold": n_gold, "n_em": n_em, "n_pm": n_pm, "n_nomatch": n_nomatch}


def _oracle_align_and_average_rouge(pred, gold) -> tuple[float, float]:
    total_gold = 0
    sum_r1 = 0.0
    sum_rl = 0.0
    for output, expected_output in _aligned(pred, gold):
        for pair in expected_output.pairs:
            gold_spans = pair.triggers
            if not gold_spans:
                continue
            total_gold += len(gold_spans)
            pred_spans = output.triggers_for(pair.emotion)
            if not pred_spans:
                continue
            gold_tok = [oracle_tokenize(s.text) for s in gold_spans]
            pred_tok = [oracle_tokenize(s.text) for s in pred_spans]
            scored = [
                (oracle_rougeL_f1(pt, gt), pi, gi)
                for pi, pt in enumerate(pred_tok)
                for gi, gt in enumerate(gold_tok)
            ]
            scored.sort(key=lambda item: (-item[0], item[2], item[1]))
            used_pred: set[int] = set()
            used_gold: set[int] = set()
            for rl_f1, pi, gi in scored:
                if pi in used_pred or gi in used_gold:
                    continue
                used_pred.add(pi)
                used_gold.add(gi)
                sum_rl += rl_f1
                sum_r1 += oracle_rouge1_f1(pred_tok[pi], gold_tok[gi])
    if total_gold == 0:
        return 1.0, 1.0
    return sum_r1 / total_gold, sum_rl / total_gold


def _oracle_confusion_matrix(pred, gold):
    matrix = {p: {g: 0.0 for g in EMOTIONS} for p in EMOTIONS}
    for output, expected_output in _aligned(pred, gold):
        predicted = {e.value for e in output.emotions}
        expected = {e.value for e in expected_output.emotions}
        for label in predicted & expected:
            matrix[label][label] += 1.0
        spurious = sorted(predicted - expected, key=EMOTIONS.index)
        missed = sorted(expected - predicted, key=EMOTIONS.index)
        if spurious and missed:
            weight = 1.0 / (len(spurious) * len(missed))
            for s in spurious:
                for m in missed:
                    matrix[s][m] += weight
    return matrix


def oracle_score_report(pred, gold) -> dict:
    """The full metric suite as four independent walks over the predictions:
    the ``emotion``, ``trigger`` and ``confusion`` objects of ``scores.json``,
    keys in the order the README lists them."""
    emotion = _oracle_emotion_prf(pred, gold)
    em, pm, counts = _oracle_trigger_em_pm(pred, gold)
    r1, rl = _oracle_align_and_average_rouge(pred, gold)
    return {
        "emotion": emotion,
        "trigger": {"exact_match": em, "partial_match": pm, "rouge1": r1, "rougeL": rl, "counts": counts},
        "confusion": _oracle_confusion_matrix(pred, gold),
    }


def oracle_score(
    reviews: dict[str, str],
    gold: dict[str, dict[str, list[str]]],
    responses: dict[str, str],
) -> dict[str, float]:
    """The metrics row ``eotbench score`` gives ``responses`` (review id ->
    raw response) against ``gold`` (review id -> emotion -> trigger texts):
    each response parsed by ``oracle_parse_output`` in review id order, the
    predictions scored by ``oracle_score_report``."""

    def located(review_id: str, trigger: str) -> TriggerSpan:
        at = reviews[review_id].find(trigger)
        return TriggerSpan(trigger, at, at + len(trigger))

    # parsing reads a review's id and text only
    pred = [
        oracle_parse_output(responses[rid], Review(rid, reviews[rid], Domain.HOME, "item"))[0]
        for rid in sorted(responses)
    ]
    gold_outputs = [
        EotOutput(rid, tuple(
            EmotionTriggers(canonical_emotion(label), tuple(located(rid, t) for t in texts))
            for label, texts in pairs.items()
        ))
        for rid, pairs in gold.items()
    ]
    report = oracle_score_report(pred, gold_outputs)
    emotion, trigger = report["emotion"], report["trigger"]
    return {
        "P": emotion["precision"],
        "R": emotion["recall"],
        "F1": emotion["f1"],
        "EM": trigger["exact_match"],
        "PM": trigger["partial_match"],
        "R1": trigger["rouge1"],
        "RL": trigger["rougeL"],
    }


def load_handscored_fixture(data_dir: Path):
    """The fixture's reviews, gold and responses, each keyed by review id, and its expected row."""
    base = data_dir / "handscored"

    def records(name: str) -> list[dict]:
        return [json.loads(line) for line in (base / name).read_text().splitlines() if line.strip()]

    reviews = {obj["review_id"]: obj["text"] for obj in records("reviews.jsonl")}
    gold = {obj["review_id"]: {e["emotion"]: e["triggers"] for e in obj["emotions"]} for obj in records("gold.jsonl")}
    responses = {obj["review_id"]: obj["raw_response"] for obj in records("responses.jsonl")}
    return reviews, gold, responses, json.loads((base / "expected.json").read_text())


# ---------------------------------------------------------------------------
# Sampling: the eager command that length-filters every review of the corpus,
# drawn or not, before it draws items; tokens are counted with oracle_tokenize.
# ---------------------------------------------------------------------------


def _oracle_stratum(review: Review, granularity: str) -> tuple:
    """(0, year, name) or (0, year, quarter, name) for a review's UTC year or
    quarter, named "2021" or "2021-Q2"; (1, "unknown") without a timestamp, so
    sorted strata run from the earliest, the unknown last."""
    if review.timestamp is None:
        return 1, "unknown"
    moment = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=review.timestamp)
    if granularity == "Year":
        return 0, moment.year, str(moment.year)
    quarter = (moment.month + 2) // 3
    return 0, moment.year, quarter, f"{moment.year}-Q{quarter}"


def _oracle_allocate(sizes: list[int], total: int) -> list[int]:
    """Largest remainder: each stratum gets the floor of total * size / sum of
    sizes, then the slots left go one each to the largest remainders, an equal
    remainder to the earlier stratum. Quotas share the denominator sum(sizes),
    so remainders compare as the integers total * size % sum(sizes)."""
    grand = sum(sizes)
    counts = [total * size // grand for size in sizes]
    remainders = [total * size % grand for size in sizes]
    for _ in range(total - sum(counts)):
        best = max(range(len(sizes)), key=lambda i: (remainders[i], -i))
        counts[best] += 1
        remainders[best] = -1
    return counts


def oracle_sample(
    records: list[Review], plan: dict, corpus_path: Path, plan_path: Path
) -> tuple[list[Review], dict]:
    """The reviews and the manifest ``eotbench sample`` writes for ``records``
    read from ``corpus_path`` under ``plan`` read from ``plan_path``; raises
    what the command raises. Each drawn item's in-range reviews are split by
    ``_oracle_stratum``, and ``_oracle_allocate`` shares its reviews_per_item
    among the strata, each drawn from in turn with its own seed."""
    filtered = [
        r for r in records if plan["min_tokens"] <= len(oracle_tokenize(r.text)) <= plan["max_tokens"]
    ]
    items_by_domain: dict[str, dict[str, None]] = {}
    domain_of_item: dict[str, str] = {}
    for review in records:
        domain = domain_of_item.setdefault(review.item_id, review.domain.value)
        if domain != review.domain.value:
            raise DataError(
                f"item {review.item_id!r} is under two domains, {domain} and {review.domain.value}"
            )
        items_by_domain.setdefault(review.domain.value, {})[review.item_id] = None
    filtered_by_item: dict[str, list[Review]] = {}
    for review in filtered:
        filtered_by_item.setdefault(review.item_id, []).append(review)

    sample: list[Review] = []
    manifest_items = {}
    domain_summary = {}
    for domain in sorted(items_by_domain):
        items = list(items_by_domain[domain])
        if plan["items_per_group"] > len(items):
            raise DataError(
                f"domain {domain} of {corpus_path}, items_per_group of {plan_path}:"
                f" cannot draw {plan['items_per_group']} from a population of {len(items)}"
            )
        chosen = srswor(items, plan["items_per_group"], derive_seed(plan["seed"], "items", domain))
        domain_summary[domain] = {
            "items_available": len(items),
            "items_sampled": len(chosen),
            "inclusion_probability": plan["items_per_group"] / len(items),
        }
        for item_id in chosen:
            item_reviews = filtered_by_item.get(item_id, [])
            if len(item_reviews) < plan["reviews_per_item"]:
                raise InsufficientReviews(item_id, len(item_reviews), plan["reviews_per_item"])
            by_stratum: dict[tuple, list[Review]] = {}
            for review in item_reviews:
                by_stratum.setdefault(_oracle_stratum(review, plan["strata_granularity"]), []).append(review)
            strata = sorted(by_stratum.items())
            shares = _oracle_allocate([len(rs) for _, rs in strata], plan["reviews_per_item"])
            for ((*_, key), rs), k in zip(strata, shares):
                sample.extend(srswor(rs, k, derive_seed(plan["seed"], item_id, key)))
            manifest_items[item_id] = {
                "domain": domain,
                "strata": {key: len(rs) for (*_, key), rs in strata},
                "sampling_fraction": plan["reviews_per_item"] / len(item_reviews),
            }
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": plan["seed"],
        "plan": plan,
        "domains": domain_summary,
        "items": manifest_items,
        "n_reviews": len(sample),
    }
    return sample, manifest


def oracle_iter_jsonl(path: Path):
    """``jsonio.iter_jsonl``: (line number, value, None) or (line number,
    None, reason) per non-blank line, each line given to ``json.loads``."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield line_no, None, f"invalid UTF-8: {exc.reason} at byte {exc.start}"
                continue
            if not line.strip():
                continue
            try:
                yield line_no, json.loads(line), None
            except (ValueError, RecursionError) as exc:
                yield line_no, None, f"invalid JSON: {getattr(exc, 'msg', exc)}"


def oracle_read_ledger(path: Path) -> tuple[list[dict], list[str]]:
    """``inference.iter_ledger`` on the ledger at ``path``, each line given to
    ``json.loads``: the entries and the warnings for a skipped torn final
    line; raises the same DataError for a corrupt line."""
    entries, warnings = [], []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
                check_fields(entry, LEDGER_SPEC)
                entries.append(entry)
            except (ValueError, RecursionError, KeyError, TypeError) as exc:
                if not line.endswith(b"\n"):
                    warnings.append(f"{path}:{line_no}: skipping torn final ledger line: {exc}")
                    continue
                raise DataError(f"{path}:{line_no}: corrupt ledger entry: {exc}") from None
    return entries, warnings
