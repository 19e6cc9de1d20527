"""Emotion and trigger metrics between predicted and gold outputs.

Emotion P/R/F1 are micro-averaged over (review, emotion) pairs across
the 9-label space, with a one-vs-rest per-emotion breakdown. Trigger
classification is a partition of the predicted triggers: exact match
(normalized-text equality with a same-emotion gold trigger), partial
match (token overlap but not exact), or no match. ROUGE-1/ROUGE-L are
averaged over gold triggers after a greedy one-to-one alignment in
descending ROUGE-L order; unmatched gold triggers score zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Mapping, NamedTuple, Sequence

from .annotation import GoldRecord
from .errors import MissingGold
from .jsonio import render_table
from .model import (
    EMOTION_ORDER,
    EmotionLabel,
    EotOutput,
    normalize_text,
    tokenize,
)


class RougeScore(NamedTuple):
    precision: float
    recall: float
    f1: float


class TriggerCounts(NamedTuple):
    n_pred: int
    n_gold: int
    n_em: int
    n_pm: int
    n_nomatch: int


@dataclass(frozen=True)
class PerEmotionScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EmotionScores:
    precision: float
    recall: float
    f1: float
    per_emotion: dict[EmotionLabel, PerEmotionScore]


@dataclass(frozen=True)
class TriggerScores:
    exact_match: float
    partial_match: float
    rouge1: float
    rougeL: float
    counts: TriggerCounts


def _f1(precision: float, recall: float) -> float:
    if precision <= 0 or recall <= 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _aligned(pred: Sequence[EotOutput], gold: Sequence[GoldRecord]):
    gold_map = {g.review_id: g for g in gold}
    for output in pred:
        record = gold_map.get(output.review_id)
        if record is None:
            raise MissingGold(output.review_id)
        yield output, record


def emotion_prf(pred: Sequence[EotOutput], gold: Sequence[GoldRecord]) -> EmotionScores:
    """Micro P/R/F1 over (review, emotion) pairs, Neutral included."""
    hits = 0
    n_pred = 0
    n_gold = 0
    label_hits: Counter[EmotionLabel] = Counter()
    label_pred: Counter[EmotionLabel] = Counter()
    label_gold: Counter[EmotionLabel] = Counter()
    for output, record in _aligned(pred, gold):
        predicted = output.emotions
        expected = record.output.emotions
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
        per_emotion[label] = PerEmotionScore(p, r, _f1(p, r), label_gold[label])
    return EmotionScores(precision, recall, _f1(precision, recall), per_emotion)


def trigger_em_pm(
    pred: Sequence[EotOutput], gold: Sequence[GoldRecord]
) -> tuple[float, float, TriggerCounts]:
    """Classify every predicted trigger as exact match, partial match, or no match.

    Matching is scoped to the trigger's (review, emotion); predictions
    under emotions absent from gold cannot match anything.
    """
    n_pred = n_em = n_pm = 0
    n_gold = 0
    for output, record in _aligned(pred, gold):
        gold_norm: dict[EmotionLabel, set[str]] = {}
        gold_tokens: dict[EmotionLabel, list[set[str]]] = {}
        for pair in record.output.pairs:
            gold_norm[pair.emotion] = {normalize_text(s.text) for s in pair.triggers}
            gold_tokens[pair.emotion] = [set(tokenize(s.text)) for s in pair.triggers]
            n_gold += len(pair.triggers)
        for pair in output.pairs:
            for span in pair.triggers:
                n_pred += 1
                norms = gold_norm.get(pair.emotion, set())
                if normalize_text(span.text) in norms:
                    n_em += 1
                    continue
                tokens = set(tokenize(span.text))
                if any(tokens & g for g in gold_tokens.get(pair.emotion, [])):
                    n_pm += 1
    n_nomatch = n_pred - n_em - n_pm
    em = n_em / n_pred if n_pred else 0.0
    pm = n_pm / n_pred if n_pred else 0.0
    return em, pm, TriggerCounts(n_pred, n_gold, n_em, n_pm, n_nomatch)


def _rouge(overlap: int, pred_tokens: Sequence[str], gold_tokens: Sequence[str]) -> RougeScore:
    """P/R/F1 of ``overlap`` shared tokens; two empty sequences match perfectly."""
    if not pred_tokens or not gold_tokens:
        score = float(not pred_tokens and not gold_tokens)
        return RougeScore(score, score, score)
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return RougeScore(precision, recall, _f1(precision, recall))


def rouge1(pred_tokens: Sequence[str], gold_tokens: Sequence[str]) -> RougeScore:
    """Unigram overlap with multiset clipping."""
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    return _rouge(overlap, pred_tokens, gold_tokens)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b):
            if token == other:
                current.append(previous[j] + 1)
            else:
                current.append(max(previous[j + 1], current[j]))
        previous = current
    return previous[-1]


def rougeL(pred_tokens: Sequence[str], gold_tokens: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence overlap over token sequences."""
    return _rouge(_lcs_length(pred_tokens, gold_tokens), pred_tokens, gold_tokens)


def align_and_average_rouge(
    pred: Sequence[EotOutput], gold: Sequence[GoldRecord]
) -> tuple[float, float]:
    """Mean trigger ROUGE over all gold triggers, greedily aligned.

    Within each (review, emotion) present in gold, predicted triggers
    pair off with gold triggers one-to-one in descending ROUGE-L F1
    order; unmatched gold triggers contribute zero. With no gold
    triggers at all the result is vacuously perfect (1.0, 1.0).
    """
    total_gold = 0
    sum_r1 = 0.0
    sum_rl = 0.0
    for output, record in _aligned(pred, gold):
        for pair in record.output.pairs:
            gold_spans = pair.triggers
            if not gold_spans:
                continue
            total_gold += len(gold_spans)
            pred_spans = output.triggers_for(pair.emotion)
            if not pred_spans:
                continue
            gold_tok = [tokenize(s.text) for s in gold_spans]
            pred_tok = [tokenize(s.text) for s in pred_spans]
            scored = [
                (rougeL(pt, gt).f1, pi, gi)
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
                sum_r1 += rouge1(pred_tok[pi], gold_tok[gi]).f1
    if total_gold == 0:
        return 1.0, 1.0
    return sum_r1 / total_gold, sum_rl / total_gold


def confusion_matrix(
    pred: Sequence[EotOutput], gold: Sequence[GoldRecord]
) -> dict[EmotionLabel, dict[EmotionLabel, float]]:
    """9x9 (predicted, gold) count matrix for the error analysis.

    Correct labels count on the diagonal. Each spurious prediction pairs
    against each missed gold label of the same review with weight
    1 / (|spurious| * |missed|).
    """
    matrix = {p: {g: 0.0 for g in EMOTION_ORDER} for p in EMOTION_ORDER}
    for output, record in _aligned(pred, gold):
        predicted = output.emotions
        expected = record.output.emotions
        for label in predicted & expected:
            matrix[label][label] += 1.0
        spurious = sorted(predicted - expected, key=EMOTION_ORDER.index)
        missed = sorted(expected - predicted, key=EMOTION_ORDER.index)
        if spurious and missed:
            weight = 1.0 / (len(spurious) * len(missed))
            for s in spurious:
                for m in missed:
                    matrix[s][m] += weight
    return matrix


@dataclass(frozen=True)
class ScoreReport:
    emotion: EmotionScores
    trigger: TriggerScores
    confusion: dict[EmotionLabel, dict[EmotionLabel, float]]


def score_predictions(pred: Sequence[EotOutput], gold: Sequence[GoldRecord]) -> ScoreReport:
    """Run the full metric suite for one prediction set."""
    emotion = emotion_prf(pred, gold)
    em, pm, counts = trigger_em_pm(pred, gold)
    r1, rl = align_and_average_rouge(pred, gold)
    return ScoreReport(
        emotion=emotion,
        trigger=TriggerScores(em, pm, r1, rl, counts),
        confusion=confusion_matrix(pred, gold),
    )


# where each headline column lives in a scores dict: (group, key)
_SCORE_FIELDS = {
    "P": ("emotion", "precision"),
    "R": ("emotion", "recall"),
    "F1": ("emotion", "f1"),
    "EM": ("trigger", "exact_match"),
    "PM": ("trigger", "partial_match"),
    "R1": ("trigger", "rouge1"),
    "RL": ("trigger", "rougeL"),
}
SCORE_COLUMNS = tuple(_SCORE_FIELDS)


def score_row(scores: Mapping[str, Any]) -> tuple[float, ...]:
    """The headline row of a scores dict in Table order: P, R, F1, EM, PM, R1, RL."""
    return tuple(float(scores[group][key]) for group, key in _SCORE_FIELDS.values())


def render_score_rows(rows: Mapping[str, Sequence[float]], fmt: str = "table") -> str:
    """Render named score rows with the standard column order."""
    table = [["Model", *SCORE_COLUMNS]]
    table += [[name] + [f"{value:.4f}" for value in values] for name, values in rows.items()]
    return render_table(table, fmt)


def _value_keys(mapping: Mapping[Any, Any]) -> dict[str, Any]:
    return {key.value: value for key, value in mapping.items()}


def score_report_to_dict(report: ScoreReport) -> dict[str, Any]:
    document = asdict(report)
    document["emotion"]["per_emotion"] = _value_keys(document["emotion"]["per_emotion"])
    document["trigger"]["counts"] = report.trigger.counts._asdict()
    document["confusion"] = {p.value: _value_keys(row) for p, row in report.confusion.items()}
    return document
