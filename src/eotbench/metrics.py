"""Emotion and trigger metrics between predicted and gold outputs.

``score_predictions`` computes the whole suite in one pass over the
predictions: it takes each review's predicted and gold label sets once and
tokenizes a trigger once, and only under an emotion that both the
prediction and the gold of its review have, since a trigger under any other
emotion matches nothing. Each aligned pair's ROUGE F1 comes from integer
counts; identical token lists score 1.0 directly (P = R = 1). Its result is
the ``emotion``, ``trigger`` and ``confusion`` objects of ``scores.json``, as
plain dicts; ``emotion_prf``, ``trigger_em_pm``, ``align_and_average_rouge``
and ``confusion_matrix`` are views of it.

- Emotion P/R/F1 are micro-averaged over (review, emotion) pairs across the
  9-label space, with a one-vs-rest per-emotion breakdown.
- Each predicted trigger is an exact match (normalized-text equality with a
  same-emotion gold trigger), a partial match (token overlap but not
  exact), or no match; under an emotion absent from gold it matches nothing.
- ROUGE-1/ROUGE-L are averaged over gold triggers after a greedy one-to-one
  alignment within each (review, emotion) in descending ROUGE-L order;
  unmatched gold triggers score zero, and with no gold triggers both are 1.0.
- The 9x9 (predicted, gold) confusion matrix counts correct labels on the
  diagonal; each spurious label pairs with each missed gold label of the
  same review with weight 1 / (|spurious| * |missed|).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, NamedTuple, Sequence

from .errors import DataError
from .jsonio import NUMBER, STRING, render_table
from .model import EMOTION_ORDER, LABEL_INDEX, EotOutput, normalize_text, tokenize


class RougeScore(NamedTuple):
    precision: float
    recall: float
    f1: float


def _prf(hits: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of ``hits`` among ``n_pred`` predicted and ``n_gold`` gold."""
    precision = hits / n_pred if n_pred else 0.0
    recall = hits / n_gold if n_gold else 0.0
    if precision <= 0 or recall <= 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def _rouge(overlap: int, len_a: int, len_b: int) -> tuple[float, float, float]:
    """P/R/F1 of ``overlap`` tokens shared by sequences ``len_a`` and ``len_b`` long; two empty ones match."""
    if not len_a or not len_b:
        score = float(not len_a and not len_b)
        return score, score, score
    return _prf(overlap, len_a, len_b)


def rouge1(pred_tokens: Sequence[str], gold_tokens: Sequence[str]) -> RougeScore:
    """Unigram overlap with multiset clipping."""
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    return RougeScore(*_rouge(overlap, len(pred_tokens), len(gold_tokens)))


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
    return RougeScore(*_rouge(_lcs_length(pred_tokens, gold_tokens), len(pred_tokens), len(gold_tokens)))


def _rougeL_f1(a: list[str], b: list[str]) -> float:
    """``rougeL(a, b).f1``; identical lists score 1.0 (P = R = 1) without the LCS."""
    if a == b:
        return 1.0
    return _rouge(_lcs_length(a, b), len(a), len(b))[2]


def _rouge1_f1(a: list[str], b: list[str]) -> float:
    """``rouge1(a, b).f1``. When either side repeats no token, clipping
    changes nothing and the overlap is that of the two token sets."""
    if a == b:
        return 1.0
    distinct = set(a)
    if len(distinct) == len(a) or len(set(b)) == len(b):
        overlap = len(distinct.intersection(b))
    else:
        overlap = sum((Counter(a) & Counter(b)).values())
    return _rouge(overlap, len(a), len(b))[2]


def _greedy_alignment(pred_tok: Sequence[list[str]], gold_tok: Sequence[list[str]]):
    """Yield (ROUGE-L F1, pred tokens, gold tokens) for each one-to-one pair,
    taken in descending ROUGE-L F1 order, ties by gold then prediction index."""
    if len(pred_tok) == 1 and len(gold_tok) == 1:
        yield _rougeL_f1(pred_tok[0], gold_tok[0]), pred_tok[0], gold_tok[0]
        return
    scored = [
        (_rougeL_f1(pt, gt), pi, gi)
        for pi, pt in enumerate(pred_tok)
        for gi, gt in enumerate(gold_tok)
    ]
    scored.sort(key=lambda item: (-item[0], item[2], item[1]))
    used_pred, used_gold = set(), set()
    for rl_f1, pi, gi in scored:
        if pi in used_pred or gi in used_gold:
            continue
        used_pred.add(pi)
        used_gold.add(gi)
        yield rl_f1, pred_tok[pi], gold_tok[gi]


def score_predictions(pred: Sequence[EotOutput], gold: Sequence[EotOutput]) -> dict[str, Any]:
    """Run the full metric suite for one prediction set in one pass: the
    ``emotion``, ``trigger`` and ``confusion`` objects of ``scores.json``,
    keys in file order and labels by name.

    Each aligned pair's ROUGE F1 goes straight into the run-wide sums, in
    review order, then gold-pair order, then alignment order: summing in
    another order can change the last digit of the means.
    """
    gold_map = {g.review_id: g for g in gold}
    label_hits = [0] * len(EMOTION_ORDER)
    label_pred = [0] * len(EMOTION_ORDER)
    label_gold = [0] * len(EMOTION_ORDER)
    matrix = {p: {g: 0.0 for g in EMOTION_ORDER} for p in EMOTION_ORDER}
    n_pred = n_gold = n_em = n_pm = 0
    sum_r1 = sum_rl = 0.0
    for output in pred:
        expected_output = gold_map.get(output.review_id)
        if expected_output is None:
            raise DataError(f"no gold record for review {output.review_id!r}")
        predicted = output.emotions
        expected = expected_output.emotions
        hits = predicted & expected
        for label in hits:
            label_hits[LABEL_INDEX[label]] += 1
            matrix[label][label] += 1.0
        for label in predicted:
            label_pred[LABEL_INDEX[label]] += 1
        for label in expected:
            label_gold[LABEL_INDEX[label]] += 1
        spurious = predicted - expected
        missed = expected - predicted
        if spurious and missed:
            # each cell gets one addend per review, so the order is free
            weight = 1.0 / (len(spurious) * len(missed))
            for s in spurious:
                for m in missed:
                    matrix[s][m] += weight
        for pair in output.pairs:
            n_pred += len(pair.triggers)
        for pair in expected_output.pairs:
            n_gold += len(pair.triggers)
            # only a label both sides have can match; Neutral has no triggers
            if pair.emotion not in hits or not pair.triggers:
                continue
            pred_spans = output.triggers_for(pair.emotion)
            pred_tok = [tokenize(s.text) for s in pred_spans]
            gold_tok = [tokenize(s.text) for s in pair.triggers]
            gold_norms = {normalize_text(s.text) for s in pair.triggers}
            gold_vocab = set().union(*gold_tok)
            for span, tokens in zip(pred_spans, pred_tok):
                if normalize_text(span.text) in gold_norms:
                    n_em += 1
                elif not gold_vocab.isdisjoint(tokens):
                    n_pm += 1
            for rl_f1, pt, gt in _greedy_alignment(pred_tok, gold_tok):
                sum_rl += rl_f1
                sum_r1 += _rouge1_f1(pt, gt)

    precision, recall, f1 = _prf(sum(label_hits), sum(label_pred), sum(label_gold))
    per_emotion = {}
    for i, label in enumerate(EMOTION_ORDER):
        p, r, f = _prf(label_hits[i], label_pred[i], label_gold[i])
        per_emotion[label.value] = {"precision": p, "recall": r, "f1": f, "support": label_gold[i]}
    return {
        "emotion": {"precision": precision, "recall": recall, "f1": f1, "per_emotion": per_emotion},
        "trigger": {
            "exact_match": n_em / n_pred if n_pred else 0.0,
            "partial_match": n_pm / n_pred if n_pred else 0.0,
            "rouge1": sum_r1 / n_gold if n_gold else 1.0,
            "rougeL": sum_rl / n_gold if n_gold else 1.0,
            "counts": {"n_pred": n_pred, "n_gold": n_gold, "n_em": n_em, "n_pm": n_pm,
                       "n_nomatch": n_pred - n_em - n_pm},
        },
        "confusion": {p.value: {g.value: w for g, w in row.items()} for p, row in matrix.items()},
    }


def emotion_prf(pred: Sequence[EotOutput], gold: Sequence[EotOutput]) -> dict[str, Any]:
    """Micro P/R/F1 over (review, emotion) pairs, Neutral included: the ``emotion`` object."""
    return score_predictions(pred, gold)["emotion"]


def trigger_em_pm(pred: Sequence[EotOutput], gold: Sequence[EotOutput]) -> tuple[float, float, dict[str, int]]:
    """Exact-match and partial-match shares of the predicted triggers, with the ``counts`` object."""
    trigger = score_predictions(pred, gold)["trigger"]
    return trigger["exact_match"], trigger["partial_match"], trigger["counts"]


def align_and_average_rouge(pred: Sequence[EotOutput], gold: Sequence[EotOutput]) -> tuple[float, float]:
    """Mean ROUGE-1 and ROUGE-L F1 over all gold triggers, greedily aligned."""
    trigger = score_predictions(pred, gold)["trigger"]
    return trigger["rouge1"], trigger["rougeL"]


def confusion_matrix(pred: Sequence[EotOutput], gold: Sequence[EotOutput]) -> dict[str, dict[str, float]]:
    """9x9 (predicted, gold) weight matrix for the error analysis, labels by name."""
    return score_predictions(pred, gold)["confusion"]


SCORE_COLUMNS = ("P", "R", "F1", "EM", "PM", "R1", "RL")

# the headline numbers of a scores dict, group by group in SCORE_COLUMNS order
_HEADLINE_SPEC = (
    ("emotion", (
        ("precision", NUMBER, True, None), ("recall", NUMBER, True, None), ("f1", NUMBER, True, None),
    ), True, None),
    ("trigger", (
        ("exact_match", NUMBER, True, None), ("partial_match", NUMBER, True, None),
        ("rouge1", NUMBER, True, None), ("rougeL", NUMBER, True, None),
    ), True, None),
)
# what report reads of a scores file: its row's name and the headline numbers
SCORES_SPEC = (("run_id", STRING, False, None), ("strategy", STRING, False, None), *_HEADLINE_SPEC)


def score_row(scores: Mapping[str, Any]) -> tuple[float, ...]:
    """The headline row of a scores dict that meets SCORES_SPEC, in Table
    order: P, R, F1, EM, PM, R1, RL."""
    return tuple(scores[group][key] for group, fields, _, _ in _HEADLINE_SPEC for key, *_ in fields)


def render_score_rows(rows: Mapping[str, Sequence[float]], fmt: str = "table") -> str:
    """Render named score rows with the standard column order."""
    table = [["Model", *SCORE_COLUMNS]]
    table += [[name] + [f"{value:.4f}" for value in values] for name, values in rows.items()]
    return render_table(table, fmt)
