"""Three-annotator ingestion, gold-standard aggregation, and agreement.

Gold aggregation: an emotion enters the gold standard when at least two
of the three raters list it; its triggers are the union of all raters'
triggers for that emotion, deduplicated on normalized text, and when
retained spans overlap in character intervals only the longest survives
(ties: leftmost start, then lexicographically smallest text). Three-way
disagreement falls back to Neutral with a "no majority" provenance flag.

Agreement: pairwise Cohen kappa and three-rater Fleiss kappa for
emotions (multi-label sets expanded to per-(review, emotion) binary
items over the 9-label space), plus token-level kappas for triggers so
partially overlapping spans still earn credit. Every kappa is read from
rater x rater co-counts of each review's items, the items packed one bit
each into an int per rater.

Gold statistics: per domain and overall, emotion counts and shares and
trigger counts and lengths. The agreement report and the gold statistics are
plain dicts, keyed as ``build_agreement_report`` and ``gold_statistics`` say,
and the renderers read them by key.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import DataError, DegenerateDistribution
from .jsonio import ARRAY, BOOLEAN, INTEGER, OBJECT, STRING, check_fields, iter_jsonl, render_table
from .model import (
    DOMAIN_ORDER, EMOTION_ORDER, LABEL_INDEX, EmotionLabel, EmotionTriggers, EotOutput, Review, TriggerSpan,
    canonical_emotion, count_tokens, locate_span, normalize_text, tokenize_with_spans,
)

TRIGGER_KAPPA_POOLING_NOTE = (
    "token-level trigger kappa pools binary (review, token, emotion) items across "
    "emotions; items are generated for each emotion used by at least one rater of "
    "the pair on that review"
)


_EMOTION_SPEC = (("emotion", STRING, True, None), ("triggers", ARRAY, False, STRING))
_PROVENANCE_SPEC = (
    ("emotion_votes", OBJECT, False, INTEGER),
    ("trigger_annotators", ARRAY, False, (
        ("emotion", STRING, True, None), ("text", STRING, True, None), ("annotators", ARRAY, False, STRING),
    )),
    ("no_majority", BOOLEAN, False, None),
)
ANNOTATION_SPEC = (
    ("review_id", STRING, True, None), ("annotator_id", STRING, True, None), ("emotions", ARRAY, True, _EMOTION_SPEC),
)
GOLD_SPEC = (
    ("review_id", STRING, True, None), ("emotions", ARRAY, True, _EMOTION_SPEC),
    ("provenance", _PROVENANCE_SPEC, False, None),
)


def _iter_outputs(
    path: Path | str, reviews: Mapping[str, Review], spec: tuple
) -> Iterator[tuple[int, dict[str, Any], EotOutput]]:
    """Yield (line number, object, output) per non-blank line of a trusted
    file of the review_id / emotions shape whose lines meet ``spec``.

    A line that is not UTF-8, not JSON or not of the spec, that names a
    review not in ``reviews``, or whose output has an unknown label, a
    non-extractive trigger, a repeated emotion or Neutral with triggers is a
    DataError naming ``path:line``.
    """
    for line_no, obj, error in iter_jsonl(path):
        try:
            if error:
                raise ValueError(error)
            check_fields(obj, spec)
            review = reviews.get(obj["review_id"])
            if review is None:
                raise ValueError(f"unknown review_id {obj['review_id']!r}")
            text = review.text
            output = EotOutput(review.review_id, tuple([
                EmotionTriggers(
                    canonical_emotion(entry["emotion"]),
                    tuple([locate_span(text, t) for t in entry.get("triggers", ())]),
                )
                for entry in obj["emotions"]
            ]))
        except (DataError, ValueError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        yield line_no, obj, output


def load_annotations(path: Path | str, reviews: Mapping[str, Review]) -> dict[str, dict[str, EotOutput]]:
    """Load an annotation file, one JSON object per line: ``annotator_id`` plus
    the review_id / emotions shape used everywhere else. Returns review id ->
    annotator id -> output, both in file order; one annotator twice on a
    review is a DataError naming ``path:line``."""
    outputs: dict[str, dict[str, EotOutput]] = {}
    for line_no, obj, output in _iter_outputs(path, reviews, ANNOTATION_SPEC):
        per_review = outputs.setdefault(output.review_id, {})
        annotator_id = obj["annotator_id"]
        if annotator_id in per_review:
            raise DataError(
                f"{path}:{line_no}: annotator {annotator_id!r} appears twice for review {output.review_id!r}"
            )
        per_review[annotator_id] = output
    return outputs


def _dedup_normalized(spans: Iterable[tuple[TriggerSpan, str]]) -> list[tuple[TriggerSpan, str]]:
    """One span per normalized text: the (start, end, text)-smallest wins."""
    best: dict[str, tuple[TriggerSpan, str]] = {}
    for span, norm in spans:
        kept = best.get(norm)
        if kept is None or (span.start, span.end, span.text) < (kept[0].start, kept[0].end, kept[0].text):
            best[norm] = (span, norm)
    return sorted(best.values(), key=lambda sn: (sn[0].start, sn[0].end, sn[0].text))


def resolve_overlaps(spans: Sequence[TriggerSpan]) -> list[TriggerSpan]:
    """Keep only the longest span of any overlapping group.

    Greedy by (length desc, start asc, text asc); the result is pairwise
    non-overlapping and ordered by start.
    """
    ordered = sorted(spans, key=lambda s: (-(s.end - s.start), s.start, s.text))
    kept: list[TriggerSpan] = []
    for span in ordered:
        if not any(span.overlaps(other) for other in kept):
            kept.append(span)
    return sorted(kept, key=lambda s: s.start)


def aggregate_gold(outputs: Mapping[str, EotOutput]) -> tuple[EotOutput, dict[str, Any]]:
    """Majority-vote aggregation of exactly three annotators' outputs on one
    review (annotator id -> output): the gold output, and its provenance as
    the gold line's ``provenance`` object, annotators in ``outputs`` order."""
    if len(outputs) != 3:
        raise DataError(f"need exactly 3 records, got {len(outputs)}")
    review_ids = {output.review_id for output in outputs.values()}
    if len(review_ids) != 1:
        raise DataError(f"records span several reviews: {sorted(review_ids)}")
    [review_id] = review_ids

    votes: Counter[EmotionLabel] = Counter()
    for output in outputs.values():
        votes.update(output.emotions)
    emotion_votes = {e.value: votes[e] for e in EMOTION_ORDER if votes[e]}

    winners = [e for e in EMOTION_ORDER if e is not EmotionLabel.NEUTRAL and votes[e] >= 2]
    pairs = []
    trigger_annotators = []
    for emotion in winners:
        # each annotator's spans with their normalized texts, each normalized once
        normed = [
            [(span, normalize_text(span.text)) for span in output.triggers_for(emotion)]
            for output in outputs.values()
        ]
        deduped = _dedup_normalized([sn for spans in normed for sn in spans])
        norm_of = {span.text: norm for span, norm in deduped}  # one span per norm
        retained = resolve_overlaps([span for span, _ in deduped])
        for span in retained:
            norm = norm_of[span.text]
            contributors = [annotator for annotator, spans in zip(outputs, normed) if any(n == norm for _, n in spans)]
            trigger_annotators.append({"emotion": emotion.value, "text": span.text, "annotators": contributors})
        pairs.append(EmotionTriggers(emotion, tuple(retained)))
    no_majority = not winners and votes[EmotionLabel.NEUTRAL] < 2
    if not winners:
        pairs.append(EmotionTriggers(EmotionLabel.NEUTRAL, ()))
    provenance = {"emotion_votes": emotion_votes, "trigger_annotators": trigger_annotators, "no_majority": no_majority}
    return EotOutput(review_id, tuple(pairs)), provenance


def load_gold(path: Path | str, reviews: Mapping[str, Review]) -> list[EotOutput]:
    """Read a gold file back, relocating trigger spans; a review on two lines
    is a DataError naming ``path:line``. Each line's provenance is checked but
    not kept: scoring and statistics never read it."""
    golds: dict[str, EotOutput] = {}
    for line_no, _, output in _iter_outputs(path, reviews, GOLD_SPEC):
        if output.review_id in golds:
            raise DataError(f"{path}:{line_no}: review {output.review_id!r} appears twice")
        golds[output.review_id] = output
    return list(golds.values())


# ---------------------------------------------------------------------------
# Agreement statistics
# ---------------------------------------------------------------------------


def kappa_from_binary_pairs(pairs: Sequence[tuple[bool, bool]]) -> float:
    """Two-rater kappa over shared binary items.

             p_o - p_e                 p_o = observed agreement rate
    kappa = -----------   with         p_e = p_a*p_b + (1-p_a)*(1-p_b)
             1  -  p_e

    An empty pool or unanimous identical ratings count as vacuously
    perfect (1.0); chance agreement of 1 with imperfect observation
    raises DegenerateDistribution.
    """
    rated = [(bool(a), bool(b)) for a, b in pairs]
    counts = [sum(a for a, _ in rated), sum(b for _, b in rated), sum(a and b for a, b in rated)]
    return _kappa_from_counts([len(rated), *counts])


def _kappa_from_counts(counts: Sequence[int]) -> float:
    """``kappa_from_binary_pairs`` from [n, yes_a, yes_b, both]: n items,
    ``yes_a``/``yes_b`` of them rated yes by each rater, ``both`` by both."""
    n, yes_a, yes_b, both = (int(c) for c in counts)
    if n == 0:
        return 1.0
    p_o = (n - yes_a - yes_b + 2 * both) / n
    p_a, p_b = yes_a / n, yes_b / n
    p_e = p_a * p_b + (1 - p_a) * (1 - p_b)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise DegenerateDistribution("chance agreement is 1 but raters disagree")
    return (p_o - p_e) / (1 - p_e)


def cohen_kappa(
    labels_a: Sequence[set[EmotionLabel]], labels_b: Sequence[set[EmotionLabel]]
) -> float:
    """Two-rater kappa for multi-label emotion sets.

    Each review expands to 9 binary items (one per admissible label);
    kappa is computed over the pooled items.
    """
    if len(labels_a) != len(labels_b) or not labels_a:
        raise DataError("label sequences must be non-empty and equal length")
    pairs = [
        (label in sa, label in sb)
        for sa, sb in zip(labels_a, labels_b)
        for label in EMOTION_ORDER
    ]
    return kappa_from_binary_pairs(pairs)


def fleiss_kappa(item_category_counts: Sequence[Sequence[int]]) -> float:
    """Multi-rater kappa from an items x categories count matrix.

    Rows must be of one length and sum to the same rater count n >= 2.
    Implements kappa = (P_bar - P_bar_e) / (1 - P_bar_e) with P_bar the
    mean per-item pairwise agreement and P_bar_e the squared category
    proportions.
    """
    try:
        rows = [[float(c) for c in row] for row in item_category_counts]
    except (TypeError, ValueError):
        rows = []
    if not rows or len({len(row) for row in rows}) != 1:
        raise DataError("need a non-empty items x categories matrix")
    n = sum(rows[0])
    if n < 2 or any(sum(row) != n for row in rows):
        raise DataError("all rows must sum to the same rater count >= 2")
    return _fleiss(len(rows), n, sum(c * c for row in rows for c in row), map(sum, zip(*rows)))


def _fleiss(items: int, raters: float, sum_of_squared_cells: float, category_totals) -> float:
    """``fleiss_kappa`` from item and rater counts, squared-cell sum and column totals."""
    if not items:
        return float("nan")
    ratings = items * raters
    p_bar = (sum_of_squared_cells - ratings) / (ratings * (raters - 1))
    p_bar_e = sum((total / ratings) ** 2 for total in category_totals)
    if p_bar_e == 1.0:
        if p_bar == 1.0:
            return 1.0
        raise DegenerateDistribution("chance agreement is 1 but raters disagree")
    return (p_bar - p_bar_e) / (1 - p_bar_e)


def _safe_kappa(counts: Sequence[int]) -> float:
    try:
        return _kappa_from_counts(counts)
    except DegenerateDistribution:
        return float("nan")


_PRIMARY = sum(1 << i for label, i in LABEL_INDEX.items() if label is not EmotionLabel.NEUTRAL)


def _review_items(review: Review, outputs: Sequence[EotOutput]) -> tuple[int, list, list]:
    """A review's token count, and per rater bitmasks of labels (bit i is EMOTION_ORDER[i])
    and of tokens covered (bit ``label * n_tokens + token``): a token is covered when
    one of the rater's spans for that label overlaps its ``tokenize_with_spans`` range."""
    starts, ends = tokenize_with_spans(review.text)
    labels, covered = [0] * len(outputs), [0] * len(outputs)
    for rater, output in enumerate(outputs):
        for pair in output.pairs:
            label = LABEL_INDEX[pair.emotion]
            labels[rater] |= 1 << label
            for span in pair.triggers:
                # the tokens that end after the span starts and start before it ends
                first, stop = bisect_right(ends, span.start), bisect_left(starts, span.end)
                covered[rater] |= ((1 << stop) - (1 << first)) << label * len(starts)
    return len(starts), labels, covered


def _co_counts(marks: Sequence[int]) -> list[list[int]]:
    """Rater x rater counts of the binary items both raters marked (one
    bitmask per rater), so each rater's own count is on the diagonal."""
    return [[(a & b).bit_count() for b in marks] for a in marks]


def _add(totals: dict[str, list[int]], domain: str, counts: Sequence[int]) -> None:
    totals[domain] = [a + b for a, b in zip(totals.get(domain, [0] * len(counts)), counts)]


def _pairwise_kappas(
    counts: dict[tuple[str, str], dict[str, list[int]]], unseen: float
) -> tuple[dict[tuple[str, str], dict[str, float]], dict[tuple[str, str], float]]:
    """Per-domain and pooled kappas per pair; ``unseen`` for a pair that
    shares no review."""
    per_domain = {
        pair: {domain: _safe_kappa(c) for domain, c in by_domain.items()}
        for pair, by_domain in counts.items()
    }
    overall = {
        pair: _safe_kappa([sum(c) for c in zip(*by_domain.values())]) if by_domain else unseen
        for pair, by_domain in counts.items()
    }
    return per_domain, overall


def _fleiss_kappas(counts: dict[str, list], raters: int) -> tuple[dict[str, float], float | None]:
    """Per-domain and pooled kappas from [n, sum of yes, sum of yes squared]
    of binary items; NaN with no items (trigger items of reviews without
    tokens), None when no review was rated by all."""

    def kappa(items: int, yes: int, yes_squared: int) -> float:
        # an item's two cells are yes and raters - yes
        squares = 2 * yes_squared - 2 * raters * yes + items * raters * raters
        return _fleiss(items, raters, squares, (yes, items * raters - yes))

    per_domain = {domain: kappa(*c) for domain, c in counts.items()}
    pooled = [sum(c) for c in zip(*counts.values())]
    return per_domain, kappa(*pooled) if pooled else None


def trigger_token_kappa(
    annotations: Mapping[str, Mapping[str, EotOutput]], reviews: Mapping[str, Review]
) -> tuple[dict[tuple[str, str], dict[str, float]], dict[tuple[str, str], float]]:
    """Pairwise token-level trigger agreement, per domain and pooled overall.

    Every review token becomes one binary item per emotion in use by the
    pair on that review: covered by one of the rater's trigger spans for
    that emotion, or not (character-range overlap).
    """
    report = build_agreement_report(annotations, reviews)
    return report["pairwise_trigger_token_kappa"], report["pairwise_trigger_token_overall"]


def build_agreement_report(
    annotations: Mapping[str, Mapping[str, EotOutput]], reviews: Mapping[str, Review]
) -> dict[str, Any]:
    """Every kappa, from binary items counted in one pass that tokenizes each review once.

    ``annotations`` maps review id -> annotator id -> output, as
    ``load_annotations`` returns it; ``reviews`` maps review id -> review.

    The report's keys: ``pairwise_emotion_kappa`` and ``pairwise_trigger_token_kappa``
    (pair -> domain -> kappa), ``pairwise_emotion_overall`` and
    ``pairwise_trigger_token_overall`` (pair -> kappa), ``fleiss_emotion_kappa`` and
    ``fleiss_trigger_token_kappa`` (domain -> kappa), and ``fleiss_emotion_overall``
    and ``fleiss_trigger_token_overall`` (a kappa, or None when no review was rated
    by every annotator). A pair is an (annotator_id, annotator_id) tuple in sorted
    order, a domain its name; an ``*_overall`` kappa pools the items of every domain.

    Pairwise counts are ``pair -> domain -> [n, yes_a, yes_b, both]``; Fleiss
    counts, from the reviews every annotator rated, ``domain -> [n, sum of yes,
    sum of yes squared]``, the trace and the total of the co-count matrix.
    Trigger items are pooled as TRIGGER_KAPPA_POOLING_NOTE says.
    """
    annotator_ids = sorted({annotator for per_review in annotations.values() for annotator in per_review})
    rater_count = len(annotator_ids)
    pairs = list(combinations(annotator_ids, 2))
    emotion_pairs: dict[tuple[str, str], dict[str, list[int]]] = {pair: {} for pair in pairs}
    trigger_pairs: dict[tuple[str, str], dict[str, list[int]]] = {pair: {} for pair in pairs}
    emotion_fleiss: dict[str, list[int]] = {}
    trigger_fleiss: dict[str, list[int]] = {}
    for review_id, per_annotator in annotations.items():
        review = reviews.get(review_id)
        if review is None:
            raise DataError(f"annotations reference unknown review {review_id!r}")
        domain = review.domain.value
        ids = sorted(per_annotator)
        n_tokens, labels, covered = _review_items(review, [per_annotator[a] for a in ids])
        emotion_co, trigger_co = _co_counts(labels), _co_counts(covered)
        for i, j in combinations(range(len(ids)), 2):
            # trigger items: every token under each non-Neutral emotion either rater used
            in_use = (labels[i] | labels[j]) & _PRIMARY
            for pools, n, co in (
                (emotion_pairs, len(EMOTION_ORDER), emotion_co),
                (trigger_pairs, in_use.bit_count() * n_tokens, trigger_co),
            ):
                _add(pools[ids[i], ids[j]], domain, (n, co[i][i], co[j][j], co[i][j]))
        if len(ids) == rater_count >= 2:
            in_use = 0
            for label_bits in labels:
                in_use |= label_bits & _PRIMARY
            fleiss = [(emotion_fleiss, len(EMOTION_ORDER), emotion_co)]
            if in_use:
                fleiss.append((trigger_fleiss, in_use.bit_count() * n_tokens, trigger_co))
            for totals, n, co in fleiss:
                trace = sum(co[i][i] for i in range(rater_count))
                _add(totals, domain, (n, trace, sum(map(sum, co))))
    report = {}
    for kind, pair_counts, fleiss_counts, unseen in (
        ("emotion", emotion_pairs, emotion_fleiss, float("nan")),
        ("trigger_token", trigger_pairs, trigger_fleiss, 1.0),
    ):
        per_pair, per_pair_overall = _pairwise_kappas(pair_counts, unseen)
        fleiss, fleiss_overall = _fleiss_kappas(fleiss_counts, rater_count)
        report[f"pairwise_{kind}_kappa"] = per_pair
        report[f"pairwise_{kind}_overall"] = per_pair_overall
        report[f"fleiss_{kind}_kappa"] = fleiss
        report[f"fleiss_{kind}_overall"] = fleiss_overall
    return report


def render_agreement_report(report: Mapping[str, Any], fmt: str = "table") -> str:
    """Domain-by-pair agreement table, emotion section then trigger section.

    Domains run in DOMAIN_ORDER; pairs run adjacent ones first (A1/A2,
    A2/A3), then the first with the last (A1/A3), then any other in sorted order.
    """
    rated = report["pairwise_emotion_kappa"]
    present = {domain for by_domain in rated.values() for domain in by_domain}
    domains = [d.value for d in DOMAIN_ORDER if d.value in present]
    ids = sorted({a for pair in rated for a in pair})
    pairs = list(zip(ids, ids[1:])) + ([(ids[0], ids[-1])] if len(ids) > 2 else [])
    pairs = [p for p in pairs if p in rated] + sorted(p for p in rated if p not in pairs)
    header = ["Domain"] + [f"{a}/{b}" for a, b in pairs] + ["Average", "Fleiss"]
    note = f"# {TRIGGER_KAPPA_POOLING_NOTE}"
    nan = float("nan")

    def section(title: str, kind: str) -> list[list[str]]:
        per_pair, fleiss = report[f"pairwise_{kind}_kappa"], report[f"fleiss_{kind}_kappa"]
        fleiss_overall = report[f"fleiss_{kind}_overall"]
        rows: list[list[str]] = [[f"[{title}]"] + [""] * (len(header) - 1)]
        values = [[per_pair.get(pair, {}).get(domain, nan) for pair in pairs] for domain in domains]
        for domain, row in zip(domains, values):
            avg = sum(row) / len(row) if row else nan
            rows.append([domain] + [f"{v:.4f}" for v in row + [avg, fleiss.get(domain, nan)]])
        if values:
            col_means = [sum(col) / len(col) for col in zip(*values)]
            col_means.append(sum(col_means) / len(col_means))
            overall = "" if fleiss_overall is None else f"{fleiss_overall:.4f}"
            rows.append(["Overall Average"] + [f"{v:.4f}" for v in col_means] + [overall])
        return rows

    rows = [header, *section("Emotion Agreement", "emotion"), *section("Trigger Agreement", "trigger_token")]
    return note + "\n" + render_table(rows, fmt)


# ---------------------------------------------------------------------------
# Gold-standard descriptive statistics
# ---------------------------------------------------------------------------


def _domain_stats(n_reviews: int, counts: Sequence[Sequence[int]]) -> dict[str, Any]:
    """A column's statistics from its review count and, per label, [records, triggers, trigger tokens]."""
    total_emotions = sum(count for count, _, _ in counts)
    per_emotion = {
        label.value: {
            "count": count,
            "share": count / total_emotions if total_emotions else 0.0,  # of the column's emotions
            "total_triggers": triggers,
            "avg_triggers": triggers / count if count else 0.0,
            "avg_trigger_tokens": tokens / triggers if triggers else 0.0,
        }
        for label, (count, triggers, tokens) in zip(EMOTION_ORDER, counts)
    }
    return {
        "n_reviews": n_reviews,
        "total_emotions": total_emotions,
        "avg_emotions_per_review": total_emotions / n_reviews if n_reviews else 0.0,
        "per_emotion": per_emotion,
    }


def gold_statistics(gold: Sequence[EotOutput], reviews: Mapping[str, Review]) -> dict[str, Any]:
    """Per-domain and overall emotion/trigger statistics of a gold set, from one
    pass that counts each trigger's tokens once; Overall sums the domains.

    The result is ``{"per_domain": {domain: column}, "overall": column}``, a
    column ``n_reviews``, ``total_emotions``, ``avg_emotions_per_review`` and
    ``per_emotion`` (label -> ``count``, ``share`` of the column's emotions,
    ``total_triggers``, ``avg_triggers``, ``avg_trigger_tokens``).
    """
    n_reviews = {d.value: 0 for d in DOMAIN_ORDER}
    counts = {d.value: [[0, 0, 0] for _ in EMOTION_ORDER] for d in DOMAIN_ORDER}
    for output in gold:
        review = reviews.get(output.review_id)
        if review is None:
            raise DataError(f"gold references unknown review {output.review_id!r}")
        domain = review.domain.value
        n_reviews[domain] += 1
        for pair in output.pairs:
            cell = counts[domain][LABEL_INDEX[pair.emotion]]
            cell[0] += 1
            cell[1] += len(pair.triggers)
            cell[2] += sum(count_tokens(span.text) for span in pair.triggers)
    overall = [list(map(sum, zip(*cells))) for cells in zip(*counts.values())]
    return {
        "per_domain": {domain: _domain_stats(n_reviews[domain], counts[domain]) for domain in counts},
        "overall": _domain_stats(sum(n_reviews.values()), overall),
    }


def render_gold_statistics(stats: Mapping[str, Any], fmt: str = "table") -> str:
    domains = [d.value for d in DOMAIN_ORDER]
    header = ["Metric"] + domains + ["Overall"]
    columns = [stats["per_domain"][d] for d in domains] + [stats["overall"]]
    rows: list[list[str]] = [header]
    rows.append(["[Overall Statistics]"] + [""] * (len(header) - 1))
    rows.append(["Total Emotions"] + [str(c["total_emotions"]) for c in columns])
    rows.append(["Avg Emotions per Review"] + [f"{c['avg_emotions_per_review']:.2f}" for c in columns])
    for label in EMOTION_ORDER:
        rows.append([f"[Emotion: {label.value}]"] + [""] * (len(header) - 1))
        stats_row = [c["per_emotion"][label.value] for c in columns]
        rows.append(["Count (Percentage)"] + [f"{s['count']} ({100 * s['share']:.1f}%)" for s in stats_row])
        rows.append(["Total Triggers"] + [str(s["total_triggers"]) for s in stats_row])
        rows.append(["Avg Triggers per Emotion"] + [f"{s['avg_triggers']:.2f}" for s in stats_row])
        rows.append(["Avg Trigger Length (words)"] + [f"{s['avg_trigger_tokens']:.2f}" for s in stats_row])
    return render_table(rows, fmt)
