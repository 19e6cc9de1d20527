"""Seeded input generator for the eotbench benchmark.

    python3 bench/gen.py --workload {curate,score,run} --seed N --out DIR [--size full|tiny]

Writes every input one workload needs, and nothing else the program could
read: the same (workload, seed, size) always gives byte-identical files.
Next to the inputs it writes ``expected.json``, which only the benchmark's
correctness checks read (the expected sample, each response's shape, the
scripted replies' review ids), and ``properties.json``, which records the
properties the workload varies and why.

The generator does not import eotbench. Texts are built from a seeded
vocabulary so token counts and trigger offsets are known by construction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from random import Random

PROMPT_VERSION = "1.0.0"  # the program's PROMPT_VERSION, a fixed point of the harness
RUN_ID = "bench-run"
PROFILE_NAME = "mock"
DOMAINS = ("Beauty", "Clothing", "Home", "Electronics", "TripAdvisor", "Yelp")
PRIMARY = ("Joy", "Trust", "Fear", "Surprise", "Sadness", "Disgust", "Anger", "Anticipation")
OOV_LABELS = ("Happiness", "Love", "Boredom", "Frustration")
ANNOTATORS = ("A1", "A2", "A3")
MIN_TOKENS, MAX_TOKENS = 20, 120
YEARS = range(2015, 2023)
DEFAULT_CONFIG = {"temperature": 0.2, "top_p": 0.95, "top_k": 25, "max_tokens": 2500, "n": 1}

SIZES = {
    # curate: items per domain, reviews per item, sampled items per domain, reviews per item
    # score: reviews in the run; run: reviews in the run
    "full": {"items": 12, "reviews_per_item": 50, "items_per_group": 4, "sample_per_item": 10,
             "score_reviews": 2000, "run_reviews": 800},
    "tiny": {"items": 3, "reviews_per_item": 12, "items_per_group": 1, "sample_per_item": 3,
             "score_reviews": 40, "run_reviews": 24},
}

# Share of each response shape in the score ledger (the run workload reuses the
# Ok shapes for its scripted replies). Failed-only reviews have no Ok entry.
SCORE_SHAPES = (
    ("clean_fenced", 0.33),
    ("cot_prose", 0.15),
    ("repair_case_ws", 0.12),
    ("oov_nonextractive", 0.10),
    ("neutral_conflict", 0.08),
    ("truncated", 0.04),
    ("failed", 0.06),
    ("failed_then_ok", 0.12),
)
RUN_PRESEEDED_SHARE = 0.25
TRUNCATED_WORDS_PER_DRAFT = 200  # reasoning words between two unclosed draft objects

PROPERTIES = {
    "curate": {
        "why": "the annotation side of the harness: sample a large corpus, then gold, "
               "agreement and statistics on three annotators per sampled review",
        "varies": {
            "corpus_vs_sample": "the corpus is 15x the sample, so load/filter cost is paid on "
                                "reviews that are never sampled",
            "token_range": "10-30% of each item's reviews fall outside [20, 120] tokens, so the "
                           "length filter removes some",
            "timestamps": "reviews span 2015-2022 and ~10% have none, so year strata and the "
                          "unknown stratum both occur",
            "annotator_overlap": "annotators drop emotions, add spurious ones and shift trigger "
                                 "boundaries by a word, so spans overlap partially and some "
                                 "reviews have no majority",
        },
    },
    "score": {
        "why": "scoring replays a ledger: every parse path and the metric suite, no network",
        "varies": {
            "response_shapes": "fenced JSON, chain-of-thought prose then JSON, case/whitespace "
                               "shifted triggers (repair path), OOV labels with non-extractive "
                               "triggers, Neutral conflicts, responses truncated at max_tokens, "
                               "Failed entries and Failed-then-Ok retries",
            "prediction_quality": "predictions keep, drop, shift or invent emotions and triggers, "
                                  "so exact, partial and no-match triggers all occur",
            "unclosed_braces": "a truncated response's reasoning holds one unclosed draft object "
                               "per 200 words (9-12 per response) before its cut-off answer, so "
                               "the open braces grow with its length: the super-linear case of "
                               "structured-block extraction",
            "assumed_shares": "the shape shares, the draft density and every other share here are "
                              "assumptions, not measured traffic; per-shape parse time is reported "
                              "so a later change can re-weight them",
        },
    },
    "run": {
        "why": "the inference loop against a zero-latency mock: request building, HTTP and "
               "ledger appends, so the figure is the harness's own ceiling",
        "varies": {
            "resume": "exactly 25% of reviews are pre-seeded Ok in the ledger, so resume skips them",
            "reply_sizes": "scripted replies reuse the score shapes, so response bodies range "
                           "from ~50 bytes to ~21 KB (truncated reasoning)",
        },
    },
}


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "w", "br", "st", "tr")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "n", "r", "s", "t", "ck", "ll")


def make_vocab(rng: Random, size: int = 400) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        n = rng.choice((1, 2, 2, 3))
        words.add("".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS) for _ in range(n)))
    return sorted(words)


class Text:
    """A review text plus the character range of each word (punctuation excluded)."""

    def __init__(self, rng: Random, vocab: list[str], n_words: int):
        parts: list[str] = []
        self.words: list[tuple[int, int]] = []
        pos = 0
        sentence_left = 0
        for i in range(n_words):
            word = rng.choice(vocab)
            if sentence_left == 0:
                word = word.capitalize()
                sentence_left = rng.randint(5, 12)
            sentence_left -= 1
            if i == n_words - 1 or sentence_left == 0:
                suffix = rng.choice((".", ".", "!"))
                sentence_left = 0
            else:
                suffix = "," if rng.random() < 0.08 else ""
            start = pos + (1 if parts else 0)
            self.words.append((start, start + len(word)))
            parts.append(word + suffix)
            pos = start + len(word) + len(suffix)
        self.text = " ".join(parts)

    def span(self, first: int, last: int) -> str:
        return self.text[self.words[first][0]:self.words[last][1]]

    def random_span(self, rng: Random, max_words: int = 4) -> tuple[int, int]:
        length = rng.randint(1, min(max_words, len(self.words)))
        first = rng.randrange(0, len(self.words) - length + 1)
        return first, first + length - 1


def _shift(text: Text, rng: Random, first: int, last: int) -> tuple[int, int]:
    """Move one boundary of a word range by one word, keeping it valid."""
    n = len(text.words)
    if rng.random() < 0.5:
        first = min(max(0, first + rng.choice((-1, 1))), last)
    else:
        last = max(min(n - 1, last + rng.choice((-1, 1))), first)
    return first, last


def true_labels(text: Text, rng: Random) -> dict[str, list[tuple[int, int]]]:
    """Emotion -> word ranges of its triggers; {} means Neutral."""
    if rng.random() < 0.08:
        return {}
    labels: dict[str, list[tuple[int, int]]] = {}
    for emotion in rng.sample(PRIMARY, rng.choice((1, 1, 2, 2, 3))):
        labels[emotion] = [text.random_span(rng) for _ in range(rng.choice((1, 1, 2)))]
    return labels


def _emotions_doc(entries: list[tuple[str, list[str]]]) -> list[dict]:
    return [{"emotion": e, "triggers": t} for e, t in entries]


def _gold_entries(text: Text, labels: dict[str, list[tuple[int, int]]]) -> list[tuple[str, list[str]]]:
    if not labels:
        return [("Neutral", [])]
    entries = []
    for emotion in PRIMARY:
        if emotion in labels:
            triggers: list[str] = []
            for first, last in labels[emotion]:
                span = text.span(first, last)
                if span not in triggers:
                    triggers.append(span)
            entries.append((emotion, triggers))
    return entries


# ---------------------------------------------------------------------------
# Sampling, re-derived from the documented algorithm (see eotbench.corpus)
# ---------------------------------------------------------------------------


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _srswor(population: list, n: int, seed: int) -> list:
    rng = Random(seed)
    pool = list(population)
    for i in range(n):
        j = rng.randrange(i, len(pool))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:n]


def _allocate(sizes: list[int], total: int) -> list[int]:
    quotas = [Fraction(total * s, sum(sizes)) for s in sizes]
    counts = [int(q) for q in quotas]
    order = sorted(range(len(sizes)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def expected_sample(corpus: list[dict], token_counts: dict[str, int], plan: dict) -> list[str]:
    """Review ids the sampling plan must select, in the program's output order."""
    items_by_domain: dict[str, list[str]] = {}
    in_range: dict[str, list[dict]] = {}
    for record in corpus:
        items = items_by_domain.setdefault(record["domain"], [])
        if record["item_id"] not in items:
            items.append(record["item_id"])
        if plan["min_tokens"] <= token_counts[record["review_id"]] <= plan["max_tokens"]:
            in_range.setdefault(record["item_id"], []).append(record)
    chosen_ids: list[str] = []
    for domain in sorted(items_by_domain):
        for item_id in _srswor(items_by_domain[domain], plan["items_per_group"],
                               _derive_seed(plan["seed"], "items", domain)):
            strata: dict[str, list[dict]] = {}
            for record in in_range[item_id]:
                ts = record.get("timestamp")
                key = "unknown" if ts is None else str(datetime.fromtimestamp(ts, tz=timezone.utc).year)
                strata.setdefault(key, []).append(record)
            ordered = sorted(strata.items(), key=lambda kv: (kv[0] == "unknown", kv[0]))
            counts = _allocate([len(rs) for _, rs in ordered], plan["reviews_per_item"])
            for (key, records), k in zip(ordered, counts):
                taken = _srswor(records, k, _derive_seed(plan["seed"], item_id, key))
                chosen_ids.extend(r["review_id"] for r in taken)
    return chosen_ids


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, ensure_ascii=False, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _timestamp(rng: Random) -> int | None:
    if rng.random() < 0.1:
        return None
    year = rng.choice(YEARS)
    start = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
    return start + rng.randrange(0, 365 * 86400)


def _annotator_entries(text: Text, labels: dict, rng: Random) -> list[tuple[str, list[str]]]:
    kept: dict[str, list[tuple[int, int]]] = {}
    for emotion, spans in labels.items():
        if rng.random() < 0.8:
            chosen = [(_shift(text, rng, *s) if rng.random() < 0.4 else s) for s in spans if rng.random() < 0.9]
            kept[emotion] = chosen or [spans[0]]
    if rng.random() < 0.15:
        spurious = rng.choice([e for e in PRIMARY if e not in kept])
        kept[spurious] = [text.random_span(rng)]
    return _gold_entries(text, kept)


def gen_curate(out: Path, seed: int, size: dict) -> dict:
    rng = Random(f"{seed}:curate")
    vocab = make_vocab(rng)
    corpus: list[dict] = []
    texts: dict[str, Text] = {}
    n_items, per_item = size["items"], size["reviews_per_item"]
    for d, domain in enumerate(DOMAINS):
        for item in range(n_items):
            item_id = f"{domain[:2].upper()}-{item:03d}"
            n_outside = rng.randint(per_item // 10, per_item * 3 // 10)
            outside = set(rng.sample(range(per_item), n_outside))
            for r in range(per_item):
                if r in outside:
                    n_words = rng.choice((rng.randint(4, MIN_TOKENS - 1), rng.randint(MAX_TOKENS + 1, 160)))
                else:
                    n_words = rng.randint(MIN_TOKENS, MAX_TOKENS)
                review_id = f"r{d}{item:03d}{r:03d}"
                text = Text(rng, vocab, n_words)
                texts[review_id] = text
                record = {"review_id": review_id, "text": text.text, "domain": domain, "item_id": item_id}
                ts = _timestamp(rng)
                if ts is not None:
                    record["timestamp"] = ts
                corpus.append(record)
    rng.shuffle(corpus)
    plan = {
        "seed": _derive_seed(seed, "plan") % 2**31,
        "items_per_group": size["items_per_group"],
        "reviews_per_item": size["sample_per_item"],
        "min_tokens": MIN_TOKENS,
        "max_tokens": MAX_TOKENS,
        "strata_granularity": "Year",
    }
    token_counts = {rid: len(t.words) for rid, t in texts.items()}
    sample_ids = expected_sample(corpus, token_counts, plan)

    annotations = []
    for review_id in sorted(sample_ids):
        text = texts[review_id]
        labels = true_labels(text, rng)
        for annotator in ANNOTATORS:
            entries = _annotator_entries(text, labels, rng)
            annotations.append({"review_id": review_id, "annotator_id": annotator,
                                "emotions": _emotions_doc(entries)})
    rng.shuffle(annotations)

    _write_jsonl(out / "corpus.jsonl", corpus)
    _write_json(out / "plan.json", plan)
    _write_jsonl(out / "annotations.jsonl", annotations)
    return {"sample_ids": sample_ids, "n_corpus": len(corpus)}


def _prediction(text: Text, labels: dict, rng: Random) -> list[tuple[str, list[str]]]:
    """A plausible model answer: keeps, drops, shifts or invents emotions and triggers."""
    if not labels:
        if rng.random() < 0.7:
            return [("Neutral", [])]
        return [(rng.choice(PRIMARY), [text.span(*text.random_span(rng))])]
    predicted: dict[str, list[tuple[int, int]]] = {}
    for emotion, spans in labels.items():
        if rng.random() < 0.8:
            chosen = []
            for s in spans:
                roll = rng.random()
                if roll < 0.6:
                    chosen.append(s)
                elif roll < 0.9:
                    chosen.append(_shift(text, rng, *s))
            predicted[emotion] = chosen or [text.random_span(rng)]
    if rng.random() < 0.2:
        spurious = rng.choice([e for e in PRIMARY if e not in predicted])
        predicted[spurious] = [text.random_span(rng)]
    return _gold_entries(text, predicted) if predicted else [("Neutral", [])]


def _absent_phrase(text: Text, vocab: list[str], rng: Random) -> str:
    lowered = " ".join(text.text.lower().split())
    while True:
        phrase = " ".join(rng.choice(vocab) for _ in range(3))
        if phrase not in lowered:
            return phrase


def _prose(rng: Random, vocab: list[str], n_words: int) -> str:
    return Text(rng, vocab, n_words).text


def render_response(shape: str, text: Text, labels: dict, rng: Random, vocab: list[str]) -> str:
    entries = _prediction(text, labels, rng)
    if shape == "repair_case_ws":
        entries = [
            (e, [(t.upper() if (" " not in t or rng.random() < 0.5) else t.replace(" ", "  ")) for t in ts])
            for e, ts in entries
        ]
    elif shape == "oov_nonextractive":
        entries = entries + [(rng.choice(OOV_LABELS), [text.span(*text.random_span(rng))])]
        entries = [(e, ts + ([_absent_phrase(text, vocab, rng)] if e != "Neutral" else [])) for e, ts in entries]
    elif shape == "neutral_conflict":
        entries = [e for e in entries if e[0] != "Neutral"] or [(rng.choice(PRIMARY), [text.span(*text.random_span(rng))])]
        entries = entries + [("Neutral", [text.span(*text.random_span(rng))])]
    body = json.dumps({"emotions": _emotions_doc(entries)}, ensure_ascii=False)
    if shape == "cot_prose":
        return f"Let's think step by step. {_prose(rng, vocab, rng.randint(30, 120))}\n\nFinal answer:\n{body}"
    if shape == "truncated":
        # max_tokens = 2500: long reasoning that drafts the answer in fragments
        # it never closes, then the answer cut off mid-object. No '{' closes,
        # so the count of unclosed braces grows with the response's length.
        parts = ["Let's think step by step."]
        for _ in range(rng.randint(1800, 2500) // TRUNCATED_WORDS_PER_DRAFT):
            parts.append(_prose(rng, vocab, TRUNCATED_WORDS_PER_DRAFT))
            draft = {"emotion": rng.choice(PRIMARY), "triggers": [text.span(*text.random_span(rng))]}
            parts.append("Draft: " + json.dumps(draft, ensure_ascii=False)[:-2])
        return " ".join(parts) + f"\n\n{body[: len(body) // 2]}"
    if shape in ("clean_fenced", "failed_then_ok"):
        return f"```json\n{body}\n```"
    return body


def _ledger_entry(review_id: str, raw: str, status: str, rng: Random) -> dict:
    failed = status == "Failed"
    return {
        "run_id": RUN_ID,
        "review_id": review_id,
        "strategy": "eot-detect",
        "prompt_version": PROMPT_VERSION,
        "raw_response": raw,
        "latency_ms": rng.randint(800, 20000),
        "attempt_count": 5 if failed else rng.choice((1, 1, 1, 2)),
        "status": status,
        "error": "provider error 503: upstream overloaded (after 5 attempts)" if failed else None,
    }


def _manifest() -> dict:
    return {
        "format_version": "1",
        "run_id": RUN_ID,
        "corpus": "reviews.jsonl",
        "strategy": "eot-detect",
        "profile": PROFILE_NAME,
        "prompt_version": PROMPT_VERSION,
        "config": DEFAULT_CONFIG,
        "created_at": "2025-01-01T00:00:00+0000",
        "seed": None,
        "notes": {"zs_cot_system_message": "none"},
    }


def _run_corpus(rng: Random, vocab: list[str], n: int, prefix: str) -> list[tuple[dict, Text]]:
    out, seen = [], set()
    for i in range(n):
        text = Text(rng, vocab, rng.randint(MIN_TOKENS, MAX_TOKENS))
        while text.text in seen:  # the mock keys replies by review text
            text = Text(rng, vocab, rng.randint(MIN_TOKENS, MAX_TOKENS))
        seen.add(text.text)
        out.append(({"review_id": f"{prefix}{i:05d}", "text": text.text, "domain": DOMAINS[i % 6],
                     "item_id": f"{prefix}-item-{i % 37:02d}"}, text))
    return out


def _shape_plan(rng: Random, shapes, n: int) -> list[str]:
    """Exactly round(share * n) of each shape, in seeded order, so that only
    the order, not the mix, changes with the seed."""
    total = sum(w for _, w in shapes)
    plan = [shape for shape, weight in shapes for _ in range(round(weight / total * n))]
    plan = (plan + [shapes[0][0]] * n)[:n]
    rng.shuffle(plan)
    return plan


def gen_score(out: Path, seed: int, size: dict) -> dict:
    rng = Random(f"{seed}:score")
    vocab = make_vocab(rng)
    reviews = _run_corpus(rng, vocab, size["score_reviews"], "s")
    gold, first_pass, retries, shapes = [], [], [], {}
    for (record, text), shape in zip(reviews, _shape_plan(rng, SCORE_SHAPES, len(reviews))):
        labels = true_labels(text, rng)
        gold.append({"review_id": record["review_id"], "emotions": _emotions_doc(_gold_entries(text, labels))})
        shapes[record["review_id"]] = shape
        if shape in ("failed", "failed_then_ok"):
            first_pass.append(_ledger_entry(record["review_id"], "", "Failed", rng))
        else:
            raw = render_response(shape, text, labels, rng, vocab)
            first_pass.append(_ledger_entry(record["review_id"], raw, "Ok", rng))
        if shape == "failed_then_ok":
            raw = render_response(shape, text, labels, rng, vocab)
            retries.append(_ledger_entry(record["review_id"], raw, "Ok", rng))
    rng.shuffle(first_pass)
    rng.shuffle(gold)
    run_dir = out / "runs" / RUN_ID
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "reviews.jsonl", [r for r, _ in reviews])
    _write_jsonl(out / "gold.jsonl", gold)
    _write_json(run_dir / "manifest.json", _manifest())
    _write_jsonl(run_dir / "ledger", first_pass + retries)
    return {"shapes": shapes}


def gen_run(out: Path, seed: int, size: dict) -> dict:
    rng = Random(f"{seed}:run")
    vocab = make_vocab(rng)
    reviews = _run_corpus(rng, vocab, size["run_reviews"], "q")
    ok_shapes = tuple((s, w) for s, w in SCORE_SHAPES if s not in ("failed", "failed_then_ok"))
    replies, preseeded = [], []
    seeded = set(rng.sample(range(len(reviews)), round(RUN_PRESEEDED_SHARE * len(reviews))))
    for i, ((record, text), shape) in enumerate(zip(reviews, _shape_plan(rng, ok_shapes, len(reviews)))):
        reply = render_response(shape, text, true_labels(text, rng), rng, vocab)
        replies.append({"review_text": record["text"], "reply": reply})
        if i in seeded:
            preseeded.append(_ledger_entry(record["review_id"], reply, "Ok", rng))
    run_dir = out / "runs" / RUN_ID
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "reviews.jsonl", [r for r, _ in reviews])
    _write_jsonl(out / "replies.jsonl", replies)
    _write_json(run_dir / "manifest.json", _manifest())
    _write_jsonl(out / "ledger.preseeded", preseeded)
    return {"preseeded_ids": [e["review_id"] for e in preseeded]}


GENERATORS = {"curate": gen_curate, "score": gen_score, "run": gen_run}


def generate(workload: str, seed: int, out: Path, size: str = "full") -> None:
    out.mkdir(parents=True, exist_ok=True)
    expected = GENERATORS[workload](out, seed, SIZES[size])
    _write_json(out / "expected.json", expected)
    _write_json(out / "properties.json", PROPERTIES[workload])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out), args.size)


if __name__ == "__main__":
    main()
