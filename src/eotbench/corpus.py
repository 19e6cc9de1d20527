"""Corpus loading, the review-length filter, and seeded sampling.

Sampling is reproducible byte-for-byte: simple random sampling without
replacement (SRSWOR) runs a partial Fisher-Yates shuffle over its own
``random.Random`` instance, and every per-item, per-stratum draw derives
its seed from (plan seed, item id, stratum key), so adding one item never
perturbs another item's sample.
"""

from __future__ import annotations

import hashlib
import logging
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Sequence, TypeVar

from .errors import DataError, InsufficientReviews, data_errors
from .jsonio import INTEGER, STRING, check_fields, iter_jsonl, load_json
from .model import Domain, Review, count_tokens

log = logging.getLogger(__name__)

T = TypeVar("T")

FORMAT_VERSION = "1"


UNKNOWN_STRATUM = "unknown"

# Epoch seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the range
# datetime.fromtimestamp(..., tz=timezone.utc) accepts for a stratum key.
MIN_TIMESTAMP = -62_135_596_800
MAX_TIMESTAMP = 253_402_300_799


PLAN_SPEC = (
    ("seed", INTEGER, True, None), ("items_per_group", INTEGER, True, None),
    ("reviews_per_item", INTEGER, True, None), ("min_tokens", INTEGER, True, None),
    ("max_tokens", INTEGER, True, None), ("strata_granularity", STRING, False, ("Year", "Quarter")),
)


def load_plan(path: Path | str, seed: int | None = None) -> dict[str, Any]:
    """The sampling plan in ``path``: its fields in ``PLAN_SPEC`` order,
    ``strata_granularity`` "Year" when absent, and ``seed``, when given, in
    place of the file's."""
    data = load_json(path)
    if seed is not None:
        data["seed"] = seed
    with data_errors(path, "sampling plan"):
        check_fields(data, PLAN_SPEC)
        if not (0 < data["min_tokens"] <= data["max_tokens"]):
            raise ValueError("need 0 < min_tokens <= max_tokens")
        if data["items_per_group"] < 1 or data["reviews_per_item"] < 1:
            raise ValueError("items_per_group and reviews_per_item must be >= 1")
    return {name: data.get(name, "Year") for name, *_ in PLAN_SPEC}


_DOMAIN_BY_VALUE = {d.value: d for d in Domain}

REVIEW_SPEC = (
    ("review_id", STRING, True, None), ("text", STRING, True, None), ("domain", STRING, True, _DOMAIN_BY_VALUE),
    ("item_id", STRING, True, None), ("timestamp", INTEGER, None, range(MIN_TIMESTAMP, MAX_TIMESTAMP + 1)),
)


def load_corpus(path: Path | str) -> dict[str, Review]:
    """Load a line-delimited review file: each review by id, in file order.

    A malformed line, or one that repeats an id, is logged as rejected with
    its line number and skipped. A DataError is raised when nothing usable
    remains.
    """
    reviews: dict[str, Review] = {}
    for line_no, obj, error in iter_jsonl(path):
        try:
            if error:
                raise ValueError(error)
            check_fields(obj, REVIEW_SPEC)
            if obj["review_id"] in reviews:
                raise ValueError(f"duplicate review_id {obj['review_id']!r}")
            review = Review(obj["review_id"], obj["text"], _DOMAIN_BY_VALUE[obj["domain"]], obj["item_id"],
                            obj.get("timestamp"))
        except ValueError as exc:
            log.warning("%s:%d rejected: %s", path, line_no, exc)
            continue
        reviews[review.review_id] = review
    if not reviews:
        raise DataError(f"no usable records in corpus file: {path}")
    return reviews


def review_to_dict(review: Review) -> dict[str, Any]:
    out = {
        "review_id": review.review_id,
        "text": review.text,
        "domain": review.domain.value,
        "item_id": review.item_id,
    }
    if review.timestamp is not None:
        out["timestamp"] = review.timestamp
    out["format_version"] = FORMAT_VERSION
    return out


def filter_by_length(reviews: Sequence[Review], plan: dict[str, Any]) -> list[Review]:
    """Keep reviews whose token count lies in [min_tokens, max_tokens].

    ``sample`` calls it on the reviews of each drawn item only: items are
    drawn from every item of the corpus, before any length filter.
    """
    return [r for r in reviews if plan["min_tokens"] <= count_tokens(r.text) <= plan["max_tokens"]]


def derive_seed(*parts: Any) -> int:
    """Stable 64-bit seed from arbitrary parts (hash-based, not salted)."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def srswor(population: Sequence[T], n: int, seed: int) -> list[T]:
    """Simple random sampling without replacement, in selection order.

    Partial Fisher-Yates over a seeded generator: deterministic for a
    fixed (population order, n, seed) and uniform over size-n subsets.
    """
    if n > len(population):
        raise DataError(f"cannot draw {n} from a population of {len(population)}")
    rng = Random(seed)
    pool = list(population)
    for i in range(n):
        j = rng.randrange(i, len(pool))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:n]


def stratum_key(review: Review, granularity: str) -> str:
    if review.timestamp is None:
        return UNKNOWN_STRATUM
    moment = datetime.fromtimestamp(review.timestamp, tz=timezone.utc)
    if granularity == "Year":
        return str(moment.year)
    return f"{moment.year}-Q{(moment.month - 1) // 3 + 1}"


def allocate_proportional(sizes: Sequence[int], total: int) -> list[int]:
    """Largest-remainder allocation of ``total`` slots, ties to earlier strata.

    Quotas are exact rationals so equal remainders really tie.
    """
    grand = sum(sizes)
    quotas = [Fraction(total * s, grand) for s in sizes]
    counts = [int(q) for q in quotas]
    leftover = total - sum(counts)
    by_remainder = sorted(range(len(sizes)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return counts


def strata_in_order(reviews: Sequence[Review], granularity: str) -> list[tuple[str, list[Review]]]:
    """The reviews grouped by ``stratum_key``: (key, reviews in input order)
    per stratum, in chronological order with the unknown stratum last."""
    groups: dict[str, list[Review]] = {}
    for review in reviews:
        groups.setdefault(stratum_key(review, granularity), []).append(review)
    # a stratum is one span of time, so any of its reviews places it: keys
    # compared as text would put year 999 after year 1000
    return sorted(groups.items(), key=lambda kv: (kv[0] == UNKNOWN_STRATUM, kv[1][0].timestamp or 0))


def stratified_review_sample(strata: list[tuple[str, list[Review]]], plan: dict[str, Any]) -> list[Review]:
    """Sample ``reviews_per_item`` reviews of one item, allocated proportionally
    to its time strata, ``strata_in_order`` of its reviews."""
    m = plan["reviews_per_item"]
    sizes = [len(rs) for _, rs in strata]
    item_id = strata[0][1][0].item_id if strata else "?"
    if sum(sizes) < m:
        raise InsufficientReviews(item_id, sum(sizes), m)
    sample: list[Review] = []
    for (key, stratum_reviews), k in zip(strata, allocate_proportional(sizes, m)):
        sample.extend(srswor(stratum_reviews, k, derive_seed(plan["seed"], item_id, key)))
    return sample
