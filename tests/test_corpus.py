from __future__ import annotations

import json
import re
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st
from scipy.stats import chisquare

from eotbench.corpus import (
    MAX_TIMESTAMP,
    MIN_TIMESTAMP,
    allocate_proportional,
    derive_seed,
    filter_by_length,
    load_corpus,
    load_plan,
    srswor,
    strata_in_order,
    stratified_review_sample,
    stratum_key,
)
from eotbench.errors import DataError, InsufficientReviews
from eotbench.model import Domain
from conftest import DEEPLY_NESTED, make_review, over_long_integer


def _ts(year: int, month: int = 6) -> int:
    return int(datetime(year, month, 15, tzinfo=timezone.utc).timestamp())


def _plan(**overrides) -> dict:
    return {"seed": 7, "items_per_group": 2, "reviews_per_item": 3, "min_tokens": 1, "max_tokens": 100,
            "strata_granularity": "Year", **overrides}


class TestLoadPlan:
    @pytest.mark.parametrize("overrides, reason", [
        ({"min_tokens": 5, "max_tokens": 4}, "need 0 < min_tokens <= max_tokens"),
        ({"min_tokens": 0}, "need 0 < min_tokens <= max_tokens"),
        ({"reviews_per_item": 0}, "items_per_group and reviews_per_item must be >= 1"),
    ])
    def test_rejects_bad_bounds(self, tmp_path, overrides, reason):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_plan(**overrides)))
        with pytest.raises(DataError, match=rf"plan\.json: bad sampling plan: {reason}$"):
            load_plan(path)

    def test_roundtrip(self, tmp_path):
        plan = _plan(strata_granularity="Quarter")
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert load_plan(path) == plan

    def test_fields_in_spec_order_with_the_default_granularity_and_the_given_seed(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"max_tokens": 100, "min_tokens": 1, "reviews_per_item": 3,
                                    "items_per_group": 2, "seed": 7, "note": "kept out"}))
        plan = load_plan(path, seed=11)
        assert list(plan.items()) == list(_plan(seed=11).items())

    def test_the_given_seed_stands_in_for_a_missing_one(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({key: value for key, value in _plan().items() if key != "seed"}))
        with pytest.raises(DataError, match="seed is required"):
            load_plan(path)
        assert load_plan(path, seed=0)["seed"] == 0


class TestLoadCorpus:
    def _line(self, i, **overrides):
        obj = {
            "review_id": f"r{i}",
            "text": "perfectly fine product overall",
            "domain": "Beauty",
            "item_id": "item-1",
        }
        obj.update(overrides)
        return json.dumps(obj)

    @staticmethod
    def _load(path, caplog) -> tuple[dict, list[tuple[int, str]]]:
        """The loaded reviews, and the line number and reason of each line logged as rejected."""
        caplog.clear()
        reviews = load_corpus(path)
        return reviews, [(r.args[1], str(r.args[2])) for r in caplog.records if r.name == "eotbench.corpus"]

    def test_loads_valid_lines(self, tmp_path, caplog):
        """Each review keyed by its id, in file order."""
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(self._line(i) for i in (2, 0, 1)) + "\n")
        reviews, rejected = self._load(path, caplog)
        assert list(reviews) == ["r2", "r0", "r1"]
        assert all(review.review_id == review_id for review_id, review in reviews.items())
        assert rejected == []

    def test_logs_rejections_with_line_numbers(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        path.write_text(self._line(1) + "\n" + "{not json\n" + self._line(2) + "\n")
        reviews, rejected = self._load(path, caplog)
        assert list(reviews) == ["r1", "r2"]
        assert [line_no for line_no, _ in rejected] == [2]
        [record] = caplog.records
        assert (record.levelname, record.getMessage()) == ("WARNING", f"{path}:2 rejected: {rejected[0][1]}")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match=f"^no usable records in corpus file: {re.escape(str(path))}$"):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        path.write_text(self._line(1) + "\n" + self._line(1, text="a second text") + "\n")
        reviews, rejected = self._load(path, caplog)
        assert reviews["r1"].text == "perfectly fine product overall"
        assert rejected == [(2, "duplicate review_id 'r1'")]

    def test_a_file_may_mix_domains(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(self._line(1) + "\n" + self._line(2, domain="Yelp") + "\n")
        assert [r.domain for r in load_corpus(path).values()] == [Domain.BEAUTY, Domain.YELP]

    def test_non_utf8_line_is_rejected_not_raised(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        bad = self._line(2, text="cafe is fine").encode().replace(b"cafe", b"caf\xe9")
        path.write_bytes(self._line(1).encode() + b"\n" + bad + b"\n" + self._line(3).encode() + b"\n")
        reviews, [(line_no, reason)] = self._load(path, caplog)
        assert list(reviews) == ["r1", "r3"]
        assert line_no == 2 and "UTF-8" in reason

    def test_over_long_integer_is_rejected_not_raised(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        long_line = self._line(2).replace("}", f', "timestamp": {over_long_integer()}}}')
        path.write_text(self._line(1) + "\n" + long_line + "\n" + self._line(3) + "\n")
        reviews, [(line_no, reason)] = self._load(path, caplog)
        assert list(reviews) == ["r1", "r3"]
        assert line_no == 2 and reason.startswith("invalid JSON: ")

    def test_deeply_nested_line_is_rejected_not_raised(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        path.write_text(self._line(1) + "\n" + DEEPLY_NESTED + "\n" + self._line(3) + "\n")
        reviews, [(line_no, reason)] = self._load(path, caplog)
        assert list(reviews) == ["r1", "r3"]
        assert line_no == 2 and reason.startswith("invalid JSON: ")

    def test_bad_timestamp_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(self._line(1, timestamp="june") + "\n" + self._line(2) + "\n")
        assert list(load_corpus(path)) == ["r2"]

    @pytest.mark.parametrize("domain, reason", [
        *((value, "domain is not one of 'Beauty', 'Clothing', 'Home', 'Electronics', 'TripAdvisor', 'Yelp': "
                  f"{value!r}") for value in ("Kitchen", "beauty")),
        (None, "domain is required"),
        *((value, f"domain is not a string: {value!r}") for value in (7, ["Beauty"], {"Beauty": 1})),
    ])
    def test_a_domain_that_is_not_a_domain_value_is_rejected(self, tmp_path, caplog, domain, reason):
        path = tmp_path / "corpus.jsonl"
        path.write_text(self._line(1) + "\n" + self._line(2, domain=domain) + "\n")
        reviews, rejected = self._load(path, caplog)
        assert list(reviews) == ["r1"]
        assert rejected == [(2, reason)]

    def test_timestamp_bounds_are_years_1_to_9999(self):
        assert MIN_TIMESTAMP == datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
        assert MAX_TIMESTAMP == datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()

    @pytest.mark.parametrize("granularity, low, high", [
        ("Year", "1", "9999"),
        ("Quarter", "1-Q1", "9999-Q4"),
    ])
    @pytest.mark.parametrize("timestamp", [
        MIN_TIMESTAMP - 1, MIN_TIMESTAMP, MIN_TIMESTAMP + 1,
        MAX_TIMESTAMP - 1, MAX_TIMESTAMP, MAX_TIMESTAMP + 1,
        1_600_000_000_000, 10**20, -(10**20),
    ])
    def test_timestamp_outside_the_stratum_range_is_rejected(
        self, tmp_path, caplog, granularity, low, high, timestamp
    ):
        path = tmp_path / "corpus.jsonl"
        path.write_text(self._line(1, timestamp=timestamp) + "\n" + self._line(2) + "\n")
        reviews, rejected = self._load(path, caplog)
        if MIN_TIMESTAMP <= timestamp <= MAX_TIMESTAMP:
            assert rejected == []
            key = stratum_key(reviews["r1"], granularity)
            assert key == (low if timestamp < 0 else high)
        else:
            assert list(reviews) == ["r2"]
            assert rejected == [
                (1, f"timestamp is out of range [{MIN_TIMESTAMP}, {MAX_TIMESTAMP}]: {timestamp}")
            ]
            # the bounds are tight: a stratum key cannot be computed just outside them
            with pytest.raises((ValueError, OverflowError, OSError)):
                stratum_key(make_review(timestamp=timestamp), granularity)


class TestFilterByLength:
    def _review_with_tokens(self, i, n):
        return make_review(review_id=f"r{i}", text=" ".join(f"w{k}" for k in range(n)))

    def test_boundaries_inclusive(self):
        plan = _plan(min_tokens=10, max_tokens=100)
        reviews = [
            self._review_with_tokens(9, 9),
            self._review_with_tokens(10, 10),
            self._review_with_tokens(100, 100),
            self._review_with_tokens(101, 101),
        ]
        kept = filter_by_length(reviews, plan)
        assert [r.review_id for r in kept] == ["r10", "r100"]

    def test_order_preserved_and_subset(self):
        plan = _plan(min_tokens=2, max_tokens=3)
        reviews = [self._review_with_tokens(i, n) for i, n in enumerate([1, 3, 2, 5, 3])]
        kept = filter_by_length(reviews, plan)
        assert [r.review_id for r in kept] == ["r1", "r2", "r4"]
        assert all(r in reviews for r in kept)


class TestSrswor:
    def test_exhaustive_sample(self):
        assert sorted(srswor([1, 2, 3, 4, 5], 5, seed=123)) == [1, 2, 3, 4, 5]

    def test_deterministic(self):
        population = list(range(100))
        assert srswor(population, 10, 42) == srswor(population, 10, 42)

    def test_too_large(self):
        with pytest.raises(DataError, match="^cannot draw 3 from a population of 2$"):
            srswor([1, 2], 3, 0)

    def test_no_duplicates_and_subset(self):
        population = list(range(50))
        sample = srswor(population, 20, 7)
        assert len(sample) == len(set(sample)) == 20
        assert set(sample) <= set(population)

    def test_uniform_over_seeded_draws(self):
        counts = Counter(srswor(["a", "b", "c", "d"], 1, seed)[0] for seed in range(10_000))
        assert chisquare([counts[x] for x in "abcd"]).pvalue > 0.01


class TestAllocateProportional:
    def test_spec_tie_case(self):
        # 30/10 with 10 slots: quotas 7.5/2.5, equal remainders, earlier wins
        assert allocate_proportional([30, 10], 10) == [8, 2]

    def test_exact_split(self):
        assert allocate_proportional([5, 5], 10) == [5, 5]

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=8),
        st.data(),
    )
    def test_sums_and_bounds(self, sizes, data):
        total = data.draw(st.integers(0, sum(sizes)))
        counts = allocate_proportional(sizes, total)
        assert sum(counts) == total
        assert all(0 <= c <= s for c, s in zip(counts, sizes))


def _sample(reviews, plan):
    return stratified_review_sample(strata_in_order(reviews, plan["strata_granularity"]), plan)


class TestStratifiedSample:
    def _reviews(self, sizes_by_year: dict[int, int], item_id="item-1"):
        reviews = []
        for year, size in sizes_by_year.items():
            for i in range(size):
                reviews.append(
                    make_review(
                        review_id=f"r{year}-{i}",
                        item_id=item_id,
                        timestamp=_ts(year),
                    )
                )
        return reviews

    def test_single_stratum_degenerates_to_srswor(self):
        plan = _plan(reviews_per_item=10)
        reviews = self._reviews({2020: 20})
        sample = _sample(reviews, plan)
        expected = srswor(reviews, 10, derive_seed(plan["seed"], "item-1", "2020"))
        assert sample == expected

    def test_largest_remainder_tie_goes_to_earlier_stratum(self):
        plan = _plan(reviews_per_item=10)
        reviews = self._reviews({2019: 30, 2020: 10})
        sample = _sample(reviews, plan)
        by_year = Counter(r.review_id.split("-")[0] for r in sample)
        assert by_year == {"r2019": 8, "r2020": 2}

    def test_exhaustive_within_strata(self):
        plan = _plan(reviews_per_item=10)
        reviews = self._reviews({2019: 5, 2020: 5})
        sample = _sample(reviews, plan)
        assert len(sample) == 10
        assert sorted(r.review_id for r in sample) == sorted(r.review_id for r in reviews)

    def test_insufficient_reviews(self):
        plan = _plan(reviews_per_item=10)
        with pytest.raises(InsufficientReviews, match="^item 'item-1' has 4 eligible reviews, need 10$"):
            _sample(self._reviews({2020: 4}), plan)

    def test_missing_timestamps_use_unknown_stratum(self):
        plan = _plan(reviews_per_item=4)
        reviews = self._reviews({2020: 4}) + [
            make_review(review_id=f"u{i}", item_id="item-1") for i in range(4)
        ]
        sample = _sample(reviews, plan)
        assert len(sample) == 4
        known = sum(1 for r in sample if r.timestamp is not None)
        assert known == 2  # proportional 2/2 split

    def test_strata_are_in_chronological_order_with_unknown_last(self):
        reviews = [make_review(review_id="u0")] + self._reviews({2021: 1, 2019: 2, 2020: 1, 1000: 1, 999: 1})
        strata = strata_in_order(reviews, "Year")
        assert [(key, [r.review_id for r in rs]) for key, rs in strata] == [
            ("999", ["r999-0"]), ("1000", ["r1000-0"]),
            ("2019", ["r2019-0", "r2019-1"]), ("2020", ["r2020-0"]), ("2021", ["r2021-0"]), ("unknown", ["u0"]),
        ]

    def test_changing_other_items_does_not_perturb(self):
        plan = _plan(reviews_per_item=3)
        reviews = self._reviews({2020: 6}, item_id="item-A")
        first = _sample(reviews, plan)
        # a different item's sample uses an independent derived seed
        _sample(self._reviews({2020: 6}, item_id="item-B"), plan)
        assert _sample(reviews, plan) == first

    def test_quarter_granularity(self):
        review = make_review(timestamp=_ts(2021, 5))
        assert stratum_key(review, "Quarter") == "2021-Q2"
        assert stratum_key(review, "Year") == "2021"
