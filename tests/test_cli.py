from __future__ import annotations

import argparse
import csv
import gc
import json
import logging
from pathlib import Path

import pytest

from collections import Counter
from datetime import datetime, timezone

from hypothesis import HealthCheck, example, given, settings, strategies as st

from eotbench import annotation, cli, corpus, inference
from eotbench.cli import EXIT_DATA, EXIT_OK, EXIT_PROVIDER, _render_confusion, build_parser, main
from eotbench.corpus import MAX_TIMESTAMP, MIN_TIMESTAMP, derive_seed, load_corpus, srswor
from eotbench.errors import DataError, InsufficientReviews
from eotbench.jsonio import dump_json, load_json, write_jsonl
from eotbench.prompting import DEFAULT_CONFIG, PROMPT_VERSION, Strategy, load_config
from conftest import DATA_DIR, ledger_entry
from mock_provider import MockProviderServer
from oracles import oracle_sample


def write_plan(path: Path, **overrides) -> Path:
    plan = dict(
        seed=7,
        items_per_group=2,
        reviews_per_item=3,
        min_tokens=1,
        max_tokens=100,
        strata_granularity="Year",
    )
    plan.update(overrides)
    path.write_text(json.dumps(plan))
    return path


def toy_corpus_lines(n_items: int = 5, reviews_per_item: int = 10) -> list[dict]:
    lines = []
    for item in range(n_items):
        for i in range(reviews_per_item):
            lines.append(
                {
                    "review_id": f"i{item}-r{i}",
                    "text": f"perfectly fine product number {item} review {i} works great",
                    "domain": "Home",
                    "item_id": f"item-{item}",
                    "timestamp": 1500000000 + 40000000 * (i % 3),
                }
            )
    return lines


def write_profile(path: Path, base_url: str) -> Path:
    path.write_text(
        "[mock]\n"
        f"base_url = {base_url}\n"
        "model_id = mock-model\n"
        "supported_params = temperature, top_p, top_k, max_tokens\n"
        "max_concurrency = 4\n"
        "timeout = 10\n"
    )
    return path


def _sample_outcome(work: Path, lines: list[dict], plan: dict, oracle: bool) -> tuple:
    """The bytes of the sample and its manifest, or the data error raised,
    from ``eotbench sample`` or, with ``oracle``, from ``oracle_sample``."""
    corpus_path, plan_path, out = work / "corpus.jsonl", work / "plan.json", work / "sample.jsonl"
    write_jsonl(corpus_path, lines)
    plan_path.write_text(json.dumps(plan))
    out.unlink(missing_ok=True)
    try:
        if oracle:
            sample, manifest = oracle_sample(list(load_corpus(corpus_path).values()), corpus.load_plan(plan_path), corpus_path, plan_path)
            write_jsonl(out, (corpus.review_to_dict(r) for r in sample))
            dump_json(str(out) + ".manifest.json", manifest)
        else:
            args = build_parser().parse_args(
                ["sample", "--corpus", str(corpus_path), "--plan", str(plan_path), "--out", str(out)]
            )
            args.func(args)
    except DataError as exc:
        return type(exc), str(exc)
    return out.read_bytes(), Path(str(out) + ".manifest.json").read_bytes()


def _assert_sample_matches_oracle(work: Path, lines: list[dict], plan: dict) -> tuple:
    got = _sample_outcome(work, lines, plan, oracle=False)
    assert got == _sample_outcome(work, lines, plan, oracle=True)
    return got


def _review_line(i: int, item_id: str, text: str, domain: str = "Home", timestamp: int | None = None) -> dict:
    line = {"review_id": f"r{i}", "text": text, "domain": domain, "item_id": item_id}
    if timestamp is not None:
        line["timestamp"] = timestamp
    return line


def _ts(year: int, month: int = 6) -> int:
    return int(datetime(year, month, 15, tzinfo=timezone.utc).timestamp())


# words that tokenize to nothing ("!!") or to less than the word ('"great')
_SAMPLE_WORDS = ("good", "Fine", "kettle", "!!", "...", "\u2014", '"great', "'tis", "\u00abbon\u00bb",
                 "(nice)", "?!", "\u00bfque?")
_SAMPLE_LINES = st.lists(
    st.tuples(
        st.sampled_from(("Home", "Yelp", "Beauty")),
        st.sampled_from(("a", "b", "c", "d")),
        st.lists(st.sampled_from(_SAMPLE_WORDS), min_size=1, max_size=6).map(" ".join),
        st.none() | st.sampled_from(
            (_ts(2015, 2), _ts(2015, 8), _ts(2017, 11), _ts(999), _ts(1000), MIN_TIMESTAMP, MAX_TIMESTAMP)
        ),
    ),
    min_size=1,
    max_size=30,
    # an item id names one item of one domain ("Ha", "Yb"); test_item_ids_shared_across_domains shares them
).map(lambda rows: [_review_line(i, domain[0] + item, text, domain, ts)
                    for i, (domain, item, text, ts) in enumerate(rows)])
_SAMPLE_PLANS = st.builds(
    lambda seed, items, reviews, low, width, granularity: {
        "seed": seed, "items_per_group": items, "reviews_per_item": reviews,
        "min_tokens": low, "max_tokens": low + width, "strata_granularity": granularity,
    },
    st.integers(0, 40), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 3),
    st.sampled_from(("Year", "Quarter")),
)


_YEARS_999_TO_2015 = [_review_line(i, "a", f"kettle works fine {i}", timestamp=_ts(year))
                      for i, year in enumerate((2015, 1000, 999))]
_ALL_THREE = {"seed": 1, "items_per_group": 1, "reviews_per_item": 3, "min_tokens": 2, "max_tokens": 4}


def _seed_drawing(items: list[str], domain: str, wanted: str) -> int:
    """A plan seed whose one-item draw in ``domain`` is ``wanted``."""
    return next(s for s in range(100) if srswor(items, 1, derive_seed(s, "items", domain)) == [wanted])


class TestSampleAgainstOracle:
    """``sample`` length-filters only the drawn items' reviews; the oracle
    filters every review first. Outputs and errors must be the same."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=_SAMPLE_LINES, plan=_SAMPLE_PLANS)
    # strata keys compared as text would put year 999 after year 1000
    @example(lines=_YEARS_999_TO_2015, plan={**_ALL_THREE, "strata_granularity": "Year"})
    @example(lines=_YEARS_999_TO_2015, plan={**_ALL_THREE, "strata_granularity": "Quarter"})
    def test_same_bytes_or_same_error(self, tmp_path, lines, plan):
        _assert_sample_matches_oracle(tmp_path, lines, plan)

    def _plan(self, **overrides) -> dict:
        return {"seed": 1, "items_per_group": 1, "reviews_per_item": 2, "min_tokens": 2,
                "max_tokens": 4, "strata_granularity": "Year", **overrides}

    def test_undrawn_item_with_every_review_out_of_range(self, tmp_path):
        lines = [_review_line(i, "a", f"kettle works fine {i}", timestamp=_ts(2015 + i)) for i in range(3)]
        lines += [_review_line(10 + i, "b", "!! ok ...") for i in range(3)]  # one token each
        plan = self._plan(seed=_seed_drawing(["a", "b"], "Home", "a"))
        sample, manifest = _assert_sample_matches_oracle(tmp_path, lines, plan)
        assert list(json.loads(manifest)["items"]) == ["a"]

    def test_drawn_item_with_too_few_in_range_reviews(self, tmp_path):
        lines = [_review_line(i, "a", f"kettle works fine {i}") for i in range(3)]
        lines += [_review_line(10, "b", "kettle works fine"), _review_line(11, "b", '"!!" fine')]
        plan = self._plan(seed=_seed_drawing(["a", "b"], "Home", "b"))
        assert _assert_sample_matches_oracle(tmp_path, lines, plan) == (
            InsufficientReviews, str(InsufficientReviews("b", 1, 2))
        )

    def test_same_item_id_under_two_domains(self, tmp_path):
        lines = [_review_line(i, "shared", f"kettle works fine {i}", "Home") for i in range(2)]
        lines += [_review_line(10 + i, "shared", f"dinner was '{i}' good", "Yelp") for i in range(2)]
        assert _assert_sample_matches_oracle(tmp_path, lines, self._plan()) == (
            DataError, "item 'shared' is under two domains, Home and Yelp"
        )
        corpus_path, out = tmp_path / "corpus.jsonl", tmp_path / "sample.jsonl"
        argv = ["sample", "--corpus", str(corpus_path), "--plan", str(tmp_path / "plan.json"), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=_SAMPLE_LINES, plan=_SAMPLE_PLANS)
    def test_item_ids_shared_across_domains(self, tmp_path, lines, plan):
        for line in lines:
            line["item_id"] = line["item_id"][1:]  # "Ha" and "Ya" become one item id, "a"
        got = _assert_sample_matches_oracle(tmp_path, lines, plan)
        domains: dict[str, set[str]] = {}
        for line in lines:
            domains.setdefault(line["item_id"], set()).add(line["domain"])
        if any(len(names) > 1 for names in domains.values()):
            assert got[0] is DataError and "is under two domains" in got[1]

    def test_punctuation_only_and_quote_led_words_at_the_bounds(self, tmp_path):
        # 2, 1, 3, 1 and 2 tokens: only r0, r2 and r4 lie in [2, 3]
        texts = ['"great kettle', "\u00ab !! \u00bb fine", '"x" "y" -- "z"', "\u2014 \u2014 ok", "'tis (fine) -- !"]
        lines = [_review_line(i, "a", text, timestamp=_ts(2016, 2 * i + 1)) for i, text in enumerate(texts)]
        for granularity in ("Year", "Quarter"):
            sample, _ = _assert_sample_matches_oracle(
                tmp_path, lines, self._plan(max_tokens=3, strata_granularity=granularity)
            )
            sampled = {json.loads(line)["review_id"] for line in sample.splitlines()}
            assert len(sampled) == 2 and sampled <= {"r0", "r2", "r4"}

    def test_counts_tokens_once_per_review_of_each_drawn_item(self, tmp_path, monkeypatch):
        counted = Counter()
        count_tokens = corpus.count_tokens

        def counting(text):
            counted[text] += 1
            return count_tokens(text)

        monkeypatch.setattr(corpus, "count_tokens", counting)
        lines = toy_corpus_lines(n_items=6, reviews_per_item=4)
        for line in lines:
            line["domain"] = ("Home", "Yelp")[int(line["item_id"][-1]) % 2]
        sample, manifest = _sample_outcome(
            tmp_path, lines, self._plan(items_per_group=2, max_tokens=100), oracle=False
        )
        drawn = json.loads(manifest)["items"]
        assert len(drawn) == 4
        assert counted == Counter(line["text"] for line in lines if line["item_id"] in drawn)


class TestSampleCommand:
    def test_toy_sample_size_and_determinism(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, toy_corpus_lines())
        plan = write_plan(tmp_path / "plan.json")
        out1 = tmp_path / "sample1.jsonl"
        out2 = tmp_path / "sample2.jsonl"
        assert main(["sample", "--corpus", str(corpus), "--plan", str(plan), "--out", str(out1)]) == EXIT_OK
        assert main(["sample", "--corpus", str(corpus), "--plan", str(plan), "--out", str(out2)]) == EXIT_OK
        assert len(out1.read_text().splitlines()) == 6  # 2 items x 3 reviews
        assert out1.read_bytes() == out2.read_bytes()
        manifest = load_json(str(out1) + ".manifest.json")
        assert manifest["seed"] == 7
        assert manifest["n_reviews"] == 6
        assert "Home" in manifest["domains"]

    def test_insufficient_reviews_surfaces_item_id(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        lines = toy_corpus_lines(n_items=1)
        # an extra item whose reviews are all too short for the filter
        lines += [
            {
                "review_id": f"short-{i}",
                "text": "too short",
                "domain": "Home",
                "item_id": "item-short",
            }
            for i in range(10)
        ]
        write_jsonl(corpus, lines)
        plan = write_plan(tmp_path / "plan.json", min_tokens=10, items_per_group=2)
        code = main(
            ["sample", "--corpus", str(corpus), "--plan", str(plan), "--out", str(tmp_path / "s.jsonl")]
        )
        assert code == EXIT_DATA

    def test_millisecond_timestamp_is_a_rejected_line(self, tmp_path, caplog):
        lines = toy_corpus_lines()
        lines[0]["timestamp"] = 1_600_000_000_000  # milliseconds since the epoch
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_path, lines)
        plan = write_plan(tmp_path / "plan.json", items_per_group=5)  # every item is drawn
        out = tmp_path / "s.jsonl"
        assert main(["sample", "--corpus", str(corpus_path), "--plan", str(plan), "--out", str(out)]) == EXIT_OK
        assert f"{corpus_path}:1 rejected: timestamp is out of range" in caplog.text
        assert lines[0]["review_id"] not in out.read_text()

    def test_seed_flag_overrides_plan(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, toy_corpus_lines())
        plan = write_plan(tmp_path / "plan.json")
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        main(["sample", "--corpus", str(corpus), "--plan", str(plan), "--out", str(out1)])
        main(["sample", "--corpus", str(corpus), "--plan", str(plan), "--seed", "8", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_a_failed_manifest_write_leaves_no_manifest_of_an_earlier_sample(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, toy_corpus_lines())
        plan = write_plan(tmp_path / "plan.json")
        out = tmp_path / "s.jsonl"
        manifest = Path(f"{out}.manifest.json")
        assert main(["sample", "--corpus", str(corpus), "--plan", str(plan), "--out", str(out)]) == EXIT_OK
        assert manifest.exists()

        def disk_full(path, document):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "dump_json", disk_full)
        argv = ["sample", "--corpus", str(corpus), "--plan", str(plan), "--seed", "8", "--out", str(out)]
        assert main(argv) == EXIT_DATA
        # the new sample stands without a manifest, not beside the seed-7 one
        assert not manifest.exists()


class TestAggregateCommand:
    def _setup(self, tmp_path, annotator_emotions):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(
            corpus,
            [
                {
                    "review_id": "r1",
                    "text": "I am very happy with this cream",
                    "domain": "Beauty",
                    "item_id": "b1",
                }
            ],
        )
        annotations = tmp_path / "annotations.jsonl"
        write_jsonl(
            annotations,
            [
                {"review_id": "r1", "annotator_id": annotator, "emotions": emotions}
                for annotator, emotions in annotator_emotions.items()
            ],
        )
        return corpus, annotations

    def test_identical_annotations_aggregate_to_the_same_output(self, tmp_path):
        emotions = [{"emotion": "Joy", "triggers": ["very happy"]}]
        corpus, annotations = self._setup(
            tmp_path, {"A1": emotions, "A2": emotions, "A3": emotions}
        )
        out = tmp_path / "gold.jsonl"
        assert main(
            ["aggregate", "--annotations", str(annotations), "--corpus", str(corpus), "--out", str(out)]
        ) == EXIT_OK
        [record] = [json.loads(l) for l in out.read_text().splitlines()]
        assert record["emotions"] == emotions

    def test_singleton_emotion_excluded(self, tmp_path):
        corpus, annotations = self._setup(
            tmp_path,
            {
                "A1": [{"emotion": "Joy", "triggers": ["very happy"]}],
                "A2": [{"emotion": "Joy", "triggers": ["very happy"]}, {"emotion": "Trust", "triggers": ["this cream"]}],
                "A3": [{"emotion": "Joy", "triggers": ["happy"]}],
            },
        )
        out = tmp_path / "gold.jsonl"
        main(["aggregate", "--annotations", str(annotations), "--corpus", str(corpus), "--out", str(out)])
        [record] = [json.loads(l) for l in out.read_text().splitlines()]
        assert [e["emotion"] for e in record["emotions"]] == ["Joy"]
        assert record["emotions"][0]["triggers"] == ["very happy"]

    def test_three_way_disagreement_yields_no_majority_neutral(self, tmp_path):
        corpus, annotations = self._setup(
            tmp_path,
            {
                "A1": [{"emotion": "Joy", "triggers": ["very happy"]}],
                "A2": [{"emotion": "Trust", "triggers": ["this cream"]}],
                "A3": [{"emotion": "Surprise", "triggers": ["very happy"]}],
            },
        )
        out = tmp_path / "gold.jsonl"
        main(["aggregate", "--annotations", str(annotations), "--corpus", str(corpus), "--out", str(out)])
        [record] = [json.loads(l) for l in out.read_text().splitlines()]
        assert record["emotions"] == [{"emotion": "Neutral", "triggers": []}]
        assert record["provenance"]["no_majority"] is True

    @pytest.mark.parametrize("command", ["aggregate", "agreement"])
    def test_an_annotator_twice_on_one_review_is_a_data_error(self, tmp_path, caplog, command):
        corpus, annotations = self._setup(tmp_path, {})
        joy = [{"emotion": "Joy", "triggers": ["very happy"]}]
        trust = [{"emotion": "Trust", "triggers": ["this cream"]}]
        write_jsonl(annotations, [
            {"review_id": "r1", "annotator_id": annotator, "emotions": emotions}
            for annotator, emotions in (("A1", joy), ("A1", joy), ("A2", trust))
        ])
        out = tmp_path / "out"
        argv = [command, "--annotations", str(annotations), "--corpus", str(corpus), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert f"{annotations}:2: annotator 'A1' appears twice for review 'r1'" in caplog.text
        assert not out.exists()


class TestAgreementAndStatsCommands:
    def test_agreement_table_renders(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(
            corpus,
            [
                {"review_id": "r1", "text": "I am very happy", "domain": "Beauty", "item_id": "b1"},
                {"review_id": "r2", "text": "The soup was cold", "domain": "Yelp", "item_id": "y1"},
            ],
        )
        annotations = tmp_path / "annotations.jsonl"
        rows = []
        for annotator in ("A1", "A2", "A3"):
            rows.append({"review_id": "r1", "annotator_id": annotator, "emotions": [{"emotion": "Joy", "triggers": ["very happy"]}]})
            rows.append({"review_id": "r2", "annotator_id": annotator, "emotions": [{"emotion": "Disgust", "triggers": ["soup was cold"]}]})
        write_jsonl(annotations, rows)
        assert main(["agreement", "--annotations", str(annotations), "--corpus", str(corpus)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "Emotion Agreement" in captured
        assert "A1/A2" in captured
        assert "Trigger Agreement" in captured

    def test_stats_table_renders(self, tmp_path, capsys):
        assert main(
            [
                "stats",
                "--gold", str(DATA_DIR / "handscored" / "gold.jsonl"),
                "--corpus", str(DATA_DIR / "handscored" / "reviews.jsonl"),
            ]
        ) == EXIT_OK
        captured = capsys.readouterr().out
        assert "Avg Emotions per Review" in captured
        assert "Avg Trigger Length (words)" in captured
        assert "Count (Percentage)" in captured


class TestRunAndScoreCommands:
    def test_run_then_score_on_handscored_fixture(self, tmp_path, capsys):
        reviews_path = DATA_DIR / "handscored" / "reviews.jsonl"
        reviews = [json.loads(l) for l in reviews_path.read_text().splitlines() if l.strip()]
        responses = {
            json.loads(l)["review_id"]: json.loads(l)["raw_response"]
            for l in (DATA_DIR / "handscored" / "responses.jsonl").read_text().splitlines()
            if l.strip()
        }
        by_text = {r["text"]: responses[r["review_id"]] for r in reviews}
        runs_dir = tmp_path / "runs"
        with MockProviderServer(by_text) as server:
            profile = write_profile(tmp_path / "profiles.ini", server.base_url)
            code = main(
                [
                    "run",
                    "--corpus", str(reviews_path),
                    "--strategy", "eot-detect",
                    "--profile", f"{profile}:mock",
                    "--run-id", "fixture-run",
                    "--runs-dir", str(runs_dir),
                ]
            )
            assert code == EXIT_OK
            assert server.request_count == 10
        expected = json.loads((DATA_DIR / "handscored" / "expected.json").read_text())
        code = main(
            [
                "score",
                "--run-id", "fixture-run",
                "--gold", str(DATA_DIR / "handscored" / "gold.jsonl"),
                "--runs-dir", str(runs_dir),
            ]
        )
        assert code == EXIT_OK
        scores = load_json(runs_dir / "fixture-run" / "scores.json")
        assert scores["emotion"]["precision"] == pytest.approx(expected["P"], abs=1e-6)
        assert scores["emotion"]["recall"] == pytest.approx(expected["R"], abs=1e-6)
        assert scores["trigger"]["exact_match"] == pytest.approx(expected["EM"], abs=1e-6)
        assert scores["parse_stats"]["unparseable"] == expected["parse_stats"]["unparseable"]
        parsed_path = runs_dir / "fixture-run" / "parsed"
        assert parsed_path.exists()
        statuses = [json.loads(l)["parse_status"] for l in parsed_path.read_text().splitlines()]
        assert statuses.count("Repaired") == expected["parse_stats"]["repaired"]

    def test_unknown_run_id(self, tmp_path):
        code = main(
            [
                "score",
                "--run-id", "no-such-run",
                "--gold", str(DATA_DIR / "handscored" / "gold.jsonl"),
                "--runs-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_DATA

    def test_score_names_the_first_ok_entry_missing_from_the_corpus_in_ledger_order(self, tmp_path, caplog):
        run_dir = tmp_path / "runs" / "gone"
        run_dir.mkdir(parents=True)
        dump_json(run_dir / "manifest.json", {
            "corpus": str(DATA_DIR / "handscored" / "reviews.jsonl"), "strategy": "zs", "profile": "p",
            "prompt_version": PROMPT_VERSION,
        })
        write_jsonl(run_dir / "ledger", [
            ledger_entry("a-failed", "", run_id="gone", status="Failed", error="HTTP 503"),  # never parsed
            ledger_entry("z-missing", run_id="gone"),
            ledger_entry("b-missing", run_id="gone"),
        ])
        argv = ["score", "--run-id", "gone", "--gold", str(DATA_DIR / "handscored" / "gold.jsonl"),
                "--runs-dir", str(tmp_path / "runs")]
        caplog.clear()
        assert main(argv) == EXIT_DATA
        assert [r.getMessage() for r in caplog.records] == [
            "run references review 'z-missing' missing from the corpus"
        ]
        assert sorted(p.name for p in run_dir.iterdir()) == ["ledger", "manifest.json"]

    def test_existing_run_requires_resume(self, tmp_path):
        reviews_path = DATA_DIR / "handscored" / "reviews.jsonl"
        runs_dir = tmp_path / "runs"
        reviews = [json.loads(l) for l in reviews_path.read_text().splitlines() if l.strip()]
        by_text = {r["text"]: '{"emotions": [{"emotion": "Neutral", "triggers": []}]}' for r in reviews}
        with MockProviderServer(by_text) as server:
            profile = write_profile(tmp_path / "profiles.ini", server.base_url)
            args = [
                "run",
                "--corpus", str(reviews_path),
                "--strategy", "zs",
                "--profile", f"{profile}:mock",
                "--run-id", "dup-run",
                "--runs-dir", str(runs_dir),
            ]
            assert main(args) == EXIT_OK
            assert main(args) == EXIT_DATA  # same run id without --resume
            first_requests = server.request_count
            assert main(args + ["--resume"]) == EXIT_OK
            assert server.request_count == first_requests  # everything already Ok

    def test_run_sets_up_its_requests_once(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("RUN_TOKEN", "sekrit")
        reads = []
        auth_token = inference.ProviderProfile.auth_token
        monkeypatch.setattr(
            inference.ProviderProfile, "auth_token", lambda profile: reads.append(profile.name) or auth_token(profile)
        )
        with self._neutral_server() as server:
            profile = write_profile(tmp_path / "profiles.ini", server.base_url)
            profile.write_text(profile.read_text() + "auth_env_var = RUN_TOKEN\n")
            with caplog.at_level(logging.DEBUG, logger="eotbench.inference"):
                assert main([
                    "run", "--corpus", str(DATA_DIR / "handscored" / "reviews.jsonl"), "--strategy", "zs",
                    "--profile", str(profile), "--run-id", "auth", "--runs-dir", str(tmp_path / "runs"),
                ]) == EXIT_OK
            assert server.request_count == 10
        assert reads == ["mock"]
        assert caplog.text.count("profile mock drops unsupported params: n") == 1

    def _neutral_run(self, tmp_path, server, *extra):
        reviews_path = DATA_DIR / "handscored" / "reviews.jsonl"
        profile = write_profile(tmp_path / "profiles.ini", server.base_url)
        return main([
            "run", "--corpus", str(reviews_path), "--strategy", "zs", "--profile", f"{profile}:mock",
            "--run-id", "drift", "--runs-dir", str(tmp_path / "runs"), *extra,
        ])

    def _neutral_server(self):
        reviews_path = DATA_DIR / "handscored" / "reviews.jsonl"
        reviews = [json.loads(l) for l in reviews_path.read_text().splitlines() if l.strip()]
        neutral = '{"emotions": [{"emotion": "Neutral", "triggers": []}]}'
        return MockProviderServer({r["text"]: neutral for r in reviews})

    def test_a_percent_escape_in_the_base_url_is_sent_as_written(self, tmp_path, caplog):
        with self._neutral_server() as server:
            profile = tmp_path / "profiles.ini"
            profile.write_text(f"[mock]\nbase_url = {server.base_url}/v1%2Fx\nmodel_id = m\n")
            argv = ["run", "--corpus", str(DATA_DIR / "handscored" / "reviews.jsonl"), "--strategy", "zs",
                    "--profile", str(profile), "--run-id", "pct", "--runs-dir", str(tmp_path / "runs")]
            assert main(argv) in (EXIT_OK, EXIT_DATA, EXIT_PROVIDER)
            assert set(server.targets) == {"/v1%2Fx/chat/completions"}
        assert "Traceback" not in caplog.text

    def test_score_on_a_ledger_line_with_a_list_review_id(self, tmp_path, caplog):
        with self._neutral_server() as server:
            assert self._neutral_run(tmp_path, server) == EXIT_OK
        ledger = tmp_path / "runs" / "drift" / "ledger"
        lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), "review_id": ["a"]}) + "\n"
        ledger.write_text("".join(lines), encoding="utf-8")
        argv = ["score", "--run-id", "drift", "--gold", str(DATA_DIR / "handscored" / "gold.jsonl"),
                "--runs-dir", str(tmp_path / "runs")]
        assert main(argv) == EXIT_DATA
        assert f"{ledger}:2: corrupt ledger entry" in caplog.text

    def test_a_reply_holding_a_lone_surrogate_is_a_failed_entry_and_score_goes_on(self, tmp_path):
        # the mock JSON-escapes its replies, so "\ud83d" reaches the client as an
        # escape that decodes to a lone surrogate, which UTF-8 cannot encode
        reviews_path = DATA_DIR / "handscored" / "reviews.jsonl"
        reviews = [json.loads(l) for l in reviews_path.read_text().splitlines() if l.strip()]
        neutral = '{"emotions": [{"emotion": "Neutral", "triggers": []}]}'
        replies = {r["text"]: neutral for r in reviews}
        replies[reviews[0]["text"]] = neutral + " ok \ud83d"
        with MockProviderServer(replies) as server:
            assert self._neutral_run(tmp_path, server) == EXIT_PROVIDER
        ledger = tmp_path / "runs" / "drift" / "ledger"
        ledger.read_bytes().decode("utf-8")  # the ledger stays UTF-8
        entries = list(inference.iter_ledger(tmp_path / "runs", "drift"))
        assert len(entries) == len(reviews)
        failed = [e for e in entries if e["status"] == inference.LedgerStatus.FAILED]
        assert [(e["review_id"], e["raw_response"]) for e in failed] == [(reviews[0]["review_id"], "")]
        assert failed[0]["error"] == (
            "provider returned HTTP 200: malformed completion body: choices[0].message.content is not a string: "
            f"{replies[reviews[0]['text']]!r}"
        )
        argv = ["score", "--run-id", "drift", "--gold", str(DATA_DIR / "handscored" / "gold.jsonl"),
                "--runs-dir", str(tmp_path / "runs")]
        assert main(argv) == EXIT_OK
        scores = load_json(tmp_path / "runs" / "drift" / "scores.json")
        assert scores["n_reviews_scored"] == len(reviews) - 1
        assert scores["parse_stats"]["failed_requests"] == 1

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("latency_ms", "12", "latency_ms is not an integer"),
            ("latency_ms", True, "latency_ms is not an integer"),
            ("attempt_count", 2.9, "attempt_count is not an integer"),
            ("status", "Bogus", "status is not one of 'Ok', 'Failed': 'Bogus'"),
        ],
    )
    def test_score_on_a_ledger_line_with_a_field_it_would_have_coerced(self, tmp_path, caplog, key, value, reason):
        with self._neutral_server() as server:
            assert self._neutral_run(tmp_path, server) == EXIT_OK
        ledger = tmp_path / "runs" / "drift" / "ledger"
        lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), key: value}) + "\n"
        ledger.write_text("".join(lines), encoding="utf-8")
        argv = ["score", "--run-id", "drift", "--gold", str(DATA_DIR / "handscored" / "gold.jsonl"),
                "--runs-dir", str(tmp_path / "runs")]
        assert main(argv) == EXIT_DATA
        assert f"{ledger}:2: corrupt ledger entry: {reason}" in caplog.text

    def test_resume_refuses_a_different_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"temperature": 0.7}))
        with self._neutral_server() as server:
            assert self._neutral_run(tmp_path, server) == EXIT_OK
            sent = server.request_count
            assert self._neutral_run(tmp_path, server, "--resume", "--config", str(config)) == EXIT_DATA
            assert server.request_count == sent

    def test_a_config_in_another_key_order_reaches_no_output(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 1, "max_tokens": 2500, "temperature": 0.2}))
        with self._neutral_server() as server:
            assert self._neutral_run(tmp_path, server, "--config", str(config)) == EXIT_OK
        manifest = load_json(tmp_path / "runs" / "drift" / "manifest.json")
        assert list(manifest["config"].items()) == list(DEFAULT_CONFIG.items())
        every = inference.ProviderProfile("every", "http://127.0.0.1:9/v1", "m",
                                          supported_params=frozenset(DEFAULT_CONFIG))
        for strategy in Strategy:
            with_file = inference.body_template(every, load_config(config), strategy)
            assert with_file == inference.body_template(every, load_config(), strategy)

    def test_resume_refuses_a_different_prompt_version(self, tmp_path):
        with self._neutral_server() as server:
            assert self._neutral_run(tmp_path, server) == EXIT_OK
            manifest_path = tmp_path / "runs" / "drift" / "manifest.json"
            manifest = load_json(manifest_path)
            manifest_path.write_text(json.dumps({**manifest, "prompt_version": "0.9"}))
            assert self._neutral_run(tmp_path, server, "--resume") == EXIT_DATA
            manifest_path.write_text(json.dumps(manifest))
            assert self._neutral_run(tmp_path, server, "--resume") == EXIT_OK

    def test_run_with_an_unusable_base_url_is_a_data_error(self, tmp_path):
        profile = write_profile(tmp_path / "profiles.ini", "http://127.0.0.1:abc/v1")
        code = main([
            "run", "--corpus", str(DATA_DIR / "handscored" / "reviews.jsonl"), "--strategy", "zs",
            "--profile", f"{profile}:mock", "--run-id", "bad", "--runs-dir", str(tmp_path / "runs"),
        ])
        assert code == EXIT_DATA
        assert not (tmp_path / "runs" / "bad" / "ledger").exists()

    def test_report_command_combines_scores(self, tmp_path, capsys):
        scores = {
            "format_version": "1",
            "run_id": "demo",
            "strategy": "zs",
            "emotion": {"precision": 0.5, "recall": 0.25, "f1": 1 / 3},
            "trigger": {"exact_match": 0.1, "partial_match": 0.2, "rouge1": 0.3, "rougeL": 0.25},
        }
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(scores))
        assert main(["report", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "demo_zs" in out
        assert "0.5000" in out

    def test_report_refuses_two_files_that_give_one_row(self, tmp_path, caplog, capsys):
        golden = Path(__file__).parent / "golden" / "cli" / "scores.json"
        copy = tmp_path / "scores.json"
        copy.write_bytes(golden.read_bytes())
        caplog.clear()
        assert main(["report", str(golden), str(copy), "--out", str(tmp_path / "report.txt")]) == EXIT_DATA
        [message] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert message == f"{golden} and {copy} both give the row 'fixture-run_eot-detect'"
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "report.txt").exists()

    def test_report_csv_keeps_a_comma_in_the_run_id(self, tmp_path, capsys):
        scores = {
            "format_version": "1",
            "run_id": "demo,v2",
            "strategy": "zs",
            "emotion": {"precision": 0.5, "recall": 0.25, "f1": 1 / 3},
            "trigger": {"exact_match": 0.1, "partial_match": 0.2, "rouge1": 0.3, "rougeL": 0.25},
        }
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(scores))
        assert main(["report", "--format", "csv", str(path)]) == EXIT_OK
        header, row = csv.reader(capsys.readouterr().out.splitlines())
        assert len(row) == len(header) == 8
        assert row[0] == "demo,v2_zs"
        assert row[1:] == ["0.5000", "0.2500", "0.3333", "0.1000", "0.2000", "0.3000", "0.2500"]

    def test_confusion_csv_round_trips(self):
        confusion = {"Joy": {"Joy": 1.0, "a,b": 0.5}, "a,b": {"Joy": 0.0, "a,b": 0.25}}
        rows = list(csv.reader(_render_confusion(confusion, "csv").splitlines()))
        assert rows == [
            ["pred\\gold", "Joy", "a,b"],
            ["Joy", "1.00", "0.50"],
            ["a,b", "0.00", "0.25"],
        ]


class TestBadInputFiles:
    """A bad plan, config, profile, run manifest or scores file is a data error
    that names the file (exit 3), not a traceback."""

    def _assert_data_error(self, caplog, argv, path):
        caplog.clear()
        assert main([str(a) for a in argv]) == EXIT_DATA
        assert str(path) in caplog.text

    @pytest.mark.parametrize("plan", [
        {"items_per_group": 2, "reviews_per_item": 3, "min_tokens": 1, "max_tokens": 9},
        {"seed": 1, "items_per_group": 2, "reviews_per_item": 3, "min_tokens": 0, "max_tokens": 9},
        "{not json",
    ])
    def test_bad_plan(self, tmp_path, caplog, plan):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, toy_corpus_lines())
        path = tmp_path / "plan.json"
        path.write_text(plan if isinstance(plan, str) else json.dumps(plan))
        argv = ["sample", "--corpus", corpus, "--plan", path, "--out", tmp_path / "s.jsonl"]
        self._assert_data_error(caplog, argv, path)
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("items_per_group", 2.7), ("min_tokens", True), ("seed", 1.9), ("max_tokens", "40"),
    ])
    def test_plan_field_that_is_not_a_json_integer(self, tmp_path, caplog, key, value):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, toy_corpus_lines())
        path = write_plan(tmp_path / "plan.json", **{key: value})
        argv = ["sample", "--corpus", corpus, "--plan", path, "--out", tmp_path / "s.jsonl"]
        self._assert_data_error(caplog, argv, path)
        assert f"bad sampling plan: {key} is not an integer: {value!r}" in caplog.text
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_gold_no_majority_that_is_not_a_json_bool(self, tmp_path, caplog, value):
        gold = DATA_DIR / "handscored" / "gold.jsonl"
        lines = gold.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["provenance"] = {"no_majority": value}
        lines[1] = json.dumps(record)
        path = tmp_path / "gold.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["stats", "--gold", path, "--corpus", DATA_DIR / "handscored" / "reviews.jsonl"]
        self._assert_data_error(caplog, argv, f"{path}:2: provenance.no_majority is not true or false")

    def _gold_with_r01_twice(self, tmp_path) -> tuple[Path, int]:
        lines = (DATA_DIR / "handscored" / "gold.jsonl").read_text(encoding="utf-8").splitlines()
        path = tmp_path / "gold.jsonl"
        path.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        return path, len(lines) + 1

    def test_stats_on_a_gold_file_that_holds_a_review_twice(self, tmp_path, caplog):
        gold, line_no = self._gold_with_r01_twice(tmp_path)
        out = tmp_path / "stats.txt"
        argv = ["stats", "--gold", gold, "--corpus", DATA_DIR / "handscored" / "reviews.jsonl", "--out", out]
        self._assert_data_error(caplog, argv, f"{gold}:{line_no}: review 'r01' appears twice")
        assert not out.exists()

    def test_score_on_a_gold_file_that_holds_a_review_twice(self, tmp_path, caplog):
        gold, line_no = self._gold_with_r01_twice(tmp_path)
        run_dir = tmp_path / "runs" / "r"
        run_dir.mkdir(parents=True)
        dump_json(run_dir / "manifest.json", {
            "run_id": "r", "corpus": str(DATA_DIR / "handscored" / "reviews.jsonl"), "strategy": "zs",
            "profile": "mock", "prompt_version": PROMPT_VERSION,
        })
        (run_dir / "ledger").write_text(json.dumps(ledger_entry()) + "\n")
        argv = ["score", "--run-id", "r", "--gold", gold, "--runs-dir", tmp_path / "runs"]
        self._assert_data_error(caplog, argv, f"{gold}:{line_no}: review 'r01' appears twice")
        assert not (run_dir / "scores.json").exists()

    def _run_argv(self, tmp_path, profile_text, config_text=None):
        profile = tmp_path / "profiles.ini"
        profile.write_text(profile_text)
        argv = [
            "run", "--corpus", DATA_DIR / "handscored" / "reviews.jsonl", "--strategy", "zs",
            "--profile", profile, "--run-id", "bad", "--runs-dir", tmp_path / "runs",
        ]
        if config_text is not None:
            (tmp_path / "config.json").write_text(config_text)
            argv += ["--config", tmp_path / "config.json"]
        return argv

    # the run fails while reading its inputs, before any request to this URL
    PROFILE = "[mock]\nbase_url = http://127.0.0.1:9/v1\nmodel_id = m\n"

    @pytest.mark.parametrize("config", ['{"temperature": -1}', "{not json", "[1]",
                                        '{"top_k": "many"}', '{"top_k": 2.5}',
                                        '{"temperature": NaN}'])
    def test_bad_config(self, tmp_path, caplog, config):
        argv = self._run_argv(tmp_path, self.PROFILE, config)
        self._assert_data_error(caplog, argv, tmp_path / "config.json")
        assert not (tmp_path / "runs" / "bad").exists()

    @pytest.mark.parametrize("line", ["max_concurrency = 0", "max_concurrency = abc",
                                      "timeout = 0", "timeout = nan", "timeout = inf",
                                      "timeout = 1e10"])
    def test_bad_profile_value(self, tmp_path, caplog, line):
        argv = self._run_argv(tmp_path, self.PROFILE + line + "\n")
        self._assert_data_error(caplog, argv, tmp_path / "profiles.ini")
        assert not (tmp_path / "runs" / "bad").exists()

    def test_profile_without_a_section_header(self, tmp_path, caplog):
        argv = self._run_argv(tmp_path, "base_url = http://127.0.0.1:9/v1\nmodel_id = m\n")
        self._assert_data_error(caplog, argv, tmp_path / "profiles.ini")

    @pytest.mark.parametrize("manifest", ["{not json", json.dumps({"run_id": "r"})])
    def test_bad_run_manifest(self, tmp_path, caplog, manifest):
        path = tmp_path / "runs" / "r" / "manifest.json"
        path.parent.mkdir(parents=True)
        path.write_text(manifest)
        argv = ["score", "--run-id", "r", "--gold", DATA_DIR / "handscored" / "gold.jsonl",
                "--runs-dir", tmp_path / "runs"]
        self._assert_data_error(caplog, argv, path)

    def test_resume_with_a_bad_run_manifest(self, tmp_path, caplog):
        path = tmp_path / "runs" / "bad" / "manifest.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        argv = self._run_argv(tmp_path, self.PROFILE) + ["--resume"]
        self._assert_data_error(caplog, argv, path)

    @pytest.mark.parametrize("document", [
        {"run_id": "demo", "trigger": {"exact_match": 0.1}},
        {"run_id": "demo", "emotion": [], "trigger": {}},
        {"emotion": {"precision": "high", "recall": 1, "f1": 1},
         "trigger": {"exact_match": 1, "partial_match": 0, "rouge1": 1, "rougeL": 1}},
        [1],
    ])
    def test_report_on_a_file_that_is_not_a_scores_file(self, tmp_path, caplog, document):
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(document))
        self._assert_data_error(caplog, ["report", path], path)


    def test_sample_rejects_a_corpus_line_holding_a_lone_surrogate(self, tmp_path, caplog):
        # the escape decodes to a lone surrogate, which the UTF-8 sample cannot hold
        good = {"review_id": "r1", "text": "The kettle is quiet.", "domain": "Home", "item_id": "k1"}
        bad = {"review_id": "r2", "text": "Boils fast \ud83d", "domain": "Yelp", "item_id": "y1"}
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        plan = write_plan(tmp_path / "plan.json", items_per_group=1, reviews_per_item=1)
        out = tmp_path / "s.jsonl"
        assert main(["sample", "--corpus", str(corpus_path), "--plan", str(plan), "--out", str(out)]) == EXIT_OK
        assert f"{corpus_path}:2 rejected: text is not a string: 'Boils fast \\ud83d'" in caplog.text
        assert [json.loads(line)["review_id"] for line in out.read_text().splitlines()] == ["r1"]

    def test_aggregate_of_an_annotator_id_holding_a_lone_surrogate(self, tmp_path, caplog):
        lines = (DATA_DIR / "agreement" / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps({**record, "annotator_id": "A\ud83d"})
        path = tmp_path / "annotations.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "gold.jsonl"
        argv = ["aggregate", "--annotations", path, "--corpus", DATA_DIR / "agreement" / "corpus.jsonl", "--out", out]
        self._assert_data_error(caplog, argv, f"{path}:2: annotator_id is not a string: 'A\\ud83d'")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, reason", [
        ("corpus", None, "corpus is required"), ("prompt_version", 5, "prompt_version is not a string: 5"),
    ])
    def test_score_on_a_run_manifest_field_that_is_not_a_string(self, tmp_path, caplog, key, value, reason):
        reviews = DATA_DIR / "handscored" / "reviews.jsonl"
        path = tmp_path / "runs" / "r" / "manifest.json"
        path.parent.mkdir(parents=True)
        manifest = {"run_id": "r", "corpus": str(reviews), "strategy": "zs", "profile": "mock",
                    "prompt_version": PROMPT_VERSION}
        path.write_text(json.dumps({**manifest, key: value}))
        (path.parent / "ledger").write_text(json.dumps(ledger_entry()) + "\n")
        argv = ["score", "--run-id", "r", "--gold", DATA_DIR / "handscored" / "gold.jsonl",
                "--runs-dir", tmp_path / "runs"]
        self._assert_data_error(caplog, argv, f"{path}: {reason}")
        assert not (path.parent / "scores.json").exists()

    @pytest.mark.parametrize("group, key, value", [("emotion", "precision", "nan"), ("trigger", "rouge1", True)])
    def test_report_on_a_headline_value_that_is_not_a_number(self, tmp_path, caplog, group, key, value):
        scores = {
            "run_id": "demo", "strategy": "zs",
            "emotion": {"precision": 0.5, "recall": 0.25, "f1": 1 / 3},
            "trigger": {"exact_match": 0.1, "partial_match": 0.2, "rouge1": 0.3, "rougeL": 0.25},
        }
        scores[group][key] = value
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(scores))
        self._assert_data_error(caplog, ["report", path], f"{path}: {group}.{key} is not a number: {value!r}")

    def test_run_with_n_other_than_1_stops_before_its_first_request(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 2}))
        with self._neutral_server() as server:
            profile = f"[mock]\nbase_url = {server.base_url}\nmodel_id = m\n"
            argv = self._run_argv(tmp_path, profile, config.read_text())
            self._assert_data_error(caplog, argv, f"{config}: bad inference config: n must be 1, not 2")
            assert server.request_count == 0
        assert not (tmp_path / "runs" / "bad").exists()

    def test_run_with_a_supported_param_that_is_not_a_config_field(self, tmp_path, caplog):
        with self._neutral_server() as server:
            profile = f"[mock]\nbase_url = {server.base_url}\nmodel_id = m\nsupported_params = top_p, temprature\n"
            argv = self._run_argv(tmp_path, profile)
            self._assert_data_error(
                caplog, argv, f"bad profile 'mock': supported_params names no config field: 'temprature'"
            )
            assert server.request_count == 0
        assert not (tmp_path / "runs" / "bad").exists()

    @pytest.mark.parametrize("profile_lines, env, code, reason", [
        ("base_url = ftp://127.0.0.1:9/v1", {}, EXIT_DATA,
         "profile 'mock': not an http or https URL: 'ftp://127.0.0.1:9/v1/chat/completions'"),
        ("base_url = http://127.0.0.1:abc/v1", {}, EXIT_DATA, "profile 'mock': URL 'http://127.0.0.1:abc/v1/chat/completions'"),
        ("base_url = {url}", {"http_proxy": "socks5://127.0.0.1:1080"}, EXIT_DATA, "only http:// proxies"),
        ("base_url = {url}\nauth_env_var = RUN_TOKEN", {"RUN_TOKEN": "a\r\nX-Injected: 1"}, EXIT_DATA,
         "a request header name or value holds a line break"),
        ("base_url = {url}\nauth_env_var = RUN_TOKEN", {}, EXIT_PROVIDER, "RUN_TOKEN"),
    ], ids=["ftp-url", "bad-port", "socks-proxy", "header-line-break", "unset-token"])
    def test_a_run_that_fails_before_its_first_request_leaves_no_run_directory(
        self, tmp_path, caplog, monkeypatch, profile_lines, env, code, reason,
    ):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.delenv("RUN_TOKEN", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with self._neutral_server() as server:
            profile = "[mock]\nmodel_id = m\n" + profile_lines.format(url=server.base_url) + "\n"
            assert main([str(a) for a in self._run_argv(tmp_path, profile)]) == code
            assert reason in caplog.text
            assert server.request_count == 0
            assert not (tmp_path / "runs" / "bad").exists()
            # the same run with the profile and environment put right starts afresh
            for name in env:
                monkeypatch.delenv(name)
            argv = self._run_argv(tmp_path, f"[mock]\nbase_url = {server.base_url}\nmodel_id = m\n")
            assert main([str(a) for a in argv]) == EXIT_OK
            assert server.request_count == 10

    def test_score_drops_a_label_or_trigger_that_utf8_cannot_encode(self, tmp_path):
        # the escapes keep the ledger plain ASCII; they decode to lone surrogates
        reply = ('{"emotions": [{"emotion": "Joy", "triggers": ["works perfectly", "\\ud83d"]},'
                 ' {"emotion": "Joy\\ud83d", "triggers": []}, {"emotion": "\\udfff", "triggers": []},'
                 ' {"emotion": "Neutral", "triggers": ["\\ud83d"]}]}')
        reviews = DATA_DIR / "handscored" / "reviews.jsonl"
        run_dir = tmp_path / "runs" / "r"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(json.dumps({
            "run_id": "r", "corpus": str(reviews), "strategy": "zs", "profile": "mock",
            "prompt_version": PROMPT_VERSION,
        }))
        (run_dir / "ledger").write_text(json.dumps(ledger_entry("r01", reply)) + "\n", encoding="ascii")
        argv = ["score", "--run-id", "r", "--gold", DATA_DIR / "handscored" / "gold.jsonl",
                "--runs-dir", tmp_path / "runs"]
        assert main([str(a) for a in argv]) == EXIT_OK
        [parsed] = [json.loads(line) for line in (run_dir / "parsed").read_text(encoding="utf-8").splitlines()]
        assert parsed["dropped_triggers"] == [
            {"emotion": "Joy", "text": "'\\ud83d'", "reason": "Malformed"},
            {"emotion": "Neutral", "text": "'\\ud83d'", "reason": "Malformed"},
        ]
        assert parsed["dropped_emotions"] == [
            {"label": "{'emotion': 'Joy\\ud83d', 'triggers': []}", "reason": "Malformed"},
            {"label": "{'emotion': '\\udfff', 'triggers': []}", "reason": "Malformed"},
            {"label": "Neutral", "reason": "NeutralWithOthers"},
        ]
        assert [e["emotion"] for e in parsed["emotions"]] == ["Joy"]

    def _neutral_server(self):
        reviews = [json.loads(l) for l in (DATA_DIR / "handscored" / "reviews.jsonl").read_text().splitlines()]
        neutral = '{"emotions": [{"emotion": "Neutral", "triggers": []}]}'
        return MockProviderServer({r["text"]: neutral for r in reviews})


class TestUsageErrors:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_strategy_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--corpus", "x", "--strategy", "few-shot", "--profile", "p"])
        assert excinfo.value.code == 2


class TestCollector:
    """main pauses the cyclic collector for the bulk commands, not for run,
    and leaves it as it found it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def _stats(self, tmp_path, gold=DATA_DIR / "handscored" / "gold.jsonl"):
        return main(["stats", "--gold", str(gold), "--corpus", str(DATA_DIR / "handscored" / "reviews.jsonl"),
                     "--out", str(tmp_path / "stats.txt")])

    def test_paused_inside_a_bulk_command_and_restored_after_exit_0(self, tmp_path, monkeypatch, collector):
        seen = []
        gold_statistics = annotation.gold_statistics
        monkeypatch.setattr(
            annotation, "gold_statistics", lambda *a: seen.append(gc.isenabled()) or gold_statistics(*a)
        )
        assert self._stats(tmp_path) == EXIT_OK
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_restored_after_exit_3(self, tmp_path, collector):
        assert self._stats(tmp_path, gold=tmp_path / "missing.jsonl") == EXIT_DATA
        assert gc.isenabled() is collector

    def test_restored_after_an_unexpected_exception(self, tmp_path, monkeypatch, collector):
        def fail(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(annotation, "gold_statistics", fail)
        with pytest.raises(RuntimeError, match="boom"):
            self._stats(tmp_path)
        assert gc.isenabled() is collector

    def test_restored_after_a_usage_error(self, collector):
        with pytest.raises(SystemExit):
            main(["stats", "--format", "xml"])
        assert gc.isenabled() is collector

    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        assert self._stats(tmp_path) == EXIT_OK
        assert self._stats(tmp_path) == EXIT_OK
        assert built.count("eotbench") == 1

    def test_a_call_leaves_no_parser_garbage(self, tmp_path):
        # Once built, the parser outlives every command, so a call leaves no
        # parser in cycles for the collector to find.
        assert self._stats(tmp_path) == EXIT_OK
        gc.collect()
        assert self._stats(tmp_path) == EXIT_OK
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            parsers = (argparse.ArgumentParser, argparse.HelpFormatter)
            left = [type(o).__name__ for o in gc.garbage if isinstance(o, parsers)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []

    def test_on_inside_run(self, tmp_path, monkeypatch):
        seen = []
        run_experiment = inference.run_experiment
        monkeypatch.setattr(
            inference, "run_experiment", lambda *a, **k: seen.append(gc.isenabled()) or run_experiment(*a, **k)
        )
        with MockProviderServer() as server:
            profile = write_profile(tmp_path / "profiles.ini", server.base_url)
            assert main([
                "run", "--corpus", str(DATA_DIR / "handscored" / "reviews.jsonl"), "--strategy", "zs",
                "--profile", f"{profile}:mock", "--run-id", "on", "--runs-dir", str(tmp_path / "runs"),
            ]) == EXIT_OK
        assert seen == [True]
        assert gc.isenabled()
