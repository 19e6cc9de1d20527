from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from eotbench import inference
from eotbench.cli import EXIT_DATA, EXIT_OK, _render_confusion, main
from eotbench.jsonio import load_json, write_jsonl
from conftest import DATA_DIR
from mock_provider import MockProviderServer


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

    def test_seed_flag_overrides_plan(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, toy_corpus_lines())
        plan = write_plan(tmp_path / "plan.json")
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        main(["sample", "--corpus", str(corpus), "--plan", str(plan), "--out", str(out1)])
        main(["sample", "--corpus", str(corpus), "--plan", str(plan), "--seed", "8", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()


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

    def test_resume_refuses_a_different_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"temperature": 0.7}))
        with self._neutral_server() as server:
            assert self._neutral_run(tmp_path, server) == EXIT_OK
            sent = server.request_count
            assert self._neutral_run(tmp_path, server, "--resume", "--config", str(config)) == EXIT_DATA
            assert server.request_count == sent

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

    def test_run_reads_the_ledger_once(self, tmp_path, monkeypatch):
        calls = []
        read_ledger = inference.read_ledger

        def counting(*args):
            calls.append(args)
            return read_ledger(*args)

        monkeypatch.setattr(inference, "read_ledger", counting)
        with self._neutral_server() as server:
            assert self._neutral_run(tmp_path, server) == EXIT_OK
        assert len(calls) == 1

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


class TestUsageErrors:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_strategy_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--corpus", "x", "--strategy", "few-shot", "--profile", "p"])
        assert excinfo.value.code == 2
