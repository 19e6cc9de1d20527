from __future__ import annotations

import json
import logging
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from eotbench.errors import DataError, ProviderError, ProviderFailure
from eotbench.inference import (
    MAX_CONCURRENCY,
    LedgerStatus,
    ProviderProfile,
    _Progress,
    BodyTemplate,
    body_template,
    http_transport,
    iter_ledger,
    ledger_path,
    load_provider_profiles,
    read_ledger,
    request_completion,
    run_experiment,
)
from eotbench.prompting import DEFAULT_CONFIG, PROMPT_VERSION, Strategy, build_prompt, render_messages
from eotbench.transport import Response
from conftest import DEEPLY_NESTED, ledger_entry, make_review

NO_SLEEP = lambda seconds: None


def profile(**overrides) -> ProviderProfile:
    defaults = dict(
        name="test",
        base_url="http://provider.local/v1",
        model_id="test-model",
        auth_env_var="",
        max_concurrency=4,
        timeout=5.0,
    )
    defaults.update(overrides)
    return ProviderProfile(**defaults)


def template(strategy: Strategy = Strategy.ZS) -> BodyTemplate:
    return body_template(profile(), DEFAULT_CONFIG, strategy)


def hi(under: ProviderProfile | None = None) -> bytes:
    """The zero-shot request body of the review "hi" with the params of ``under``."""
    return body_template(under or profile(), DEFAULT_CONFIG, Strategy.ZS).encode("hi")


def response(status: int, payload=None, text: str = "") -> Response:
    """What the transport returns: the body is ``payload`` as JSON, or else ``text``."""
    return Response(status, {}, (json.dumps(payload) if payload is not None else text).encode("utf-8"))


def completion_payload(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class FakeSession:
    """Scripted HTTP session; also records concurrency and request bodies."""

    def __init__(self, script):
        # script: callable(call_index, body) -> Response or Exception
        self.script = script
        self.calls = 0
        self.bodies = []
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()
        self.barrier: threading.Barrier | None = None

    def post(self, data):
        body = json.loads(data)
        with self._lock:
            index = self.calls
            self.calls += 1
            self.bodies.append(body)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            if self.barrier is not None:
                try:
                    self.barrier.wait(timeout=2)
                except threading.BrokenBarrierError:
                    pass
            result = self.script(index, body)
            if isinstance(result, Exception):
                raise result
            return result
        finally:
            with self._lock:
                self.in_flight -= 1


class TestComplete:
    def test_echo_path(self):
        session = FakeSession(lambda i, body: response(200, completion_payload("hello")))
        outcome = request_completion(session, hi(), sleep=NO_SLEEP)
        assert outcome.text == "hello"
        assert session.calls == 1

    def test_retry_on_429_then_success(self):
        def script(i, body):
            if i < 2:
                return response(429, text="slow down")
            return response(200, completion_payload("ok"))

        session = FakeSession(script)
        outcome = request_completion(session, hi(), sleep=NO_SLEEP)
        assert outcome.text == "ok"
        assert outcome.attempts == 3

    def test_server_errors_exhaust_attempt_cap(self):
        session = FakeSession(lambda i, body: response(500, text="boom"))
        with pytest.raises(ProviderError) as excinfo:
            request_completion(session, hi(), max_attempts=3, sleep=NO_SLEEP)
        assert session.calls == 3
        assert excinfo.value.attempts == 3

    def test_rate_limit_exhaustion_raises_rate_limited(self):
        session = FakeSession(lambda i, body: response(429))
        with pytest.raises(ProviderFailure, match="^still rate limited after 2 attempts$"):
            request_completion(session, hi(), max_attempts=2, sleep=NO_SLEEP)

    def test_timeouts_raise_after_retries(self):
        session = FakeSession(lambda i, body: TimeoutError("slow"))
        with pytest.raises(ProviderFailure, match="^request timed out after 2 attempts$"):
            request_completion(session, hi(), max_attempts=2, sleep=NO_SLEEP)

    def test_connection_errors_are_transient_provider_errors(self):
        session = FakeSession(lambda i, body: ConnectionResetError("reset by peer"))
        with pytest.raises(ProviderError) as excinfo:
            request_completion(session, hi(), max_attempts=3, sleep=NO_SLEEP)
        assert session.calls == 3
        assert excinfo.value.status == 0
        assert "connection error: reset by peer" in str(excinfo.value)

    def test_client_errors_do_not_retry(self):
        session = FakeSession(lambda i, body: Response(404, {}, b"no\xffpe"))  # not UTF-8: decoded with "replace"
        with pytest.raises(ProviderError, match="^provider returned HTTP 404: no\ufffdpe$"):
            request_completion(session, hi(), sleep=NO_SLEEP)
        assert session.calls == 1

    def test_malformed_body_after_retries_counts_every_attempt(self):
        session = FakeSession(
            lambda i, body: response(500, text="boom") if i < 2 else response(200, {"choices": []})
        )
        with pytest.raises(ProviderError) as excinfo:
            request_completion(session, hi(), sleep=NO_SLEEP)
        assert excinfo.value.attempts == 3

    def test_deeply_nested_body_is_a_provider_error(self):
        session = FakeSession(lambda i, body: response(200, text=DEEPLY_NESTED))
        with pytest.raises(ProviderError, match="not JSON") as excinfo:
            request_completion(session, hi(), sleep=NO_SLEEP)
        assert excinfo.value.status == 200

    def test_auth_missing(self, monkeypatch):
        monkeypatch.delenv("MISSING_TOKEN_VAR", raising=False)
        with pytest.raises(ProviderFailure, match="^auth environment variable MISSING_TOKEN_VAR is not set$"):
            http_transport(profile(auth_env_var="MISSING_TOKEN_VAR"))

    def test_bearer_header_sent(self, monkeypatch):
        monkeypatch.setenv("TEST_TOKEN_VAR", "sekrit")
        local = profile(auth_env_var="TEST_TOKEN_VAR")
        transport = http_transport(local)
        assert transport.headers["Authorization"] == "Bearer sekrit"

    def test_unsupported_params_dropped_from_body(self):
        session = FakeSession(lambda i, body: response(200, completion_payload("x")))
        limited = profile(supported_params=frozenset({"temperature", "max_tokens"}))
        request_completion(session, hi(limited), sleep=NO_SLEEP)
        body = session.bodies[0]
        assert "temperature" in body and "max_tokens" in body
        assert "top_p" not in body and "top_k" not in body
        assert body["model"] == "test-model"


# the characters JSON escapes, lone surrogates, a non-BMP character, line and
# paragraph separators, and the template's own sentinel written out and escaped
_AWKWARD = ('"', "\\", "\x00", "\x01", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029", "\ud800", "\udfff",
            "\U0001f600", "\\u0000", "Review:\n", "\u00e9")
_REVIEW_TEXTS = st.lists(st.characters() | st.sampled_from(_AWKWARD), min_size=1, max_size=40).map("".join)
_PARAMS = ("temperature", "top_p", "top_k", "max_tokens", "n")


class TestBodyTemplate:
    @settings(max_examples=300, deadline=None)
    @given(
        strategy=st.sampled_from(Strategy),
        text=_REVIEW_TEXTS.filter(str.strip),
        supported=st.frozensets(st.sampled_from(_PARAMS)),
        model_id=st.sampled_from(("test-model", "m\x00", "\x00\u00e9\\")),
    )
    def test_bytes_equal_the_body_json_dumps_encodes(self, strategy, text, supported, model_id):
        config = DEFAULT_CONFIG
        template = body_template(profile(supported_params=supported, model_id=model_id), config, strategy)
        messages = render_messages(build_prompt(strategy, make_review(text=text)))
        body = {
            "model": model_id,
            **{param: value for param, value in config.items() if param in supported},
            "messages": [{"role": role, "content": content} for role, content in messages],
        }
        assert template.strategy is strategy
        assert template.encode(text) == json.dumps(body).encode("utf-8")

    def test_a_run_sends_each_review_in_its_prompt_and_writes_the_same_ledger_lines(self, tmp_path):
        session = FakeSession(lambda i, body: response(200, completion_payload("r\u00e9ponse \u2028 \U0001f600")))
        reviews = [make_review(review_id=f"r{i}", text=f"kettle number {i} \"boils\"") for i in range(7)]
        run_experiment(
            reviews, template(Strategy.EOT_DETECT), session, max_concurrency=3,
            runs_dir=tmp_path, run_id="once", sleep=NO_SLEEP,
        )
        assert sorted(body["messages"][-1]["content"] for body in session.bodies) == sorted(
            render_messages(build_prompt(Strategy.EOT_DETECT, review))[-1][1] for review in reviews
        )
        lines = ledger_path(tmp_path, "once").read_text(encoding="utf-8").split("\n")[:-1]
        assert len(lines) == 7
        assert {e["strategy"] for e in iter_ledger(tmp_path, "once")} == {Strategy.EOT_DETECT.value}
        for line in lines:
            assert line == json.dumps(json.loads(line), ensure_ascii=False)


class TestRunExperiment:
    def _reviews(self, n):
        return [make_review(review_id=f"r{i}", item_id="i1") for i in range(n)]

    def test_full_run_populates_ledger(self, tmp_path):
        session = FakeSession(lambda i, body: response(200, completion_payload("resp")))
        run_experiment(
            self._reviews(10), template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run-a", sleep=NO_SLEEP,
        )
        entries = list(iter_ledger(tmp_path, "run-a"))
        assert len(entries) == 10
        assert all(e["status"] == LedgerStatus.OK for e in entries)
        assert all(e["prompt_version"] for e in entries)
        assert len(read_ledger(tmp_path, "run-a", PROMPT_VERSION, lambda entry: None).ok) == 10

    def test_resume_skips_completed_reviews(self, tmp_path):
        reviews = self._reviews(10)
        session = FakeSession(lambda i, body: response(200, completion_payload("resp")))
        run_experiment(
            reviews[:5], template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run-b", sleep=NO_SLEEP,
        )
        assert session.calls == 5
        run_experiment(
            reviews, template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run-b", sleep=NO_SLEEP,
        )
        assert session.calls == 10  # exactly 5 new requests
        entries = list(iter_ledger(tmp_path, "run-b"))
        assert len(entries) == 10
        assert len(read_ledger(tmp_path, "run-b", PROMPT_VERSION, lambda entry: None).ok) == 10

    def test_partial_failure_recorded_without_aborting(self, tmp_path):
        # review r3 is identifiable in the prompt by its unique text
        reviews = [
            make_review(review_id=f"r{i}", text=f"perfectly fine product number {i}", item_id="i1")
            for i in range(10)
        ]

        def script_by_text(i, body):
            prompt = body["messages"][-1]["content"]
            if "product number 3" in prompt:
                return response(400, text="bad")
            return response(200, completion_payload("resp"))

        session = FakeSession(script_by_text)
        run_experiment(
            reviews, template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run-c", sleep=NO_SLEEP,
        )
        entries = list(iter_ledger(tmp_path, "run-c"))
        by_status = {}
        for e in entries:
            by_status.setdefault(e["status"], []).append(e["review_id"])
        assert len(by_status[LedgerStatus.OK]) == 9
        assert by_status[LedgerStatus.FAILED] == ["r3"]
        failed = [e for e in entries if e["status"] == LedgerStatus.FAILED][0]
        assert failed["error"]

    @pytest.mark.parametrize("content", [None, 42, ["tool call"]])
    def test_content_that_is_not_a_string_is_a_failed_entry(self, tmp_path, content):
        session = FakeSession(lambda i, body: response(200, completion_payload(content)))
        run_experiment(
            self._reviews(2), template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run-n", sleep=NO_SLEEP,
        )
        entries = list(iter_ledger(tmp_path, "run-n"))
        assert [(e["status"], e["raw_response"]) for e in entries] == [(LedgerStatus.FAILED, "")] * 2
        assert all("HTTP 200" in e["error"] for e in entries)

    def test_ledger_is_append_only_across_reruns(self, tmp_path):
        session = FakeSession(lambda i, body: response(200, completion_payload("resp")))
        run_experiment(
            self._reviews(3), template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run-d", sleep=NO_SLEEP,
        )
        first = list(iter_ledger(tmp_path, "run-d"))
        run_experiment(
            self._reviews(3), template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run-d", sleep=NO_SLEEP,
        )
        second = list(iter_ledger(tmp_path, "run-d"))
        assert second == first  # nothing re-requested, nothing mutated

    def test_concurrency_bound_respected(self, tmp_path):
        session = FakeSession(lambda i, body: response(200, completion_payload("resp")))
        session.barrier = threading.Barrier(3)
        run_experiment(
            self._reviews(9), template(), session, max_concurrency=3,
            runs_dir=tmp_path, run_id="run-e", sleep=NO_SLEEP,
        )
        assert session.max_in_flight <= 3

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_an_unexpected_error_is_raised_and_the_ledger_stays_whole(self, tmp_path, concurrency):
        def script(i, body):
            return RuntimeError("boom") if i == 2 else response(200, completion_payload("resp"))

        session = FakeSession(script)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(
                self._reviews(40), template(), session, max_concurrency=concurrency,
                runs_dir=tmp_path, run_id="run-x", sleep=NO_SLEEP,
            )
        data = ledger_path(tmp_path, "run-x").read_bytes()
        assert data.endswith(b"\n")
        entries = [json.loads(line) for line in data.splitlines()]
        # every request but the one that raised left its entry, and the workers stopped early
        assert len(entries) == session.calls - 1 < 40
        assert all(e["status"] == LedgerStatus.OK for e in entries)
        if concurrency == 1:
            assert [e["review_id"] for e in entries] == ["r0", "r1"]

    def test_concurrent_workers_append_one_whole_line_per_review(self, tmp_path):
        session = FakeSession(lambda i, body: response(200, completion_payload("r\u00e9ponse " * 50)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_experiment(
                self._reviews(40), template(), session, max_concurrency=4,
                runs_dir=tmp_path, run_id="run-w", sleep=NO_SLEEP,
            )
        finally:
            sys.setswitchinterval(interval)
        lines = ledger_path(tmp_path, "run-w").read_bytes().split(b"\n")
        assert lines[-1] == b""
        entries = [json.loads(line) for line in lines[:-1]]
        assert sorted(e["review_id"] for e in entries) == sorted(f"r{i}" for i in range(40))
        assert all(e["status"] == LedgerStatus.OK for e in entries)
        assert session.calls == 40

    def test_progress_is_logged_every_5_percent(self, tmp_path, caplog):
        reviews = [
            make_review(review_id=f"r{i}", text=f"perfectly fine product number {i}.", item_id="i1")
            for i in range(40)
        ]

        def script(i, body):
            fails = "product number 7." in body["messages"][-1]["content"]
            return response(400, text="bad") if fails else response(200, completion_payload("resp"))

        with caplog.at_level(logging.INFO, logger="eotbench.inference"):
            run_experiment(
                reviews, template(), FakeSession(script), max_concurrency=2,
                runs_dir=tmp_path, run_id="run-p", sleep=NO_SLEEP,
            )
        progress = [r.getMessage() for r in caplog.records if "req/s" in r.getMessage()]
        assert [m.split()[2] for m in progress] == [f"{done}/40" for done in range(2, 41, 2)]
        assert progress[-1].startswith("run run-p: 40/40 reviews, ")
        assert progress[-1].endswith(" req/s, 1 failed, ETA 0 s")

    def test_progress_is_logged_every_30_seconds_between_steps(self, caplog):
        progress = _Progress("slow", 1000, started=0.0)
        with caplog.at_level(logging.INFO, logger="eotbench.inference"):
            progress.add(True, now=10.0)
            progress.add(False, now=31.0)
            progress.add(True, now=40.0)
        assert [r.getMessage() for r in caplog.records] == [
            "run slow: 2/1000 reviews, 0.1 req/s, 1 failed, ETA 15469 s"
        ]


def entry(review_id, status=LedgerStatus.OK, run_id="run", prompt_version=PROMPT_VERSION, raw="x"):
    return ledger_entry(review_id, raw, run_id=run_id, prompt_version=prompt_version, status=status)


def reduce(tmp_path, entries, keep=lambda entry: entry["raw_response"]):
    """The state of run "run" after ``entries``, by default each Ok entry kept as its raw response."""
    path = ledger_path(tmp_path, "run")
    path.parent.mkdir(parents=True)
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return read_ledger(tmp_path, "run", PROMPT_VERSION, keep)


class TestLedgerReduction:
    def test_latest_ok_wins_and_failures_are_reviews_never_ok(self, tmp_path):
        state = reduce(
            tmp_path,
            [
                entry("a", raw="first"),
                entry("a", raw="second"),
                entry("b", LedgerStatus.FAILED),
                entry("b"),
                entry("c", LedgerStatus.FAILED),
                entry("d"),
                entry("d", LedgerStatus.FAILED),  # a later failure keeps the Ok entry
                entry("e", run_id="other"),
            ],
        )
        assert state.ok == {"a": "second", "b": "x", "d": "x"}
        assert state.failed == {"c"}

    def test_other_prompt_versions_are_ignored(self, tmp_path):
        entries = [entry("a", prompt_version="0.9"), entry("b", LedgerStatus.FAILED, prompt_version="0.9"), entry("c")]
        current = reduce(tmp_path, entries)
        assert set(current.ok) == {"c"} and current.failed == set()

    def test_keep_sees_each_ok_entry_of_the_run_and_prompt_version_as_it_is_read(self, tmp_path):
        entries = [
            entry("a", raw="first"), entry("b", LedgerStatus.FAILED), entry("c", prompt_version="0.9"),
            entry("d", run_id="other"), entry("b", raw="retried"), entry("a", raw="second"),
        ]
        seen = []
        state = reduce(tmp_path, entries, lambda e: seen.append(e) or len(seen))
        assert seen == [entries[0], entries[4], entries[5]]  # "a" twice: each Ok entry is kept as it is read
        assert state.ok == {"a": 3, "b": 2} and state.failed == set()

    def test_resume_redoes_reviews_done_under_another_prompt_version(self, tmp_path):
        path = ledger_path(tmp_path, "run")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry("r0", prompt_version="0.9")) + "\n")
        session = FakeSession(lambda i, body: response(200, completion_payload("resp")))
        state = run_experiment(
            [make_review(review_id="r0", item_id="i1")], template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run", sleep=NO_SLEEP,
        )
        assert session.calls == 1
        assert state.ok == {"r0": None}
        assert [e["prompt_version"] for e in iter_ledger(tmp_path, "run")] == ["0.9", PROMPT_VERSION]

    def test_run_experiment_returns_the_state_of_the_whole_ledger(self, tmp_path):
        reviews = [
            make_review(review_id=f"r{i}", text=f"perfectly fine product number {i}", item_id="i1")
            for i in range(4)
        ]

        def script(i, body):
            fails = "product number 3" in body["messages"][-1]["content"]
            return response(400, text="bad") if fails else response(200, completion_payload("resp"))

        session = FakeSession(script)
        kwargs = dict(max_concurrency=4, runs_dir=tmp_path, run_id="run-s", sleep=NO_SLEEP)
        run_experiment(reviews[:2], template(), session, **kwargs)
        state = run_experiment(reviews, template(), session, **kwargs)
        assert set(state.ok) == {"r0", "r1", "r2"}
        assert state.failed == {"r3"}
        expected = read_ledger(tmp_path, "run-s", PROMPT_VERSION, lambda entry: None)
        assert (state.ok, state.failed) == (expected.ok, expected.failed)


# a field of a ledger line with a value of the wrong JSON type
_WRONGLY_TYPED_FIELDS = (
    ("review_id", ["a"]),
    ("run_id", 7),
    ("prompt_version", None),
    ("status", {"ok": True}),
    ("error", ["timeout"]),
)


class TestLedgerTail:
    """A crash mid-append leaves a partial last line; only that line is forgiven."""

    def _run(self, tmp_path, n):
        # a non-ASCII reply, so that a tear can fall inside a UTF-8 sequence
        reply = completion_payload("tr\u00e8s bien \u2713")
        session = FakeSession(lambda i, body: response(200, reply))
        reviews = [make_review(review_id=f"r{i}", item_id="i1") for i in range(n)]
        run_experiment(
            reviews, template(), session, max_concurrency=4,
            runs_dir=tmp_path, run_id="run-t", sleep=NO_SLEEP,
        )
        return session

    def _tear(self, tmp_path, keep_bytes):
        """Append the first keep_bytes of a copy of the last entry, as a crash would."""
        path = ledger_path(tmp_path, "run-t")
        data = path.read_bytes()
        last = data[data.rstrip(b"\n").rfind(b"\n") + 1 :]
        with open(path, "ab") as fh:
            fh.write(last[:keep_bytes])
        return path

    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path, caplog):
        self._run(tmp_path, 3)
        path = self._tear(tmp_path, 40)
        with caplog.at_level(logging.WARNING, logger="eotbench.inference"):
            entries = list(iter_ledger(tmp_path, "run-t"))
        assert sorted(e["review_id"] for e in entries) == ["r0", "r1", "r2"]
        assert any("torn final ledger line" in r.getMessage() for r in caplog.records)
        assert str(path) in caplog.text

    def test_torn_inside_a_multibyte_character_is_skipped(self, tmp_path):
        self._run(tmp_path, 2)
        path = ledger_path(tmp_path, "run-t")
        last = path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)[-1]
        cut = last.index("\u2713".encode()) + 1  # inside the 3-byte check mark
        self._tear(tmp_path, cut)
        assert len(list(iter_ledger(tmp_path, "run-t"))) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda line: line[:30] + b"\n",
            lambda line: b"[1, 2]\n",
            lambda line: DEEPLY_NESTED.encode() + b"\n",
            lambda line: json.dumps({**json.loads(line), "raw_response": None}).encode() + b"\n",
            *(
                lambda line, key=key, value=value: json.dumps({**json.loads(line), key: value}).encode() + b"\n"
                for key, value in _WRONGLY_TYPED_FIELDS
            ),
        ],
        ids=["truncated", "not-an-object", "deeply-nested", "null-raw-response",
             *(f"{key}-{type(value).__name__}" for key, value in _WRONGLY_TYPED_FIELDS)],
    )
    def test_corrupt_line_before_the_last_is_an_error(self, tmp_path, corrupt):
        self._run(tmp_path, 3)
        path = ledger_path(tmp_path, "run-t")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = corrupt(lines[1])
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=":2: corrupt ledger entry"):
            list(iter_ledger(tmp_path, "run-t"))

    @pytest.mark.parametrize("strategy", ["few-shot", "ZS", "eot_detect"])
    def test_an_unknown_strategy_names_the_strategies(self, tmp_path, strategy):
        self._run(tmp_path, 3)
        path = ledger_path(tmp_path, "run-t")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), "strategy": strategy}).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError) as excinfo:
            list(iter_ledger(tmp_path, "run-t"))
        assert str(excinfo.value) == (
            f"{path}:2: corrupt ledger entry: strategy is not one of 'zs', 'zs-cot', 'eot-detect': {strategy!r}"
        )

    def test_corrupt_final_line_ending_in_a_newline_is_an_error(self, tmp_path):
        self._run(tmp_path, 2)
        path = self._tear(tmp_path, 30)
        with open(path, "ab") as fh:
            fh.write(b"\n")
        with pytest.raises(DataError, match=":3: corrupt ledger entry"):
            list(iter_ledger(tmp_path, "run-t"))

    def test_deeply_nested_torn_final_line_is_skipped_then_cut_off(self, tmp_path):
        self._run(tmp_path, 2)
        path = ledger_path(tmp_path, "run-t")
        with open(path, "ab") as fh:
            fh.write(DEEPLY_NESTED.encode())
        assert sorted(e["review_id"] for e in iter_ledger(tmp_path, "run-t")) == ["r0", "r1"]
        session = self._run(tmp_path, 3)  # the resume seals the ledger first
        assert session.calls == 1
        assert not path.read_bytes().count(b"[[")
        assert sorted(e["review_id"] for e in iter_ledger(tmp_path, "run-t")) == ["r0", "r1", "r2"]

    def test_resume_after_a_torn_tail_appends_on_a_fresh_line(self, tmp_path, caplog):
        self._run(tmp_path, 3)
        self._tear(tmp_path, 40)
        session = self._run(tmp_path, 5)
        assert session.calls == 2  # only r3 and r4
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="eotbench.inference"):
            entries = list(iter_ledger(tmp_path, "run-t"))
        assert sorted(e["review_id"] for e in entries) == ["r0", "r1", "r2", "r3", "r4"]
        assert not caplog.records  # the torn fragment is gone
        assert ledger_path(tmp_path, "run-t").read_bytes().endswith(b"\n")

    def test_resume_keeps_a_complete_entry_missing_its_newline(self, tmp_path):
        self._run(tmp_path, 2)
        path = ledger_path(tmp_path, "run-t")
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert len(list(iter_ledger(tmp_path, "run-t"))) == 2
        session = self._run(tmp_path, 3)
        assert session.calls == 1
        assert sorted(e["review_id"] for e in iter_ledger(tmp_path, "run-t")) == ["r0", "r1", "r2"]


class TestProviderProfiles:
    def test_load_from_ini(self, tmp_path):
        path = tmp_path / "profiles.ini"
        path.write_text(
            "[local]\n"
            "base_url = http://127.0.0.1:9999/v1\n"
            "model_id = test-model\n"
            "supported_params = temperature, top_p, top_k, max_tokens\n"
            "max_concurrency = 2\n"
            "timeout = 30\n"
        )
        profiles = load_provider_profiles(path)
        loaded = profiles["local"]
        assert loaded.model_id == "test-model"
        assert "top_k" in loaded.supported_params
        assert loaded.max_concurrency == 2
        assert loaded.timeout == 30.0
        assert loaded.auth_env_var == ""

    def test_a_key_left_out_takes_the_profile_default(self, tmp_path):
        path = tmp_path / "profiles.ini"
        path.write_text("[local]\nbase_url = http://127.0.0.1:9999/v1\nmodel_id = test-model\n")
        assert load_provider_profiles(path) == {
            "local": ProviderProfile("local", "http://127.0.0.1:9999/v1", "test-model")
        }

    def test_a_percent_sign_is_read_literally(self, tmp_path):
        path = tmp_path / "profiles.ini"
        path.write_text("[local]\nbase_url = http://127.0.0.1:9/v1%2Fx\nmodel_id = 100%% m%(x)s\n")
        loaded = load_provider_profiles(path)["local"]
        assert (loaded.base_url, loaded.model_id) == ("http://127.0.0.1:9/v1%2Fx", "100%% m%(x)s")

    @pytest.mark.parametrize("concurrency", [0, MAX_CONCURRENCY + 1, 100_000])
    def test_max_concurrency_out_of_bounds_is_rejected(self, concurrency):
        # constructing the profile starts no thread; run_experiment would start
        # one for each worker beyond the first
        threads = threading.active_count()
        with pytest.raises(ValueError, match="max_concurrency"):
            profile(max_concurrency=concurrency)
        assert profile(max_concurrency=MAX_CONCURRENCY).max_concurrency == MAX_CONCURRENCY
        assert threading.active_count() == threads

    def test_max_concurrency_above_the_bound_is_a_data_error(self, tmp_path):
        path = tmp_path / "profiles.ini"
        path.write_text("[big]\nbase_url = http://127.0.0.1:9/v1\nmodel_id = m\nmax_concurrency = 100000\n")
        with pytest.raises(DataError, match="max_concurrency"):
            load_provider_profiles(path)
