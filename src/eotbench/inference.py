"""HTTP chat-completion execution with retries and an append-only ledger.

A run sends every request through one transport, made once from the
profile (``http_transport``) and shared by the run's workers:
``post(body)`` takes the request body and nothing else. Each body is the
run's ``BodyTemplate`` (``body_template``) with the review's text put in.

Raw responses are persisted before any parsing, so scoring never
re-issues a request. Re-running an experiment skips reviews that already
have an Ok ledger entry; failed reviews get a fresh attempt and a fresh
entry (old entries are never mutated).
"""

from __future__ import annotations

import configparser
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import __version__
from .errors import DataError, ProviderError, ProviderFailure, data_errors
from .jsonio import ARRAY, DECODE_ERRORS, INTEGER, STRING, check_fields, encode_record, loads_line
from .model import Domain, Review
from .prompting import DEFAULT_CONFIG, PROMPT_VERSION, Strategy, build_prompt, render_messages

log = logging.getLogger(__name__)

BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_SECONDS = 60.0
DEFAULT_MAX_ATTEMPTS = 5
# the most workers a profile may ask for: run_experiment starts a thread for
# each worker beyond the first
MAX_CONCURRENCY = 64


@dataclass(frozen=True)
class ProviderProfile:
    name: str
    base_url: str
    model_id: str
    auth_env_var: str = ""
    supported_params: frozenset[str] = frozenset({"temperature", "top_p", "max_tokens"})
    max_concurrency: int = 4
    timeout: float = 60.0

    def __post_init__(self):
        if not 1 <= self.max_concurrency <= MAX_CONCURRENCY:
            raise ValueError(
                f"max_concurrency must be >= 1 and <= {MAX_CONCURRENCY}, not {self.max_concurrency}"
            )
        # a socket timeout above threading.TIMEOUT_MAX overflows the platform's time_t
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be a number of seconds > 0 and <= {threading.TIMEOUT_MAX:.0f},"
                f" not {self.timeout!r}"
            )
        unknown = sorted(self.supported_params.difference(DEFAULT_CONFIG))
        if unknown:
            raise ValueError(f"supported_params names no config field: {', '.join(map(repr, unknown))}")

    def auth_token(self) -> str | None:
        """Resolve the bearer token; empty auth_env_var means no auth."""
        if not self.auth_env_var:
            return None
        token = os.environ.get(self.auth_env_var)
        if not token:
            raise ProviderFailure(f"auth environment variable {self.auth_env_var} is not set")
        return token


# how each key a profile section may set is read; a key left out takes the field's default
_PROFILE_KEYS: dict[str, Callable[[str], Any]] = {
    "base_url": str, "model_id": str, "auth_env_var": str,
    "supported_params": lambda value: frozenset(p.strip() for p in value.split(",") if p.strip()),
    "max_concurrency": int, "timeout": float,
}


def load_provider_profiles(path: Path | str) -> dict[str, ProviderProfile]:
    """Read provider profiles from an INI-style key-value file.

    Each section defines one profile; recognized keys are base_url,
    model_id, auth_env_var, supported_params (comma separated),
    max_concurrency, timeout.
    """
    parser = configparser.ConfigParser(interpolation=None)  # every value is literal: "%2F" stays "%2F"
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a profile file: {exc}") from None
    if not read:
        raise DataError(f"cannot read profile file: {path}")
    profiles: dict[str, ProviderProfile] = {}
    for section in parser.sections():
        values = parser[section]
        if "base_url" not in values or "model_id" not in values:
            raise DataError(f"profile {section!r} needs base_url and model_id")
        with data_errors(path, f"profile {section!r}"):
            set_here = {key: convert(values[key]) for key, convert in _PROFILE_KEYS.items() if key in values}
            profiles[section] = ProviderProfile(section, **set_here)
    if not profiles:
        raise DataError(f"no profiles defined in {path}")
    return profiles


class LedgerStatus:
    OK = "Ok"
    FAILED = "Failed"


# the fields of a ledger line, in the order run_experiment writes them
LEDGER_SPEC = (
    ("run_id", STRING, True, None), ("review_id", STRING, True, None),
    ("strategy", STRING, True, tuple(s.value for s in Strategy)),
    ("prompt_version", STRING, True, None), ("raw_response", STRING, True, None),
    ("latency_ms", INTEGER, True, None), ("attempt_count", INTEGER, True, None),
    ("status", STRING, True, (LedgerStatus.OK, LedgerStatus.FAILED)), ("error", STRING, None, None),
)


class CompletionOutcome(NamedTuple):
    text: str
    attempts: int


# A review text that no prompt holds: its escaped form marks where the review goes.
_SENTINEL = "\x00"
_ESCAPED_SENTINEL = encode_basestring_ascii(_SENTINEL)[1:-1].encode("ascii")


class BodyTemplate(NamedTuple):
    """The request body of a run's strategy around a gap for the review text."""

    strategy: Strategy
    prefix: bytes
    suffix: bytes

    def encode(self, text: str) -> bytes:
        """The body for a review with ``text``: the same bytes as ``json.dumps``
        of the body with its prompt rendered, as JSON escapes each code point
        on its own."""
        return self.prefix + encode_basestring_ascii(text)[1:-1].encode("ascii") + self.suffix


def body_template(profile: ProviderProfile, config: dict[str, Any], strategy: Strategy) -> BodyTemplate:
    """The chat-completion body of ``strategy`` for ``profile``, rendered and
    encoded once around a sentinel review: the model, the config params the
    profile supports, then the messages."""
    body: dict[str, Any] = {"model": profile.model_id}
    dropped = []
    for param, value in config.items():
        if param in profile.supported_params:
            body[param] = value
        else:
            dropped.append(param)
    if dropped:
        log.debug("profile %s drops unsupported params: %s", profile.name, ", ".join(dropped))
    messages = render_messages(build_prompt(strategy, Review("template", _SENTINEL, Domain.HOME, "template")))
    assert sum(content.count(_SENTINEL) for _, content in messages) == 1, "a prompt constant holds the sentinel"
    body["messages"] = [{"role": role, "content": content} for role, content in messages]
    # the messages are the body's last field, so the last sentinel is the
    # review's even if the params (a model id) hold one too
    prefix, _, suffix = json.dumps(body).encode("utf-8").rpartition(_ESCAPED_SENTINEL)
    return BodyTemplate(strategy, prefix, suffix)


def http_transport(profile: ProviderProfile) -> Any:
    """The run's one transport to the profile's chat completions, with its
    auth header and timeout. An unset token raises ProviderFailure; a URL, proxy
    or header the transport cannot use is a DataError. Both are raised
    before any request."""
    from .transport import HttpTransport  # imported on first use: the other commands need no HTTP

    headers = {"Content-Type": "application/json", "User-Agent": f"eotbench/{__version__}"}
    token = profile.auth_token()
    if token:
        headers["Authorization"] = f"Bearer {token}"
    try:
        return HttpTransport(profile.base_url.rstrip("/") + "/chat/completions", headers, profile.timeout)
    except ValueError as exc:
        raise DataError(f"profile {profile.name!r}: {exc}") from None


# what run reads of a reply: the text of its first choice, which the UTF-8
# ledger can hold (absent or null, it is a refusal or a tool call)
_REPLY_SPEC = (("choices", ARRAY, True, (("message", (("content", STRING, True, None),), True, None),)),)


def _extract_choice_text(payload: Any, attempt: int) -> str:
    """The first choice's text; a reply with no choice, or one that fails _REPLY_SPEC, is a ProviderError."""
    try:
        check_fields(payload, _REPLY_SPEC)
        return payload["choices"][0]["message"]["content"]
    except (ValueError, IndexError) as exc:
        raise ProviderError(200, f"malformed completion body: {exc}", attempt) from None


def request_completion(
    http: Any,
    body: bytes,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    sleep: Callable[[float], None] = time.sleep,
) -> CompletionOutcome:
    """One chat completion with exponential backoff and full jitter.

    ``body`` is the encoded request (a run's ``BodyTemplate.encode``);
    ``http.post(body)`` (a ``transport.HttpTransport``) sends it, raising
    TimeoutError on a timeout and OSError when the exchange fails.
    Transient failures (timeouts, connection errors, 429, 5xx) are retried
    up to max_attempts; other HTTP errors, redirects included, raise
    immediately.
    """
    for attempt in range(1, max_attempts + 1):
        transient: ProviderFailure | None = None
        try:
            response = http.post(body)
        except TimeoutError:
            transient = ProviderFailure(f"request timed out after {attempt} attempts", attempt)
        except OSError as exc:
            transient = ProviderError(0, f"connection error: {exc}", attempt)
        else:
            status = response.status
            if status == 200:
                try:
                    payload = json.loads(response.body)
                except DECODE_ERRORS:
                    raise ProviderError(200, "response body is not JSON", attempt) from None
                return CompletionOutcome(_extract_choice_text(payload, attempt), attempt)
            if status == 429:
                transient = ProviderFailure(f"still rate limited after {attempt} attempts", attempt)
            elif status >= 500:
                transient = ProviderError(status, response.body.decode("utf-8", "replace"), attempt)
            elif 300 <= status < 400:
                location = response.headers.get("location")
                raise ProviderError(status, f"redirect to {location!r} not followed", attempt)
            else:
                raise ProviderError(status, response.body.decode("utf-8", "replace"), attempt)
        if attempt == max_attempts:
            raise transient
        delay = min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * BACKOFF_FACTOR ** (attempt - 1))
        sleep(random.uniform(0, delay))
    raise ProviderError(0, "unreachable")  # pragma: no cover


def ledger_path(runs_dir: Path | str, run_id: str) -> Path:
    return Path(runs_dir) / run_id / "ledger"


def _decode_entry(line: bytes) -> dict[str, Any]:
    entry = loads_line(line.decode("utf-8"))
    check_fields(entry, LEDGER_SPEC)
    return entry


def iter_ledger(runs_dir: Path | str, run_id: str) -> Iterator[dict[str, Any]]:
    """Entries in append order, each the dict of its line after a check
    against LEDGER_SPEC, read one line at a time.

    A crash mid-append leaves a torn final line: it has no newline (the
    newline is written last) and may stop inside a UTF-8 sequence, so lines
    are decoded one at a time. That line is skipped with a warning; a
    corrupt line anywhere else raises DataError.
    """
    path = ledger_path(runs_dir, run_id)
    if not path.exists():
        return
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                entry = _decode_entry(line)
            except DECODE_ERRORS as exc:
                if not line.endswith(b"\n"):
                    log.warning("%s:%d: skipping torn final ledger line: %s", path, line_no, exc)
                    continue
                raise DataError(f"{path}:{line_no}: corrupt ledger entry: {exc}") from None
            yield entry


def _seal_ledger(path: Path) -> None:
    """End the ledger with a newline so that appends start on a fresh line.

    A torn final line (skipped by iter_ledger) is cut off; a complete entry
    that only lacks its newline gets one.
    """
    if not path.exists():
        return
    with open(path, "rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        cut = data.rfind(b"\n") + 1
        try:
            _decode_entry(data[cut:])
        except DECODE_ERRORS:
            fh.truncate(cut)
        else:
            fh.write(b"\n")


@dataclass
class RunState:
    """A run's ledger reduced: for each review with an Ok entry, ``keep`` of
    its latest Ok entry; and the reviews that have entries but none of them Ok."""

    keep: Callable[[dict[str, Any]], Any]
    ok: dict[str, Any] = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)

    def add(self, entry: dict[str, Any]) -> None:
        if entry["status"] == LedgerStatus.OK:
            self.ok[entry["review_id"]] = self.keep(entry)
            self.failed.discard(entry["review_id"])
        elif entry["review_id"] not in self.ok:
            self.failed.add(entry["review_id"])


def read_ledger(
    runs_dir: Path | str, run_id: str, prompt_version: str, keep: Callable[[dict[str, Any]], Any]
) -> RunState:
    """The state of run ``run_id`` under ``prompt_version``, its ledger read
    and reduced in one pass: ``keep`` is called on each Ok entry of the run
    and prompt version as it is read, and the entry itself is not held.

    Entries of other runs or of another prompt version are ignored.
    """
    state = RunState(keep)
    for entry in iter_ledger(runs_dir, run_id):
        if entry["run_id"] == run_id and entry["prompt_version"] == prompt_version:
            state.add(entry)
    return state


class _Progress:
    """Logs a run's progress about every 5% of its to-do list or every 30 s:
    done/total, requests per second, failures so far and an ETA."""

    EVERY_SECONDS = 30.0

    def __init__(self, run_id: str, total: int, started: float):
        self.run_id = run_id
        self.total = total
        self.step = -(-total // 20)  # 5%, rounded up
        self.done = self.failed = 0
        self.started = self.logged = started

    def add(self, ok: bool, now: float) -> None:
        self.done += 1
        self.failed += not ok
        if self.done % self.step and self.done < self.total and now - self.logged < self.EVERY_SECONDS:
            return
        self.logged = now
        rate = self.done / max(now - self.started, 1e-9)
        log.info(
            "run %s: %d/%d reviews, %.1f req/s, %d failed, ETA %.0f s",
            self.run_id, self.done, self.total, rate, self.failed, (self.total - self.done) / rate,
        )


def run_experiment(
    reviews: Iterable[Review],
    template: BodyTemplate,
    http: Any,
    *,
    max_concurrency: int,
    runs_dir: Path | str,
    run_id: str,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    sleep: Callable[[float], None] = time.sleep,
) -> RunState:
    """Send each review in ``template`` through ``http`` (anything with
    ``post(body)``), appending one ledger entry each.

    ``max_concurrency`` workers, the calling thread among them, take
    reviews from one shared iterator; each worker appends its own entries.
    Resumable: reviews already Ok in this run's ledger under the current
    PROMPT_VERSION are skipped. Per-review failures become Failed entries
    and never abort the run; any other exception stops the workers taking
    reviews and is raised once they have all finished, the entries of the
    reviews they finished appended. Progress is logged at INFO. Returns the
    run's state after it, ledger entries from earlier invocations included;
    it keeps only review ids, each Ok one mapped to None.
    """
    path = ledger_path(runs_dir, run_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = read_ledger(runs_dir, run_id, PROMPT_VERSION, lambda entry: None)
    _seal_ledger(path)
    todo = [r for r in reviews if r.review_id not in state.ok]
    log.info("run %s: %d reviews to process (%d already done)", run_id, len(todo), len(state.ok))

    def process(review: Review) -> dict[str, Any]:
        started = time.monotonic()
        try:
            outcome = request_completion(http, template.encode(review.text), max_attempts=max_attempts, sleep=sleep)
            text, attempts, status, error = outcome.text, outcome.attempts, LedgerStatus.OK, None
        except ProviderFailure as exc:
            text, attempts, status, error = "", exc.attempts, LedgerStatus.FAILED, str(exc)
        latency = int((time.monotonic() - started) * 1000)
        return {
            "run_id": run_id, "review_id": review.review_id, "strategy": template.strategy.value,
            "prompt_version": PROMPT_VERSION, "raw_response": text, "latency_ms": latency,
            "attempt_count": attempts, "status": status, "error": error,
        }

    pending = iter(todo)
    progress = _Progress(run_id, len(todo), time.monotonic())
    errors: list[BaseException] = []
    # one lock covers the ledger, the state, the progress, the iterator and
    # the errors: a worker appends the entry it has and takes its next review
    # in one hold, and each line is flushed whole before another starts
    lock = threading.Lock()

    def work() -> None:
        entry = None
        try:
            while True:
                with lock:
                    if entry is not None:
                        ledger.write(line)
                        ledger.flush()
                        state.add(entry)
                        progress.add(entry["status"] == LedgerStatus.OK, time.monotonic())
                    review = None if errors else next(pending, None)
                if review is None:
                    return
                entry = process(review)
                line = encode_record(entry) + "\n"
        except BaseException as exc:  # raised by run_experiment once every worker is done
            with lock:
                errors.append(exc)

    with open(path, "a", encoding="utf-8") as ledger:
        workers = [threading.Thread(target=work) for _ in range(min(max_concurrency, len(todo)) - 1)]
        for worker in workers:
            worker.start()
        work()
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    return state
