"""HTTP chat-completion execution with retries and an append-only ledger.

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
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import requests

from .errors import (
    AuthMissing,
    DataError,
    ProviderError,
    ProviderFailure,
    RateLimited,
    RequestTimeout,
)
from .model import Review
from .prompting import (
    PROMPT_VERSION,
    InferenceConfig,
    Strategy,
    build_prompt,
    render_messages,
)

log = logging.getLogger(__name__)

BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_SECONDS = 60.0
DEFAULT_MAX_ATTEMPTS = 5

_CONFIG_PARAM_NAMES = ("temperature", "top_p", "top_k", "max_tokens", "n")


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
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")

    def auth_token(self) -> str | None:
        """Resolve the bearer token; empty auth_env_var means no auth."""
        if not self.auth_env_var:
            return None
        token = os.environ.get(self.auth_env_var)
        if not token:
            raise AuthMissing(self.auth_env_var)
        return token


def load_provider_profiles(path: Path | str) -> dict[str, ProviderProfile]:
    """Read provider profiles from an INI-style key-value file.

    Each section defines one profile; recognized keys are base_url,
    model_id, auth_env_var, supported_params (comma separated),
    max_concurrency, timeout.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise DataError(f"cannot read profile file: {path}")
    profiles: dict[str, ProviderProfile] = {}
    for section in parser.sections():
        values = parser[section]
        if "base_url" not in values or "model_id" not in values:
            raise DataError(f"profile {section!r} needs base_url and model_id")
        supported = values.get("supported_params", "temperature, top_p, max_tokens")
        profiles[section] = ProviderProfile(
            name=section,
            base_url=values["base_url"],
            model_id=values["model_id"],
            auth_env_var=values.get("auth_env_var", ""),
            supported_params=frozenset(
                p.strip() for p in supported.split(",") if p.strip()
            ),
            max_concurrency=values.getint("max_concurrency", fallback=4),
            timeout=values.getfloat("timeout", fallback=60.0),
        )
    if not profiles:
        raise DataError(f"no profiles defined in {path}")
    return profiles


class LedgerStatus:
    OK = "Ok"
    FAILED = "Failed"


@dataclass(frozen=True)
class RunLedgerEntry:
    run_id: str
    review_id: str
    strategy: Strategy
    prompt_version: str
    raw_response: str
    latency_ms: int
    attempt_count: int
    status: str
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "review_id": self.review_id,
            "strategy": self.strategy.value,
            "prompt_version": self.prompt_version,
            "raw_response": self.raw_response,
            "latency_ms": self.latency_ms,
            "attempt_count": self.attempt_count,
            "status": self.status,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunLedgerEntry":
        return cls(
            run_id=data["run_id"],
            review_id=data["review_id"],
            strategy=Strategy(data["strategy"]),
            prompt_version=data["prompt_version"],
            raw_response=data["raw_response"],
            latency_ms=int(data["latency_ms"]),
            attempt_count=int(data["attempt_count"]),
            status=data["status"],
            error=data.get("error"),
        )


class CompletionOutcome(NamedTuple):
    text: str
    attempts: int


def _request_body(
    profile: ProviderProfile, messages: Sequence[tuple[str, str]], config: InferenceConfig
) -> dict[str, Any]:
    body: dict[str, Any] = {
        "model": profile.model_id,
        "messages": [{"role": role, "content": content} for role, content in messages],
    }
    dropped = []
    for param in _CONFIG_PARAM_NAMES:
        if param in profile.supported_params:
            body[param] = getattr(config, param)
        else:
            dropped.append(param)
    if dropped:
        log.debug("profile %s drops unsupported params: %s", profile.name, ", ".join(dropped))
    return body


def _extract_choice_text(payload: Any) -> str:
    try:
        return payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise ProviderError(200, f"malformed completion body: {str(payload)[:200]}") from None


def request_completion(
    profile: ProviderProfile,
    messages: Sequence[tuple[str, str]],
    config: InferenceConfig,
    *,
    session: Any = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> CompletionOutcome:
    """One chat completion with exponential backoff and full jitter.

    Transient failures (timeouts, connection errors, 429, 5xx) are
    retried up to max_attempts; other HTTP errors raise immediately.
    """
    token = profile.auth_token()
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    url = profile.base_url.rstrip("/") + "/chat/completions"
    body = _request_body(profile, messages, config)
    http = session if session is not None else requests
    rng = rng or random.Random()

    for attempt in range(1, max_attempts + 1):
        transient: ProviderFailure | None = None
        try:
            response = http.post(url, json=body, headers=headers, timeout=profile.timeout)
        except requests.Timeout:
            transient = RequestTimeout(attempt)
        except requests.RequestException as exc:
            transient = ProviderError(0, f"connection error: {exc}", attempt)
        else:
            status = response.status_code
            if status == 200:
                try:
                    payload = response.json()
                except ValueError:
                    raise ProviderError(200, "response body is not JSON", attempt) from None
                return CompletionOutcome(_extract_choice_text(payload), attempt)
            if status == 429:
                transient = RateLimited(attempt)
            elif status >= 500:
                transient = ProviderError(status, getattr(response, "text", ""), attempt)
            else:
                raise ProviderError(status, getattr(response, "text", ""), attempt)
        if attempt == max_attempts:
            raise transient
        delay = min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * BACKOFF_FACTOR ** (attempt - 1))
        sleep(rng.uniform(0, delay))
    raise ProviderError(0, "unreachable")  # pragma: no cover


def complete(
    profile: ProviderProfile,
    messages: Sequence[tuple[str, str]],
    config: InferenceConfig,
    **kwargs: Any,
) -> str:
    """The raw text of the first completion choice."""
    return request_completion(profile, messages, config, **kwargs).text


def ledger_path(runs_dir: Path | str, run_id: str) -> Path:
    return Path(runs_dir) / run_id / "ledger"


def _decode_entry(line: bytes) -> RunLedgerEntry:
    return RunLedgerEntry.from_dict(json.loads(line.decode("utf-8")))


def read_ledger(runs_dir: Path | str, run_id: str) -> list[RunLedgerEntry]:
    """Entries in append order.

    A crash mid-append leaves a torn final line: it has no newline (the
    newline is written last) and may stop inside a UTF-8 sequence, so lines
    are decoded one at a time. That line is skipped with a warning; a
    corrupt line anywhere else raises DataError.
    """
    path = ledger_path(runs_dir, run_id)
    if not path.exists():
        return []
    entries = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                entries.append(_decode_entry(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if not line.endswith(b"\n"):
                    log.warning("%s:%d: skipping torn final ledger line: %s", path, line_no, exc)
                    continue
                raise DataError(f"{path}:{line_no}: corrupt ledger entry: {exc}") from None
    return entries


def _seal_ledger(path: Path) -> None:
    """End the ledger with a newline so that appends start on a fresh line.

    A torn final line (skipped by read_ledger) is cut off; a complete entry
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
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            fh.truncate(cut)
        else:
            fh.write(b"\n")


def ok_review_ids(entries: Sequence[RunLedgerEntry], run_id: str) -> set[str]:
    return {e.review_id for e in entries if e.run_id == run_id and e.status == LedgerStatus.OK}


def run_experiment(
    reviews: Sequence[Review],
    strategy: Strategy,
    profile: ProviderProfile,
    config: InferenceConfig,
    *,
    runs_dir: Path | str,
    run_id: str,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    session: Any = None,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Process reviews with bounded concurrency, appending one ledger entry each.

    Resumable: reviews already Ok in this run's ledger are skipped.
    Per-review failures become Failed entries and never abort the run.
    """
    profile.auth_token()  # fail before any request when auth is missing
    path = ledger_path(runs_dir, run_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    done = ok_review_ids(read_ledger(runs_dir, run_id), run_id)
    _seal_ledger(path)
    todo = [r for r in reviews if r.review_id not in done]
    log.info("run %s: %d reviews to process (%d already done)", run_id, len(todo), len(done))

    def process(review: Review) -> RunLedgerEntry:
        messages = render_messages(build_prompt(strategy, review))
        started = time.monotonic()
        try:
            outcome = request_completion(
                profile, messages, config,
                session=session, max_attempts=max_attempts, sleep=sleep,
            )
        except ProviderFailure as exc:
            latency = int((time.monotonic() - started) * 1000)
            return RunLedgerEntry(
                run_id=run_id, review_id=review.review_id, strategy=strategy,
                prompt_version=PROMPT_VERSION, raw_response="", latency_ms=latency,
                attempt_count=exc.attempts, status=LedgerStatus.FAILED, error=str(exc),
            )
        latency = int((time.monotonic() - started) * 1000)
        return RunLedgerEntry(
            run_id=run_id, review_id=review.review_id, strategy=strategy,
            prompt_version=PROMPT_VERSION, raw_response=outcome.text, latency_ms=latency,
            attempt_count=outcome.attempts, status=LedgerStatus.OK,
        )

    # single writer: worker threads only compute, the main thread appends
    with open(path, "a", encoding="utf-8") as ledger:
        with ThreadPoolExecutor(max_workers=profile.max_concurrency) as executor:
            futures = [executor.submit(process, review) for review in todo]
            for future in as_completed(futures):
                entry = future.result()
                ledger.write(json.dumps(entry.to_dict(), ensure_ascii=False) + "\n")
                ledger.flush()
    return run_id
