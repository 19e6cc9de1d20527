"""Exception hierarchy shared across the package.

Two broad families matter to callers: DataError (bad or inconsistent
input data, CLI exit code 3) and ProviderFailure (HTTP completion
endpoint problems, CLI exit code 4).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class HarnessError(Exception):
    """Base class for every error raised by this package."""


class DataError(HarnessError):
    """Invalid, malformed, or mutually inconsistent input data."""


@contextmanager
def data_errors(where: object, what: str) -> Iterator[None]:
    """Turn a ValueError raised while reading ``what`` from the file
    ``where`` into a DataError that names both."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"{where}: bad {what}: {exc}") from None


class UnknownEmotion(DataError):
    def __init__(self, raw: str):
        super().__init__(f"not an admissible emotion label: {raw!r}")
        self.raw = raw


class SpanNotFound(DataError):
    def __init__(self, trigger_text: str):
        super().__init__(f"trigger is not a verbatim substring: {trigger_text!r}")
        self.trigger_text = trigger_text


class EmptyCorpus(DataError):
    def __init__(self, path):
        super().__init__(f"no usable records in corpus file: {path}")
        self.path = path


class SampleTooLarge(DataError):
    def __init__(self, n: int, population_size: int):
        super().__init__(f"cannot draw {n} from a population of {population_size}")
        self.n = n
        self.population_size = population_size


class InsufficientReviews(DataError):
    def __init__(self, item_id: str, have: int, need: int):
        super().__init__(f"item {item_id!r} has {have} eligible reviews, need {need}")
        self.item_id = item_id
        self.have = have
        self.need = need


class MismatchedReviewIds(DataError):
    pass


class WrongAnnotatorCount(DataError):
    pass


class DegenerateDistribution(DataError):
    """Chance agreement equals 1 while observed agreement does not."""


class MissingGold(DataError):
    def __init__(self, review_id: str):
        super().__init__(f"no gold record for review {review_id!r}")
        self.review_id = review_id


class UnknownRun(DataError):
    def __init__(self, run_id: str):
        super().__init__(f"no such run: {run_id!r}")
        self.run_id = run_id


class NoStructuredBlock(DataError):
    """The raw response contains no balanced top-level object."""


class ProviderFailure(HarnessError):
    """Base class for completion-endpoint failures.

    ``attempts`` records how many HTTP attempts were made before giving up.
    """

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class AuthMissing(ProviderFailure):
    def __init__(self, env_var: str):
        super().__init__(f"auth environment variable {env_var} is not set")
        self.env_var = env_var


class RateLimited(ProviderFailure):
    def __init__(self, attempts: int):
        super().__init__(f"still rate limited after {attempts} attempts", attempts)


class ProviderError(ProviderFailure):
    def __init__(self, status: int, body: str, attempts: int = 1):
        super().__init__(f"provider returned HTTP {status}: {body[:200]}", attempts)
        self.status = status
        self.body = body


class RequestTimeout(ProviderFailure):
    def __init__(self, attempts: int):
        super().__init__(f"request timed out after {attempts} attempts", attempts)
