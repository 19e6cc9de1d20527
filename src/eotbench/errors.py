"""Exception hierarchy shared across the package.

Two families matter to callers: DataError (bad or inconsistent input data,
CLI exit code 3) and ProviderFailure (HTTP completion endpoint problems, CLI
exit code 4). A subclass exists only where code catches it by type or
raises it from two or more places; any other failure raises DataError or
ProviderFailure itself, with a message that names the file, line or field.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class DataError(Exception):
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


class SpanNotFound(DataError):
    def __init__(self, trigger_text: str):
        super().__init__(f"trigger is not a verbatim substring: {trigger_text!r}")


class InsufficientReviews(DataError):
    def __init__(self, item_id: str, have: int, need: int):
        super().__init__(f"item {item_id!r} has {have} eligible reviews, need {need}")


class DegenerateDistribution(DataError):
    """Chance agreement equals 1 while observed agreement does not."""


class UnknownRun(DataError):
    def __init__(self, run_id: str):
        super().__init__(f"no such run: {run_id!r}")


class NoStructuredBlock(DataError):
    """The raw response contains no balanced top-level object."""


class ProviderFailure(Exception):
    """A completion-endpoint failure.

    ``attempts`` records how many HTTP attempts were made before giving up.
    """

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class ProviderError(ProviderFailure):
    def __init__(self, status: int, body: str, attempts: int = 1):
        super().__init__(f"provider returned HTTP {status}: {body[:200]}", attempts)
        self.status = status
