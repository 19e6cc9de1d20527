"""Small helpers for line-delimited JSON files, and writes that never leave
a file half-written."""

from __future__ import annotations

import contextlib
import json
import os
import stat
import uuid
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO


def iter_jsonl(path: Path | str) -> Iterator[tuple[int, Any, str | None]]:
    """Yield (1-based line number, value, None) for each non-blank line.

    Lines are decoded one at a time, so a line that is not UTF-8 or not JSON
    yields (line number, None, reason) instead and the lines after it still
    load; the caller decides whether to skip it or fail.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield line_no, None, f"invalid UTF-8: {exc.reason} at byte {exc.start}"
                continue
            if not line.strip():
                continue
            try:
                yield line_no, json.loads(line), None
            except json.JSONDecodeError as exc:
                yield line_no, None, f"invalid JSON: {exc.msg}"


@contextlib.contextmanager
def atomic_writer(path: Path | str) -> Iterator[TextIO]:
    """Open ``path`` for writing text that readers see whole or not at all.

    The text goes to a temporary file beside the target and replaces it only
    once written; if the writer raises, the temporary file is removed and
    the target keeps its old content. A symlink's target is the file
    replaced. A target that exists but is not a regular file (a pipe, a
    terminal, ``/dev/stdout``) cannot be replaced and is written in place.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{uuid.uuid4().hex[:12]}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_jsonl(path: Path | str, records: Iterable[dict[str, Any]]) -> None:
    with atomic_writer(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def dump_json(path: Path | str, document: dict[str, Any]) -> None:
    with atomic_writer(path) as fh:
        json.dump(document, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_json(path: Path | str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
