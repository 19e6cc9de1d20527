"""Small helpers for JSON and line-delimited JSON files, the one record
checker, writes that never leave a file half-written, and the one table/CSV
renderer."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
import uuid
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO

from .errors import DataError

# What decoding JSON can raise on bad input: JSONDecodeError, a ValueError for
# an integer longer than sys.get_int_max_str_digits() (or UnicodeDecodeError
# from a text file), and RecursionError for deep nesting.
DECODE_ERRORS = (ValueError, RecursionError)

# The kinds of a field, named as an error names them. Nothing is coerced: an
# integer is an int that is not a bool, a number an integer that a float can
# hold or a finite float, a string one that UTF-8 can encode (utf8_encodable).
# A spec, a tuple of fields, is the kind of an object.
STRING, INTEGER, NUMBER, BOOLEAN, ARRAY, OBJECT = (
    "a string", "an integer", "a number", "true or false", "an array", "an object"
)
_FLOAT_MAX = sys.float_info.max
# the most characters of a value's repr that an error shows
_SHOWN_CHARS = 80


def utf8_encodable(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: not when it holds a lone surrogate,
    which a "\\ud83d" escape in JSON decodes to."""
    return text.isascii() or text.encode("utf-8", "ignore").decode() == text


def check_fields(obj: Any, spec: tuple, closed: bool = False) -> None:
    """Raise a ValueError naming the field and the value unless ``obj`` is a
    dict that meets ``spec``, a tuple of (name, kind, required, test) fields.

    ``required`` is True, False (the key may be absent) or None (absent or
    null, both meaning no value). ``test`` is None or, for a string or
    number, the values allowed (a tuple, a dict, or for an integer a
    ``range``), and for an array or object the kind of each item. With
    ``closed``, a key not in ``spec`` is an error.
    """
    if type(obj) is not dict:
        raise ValueError("record is not an object")
    for name, kind, required, test in spec:
        value = obj.get(name)
        t = type(value)
        if (t is str and kind is STRING and value.isascii()) or (t is int and kind is INTEGER):
            if test is None or value in test:  # the common case, without a call
                continue
        elif value is None and (required is not False or name not in obj):
            if required:
                raise ValueError(f"{name} is required")
            continue
        _check(name, value, kind, test)
    unknown = closed and [key for key in obj if all(key != field[0] for field in spec)]
    if unknown:
        raise ValueError(f"not a known field: {_shown(', '.join(map(repr, unknown)))}")


def _shown(text: str) -> str:
    """``text`` for an error, cut to _SHOWN_CHARS characters and marked when
    cut: a 4,000-digit integer, a megabyte string or ten thousand unknown keys
    are named, not echoed."""
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def _check(name: str, value: Any, kind: Any, test: Any) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is of ``kind`` and passes ``test``."""
    t = type(value)
    if type(kind) is tuple:
        if t is not dict:
            raise ValueError(f"{name} is not an object: {_shown(repr(value))}")
        try:
            check_fields(value, kind)
        except ValueError as exc:
            raise ValueError(f"{name}.{exc}") from None
    elif not (
        (t is str and kind is STRING and utf8_encodable(value))
        or (t is int and (kind is INTEGER or (kind is NUMBER and -_FLOAT_MAX <= value <= _FLOAT_MAX)))
        or (t is float and kind is NUMBER and math.isfinite(value))
        or (t is bool and kind is BOOLEAN) or (t is list and kind is ARRAY) or (t is dict and kind is OBJECT)
    ):
        raise ValueError(f"{name} is not {kind}: {_shown(repr(value))}")
    elif test is None:
        return
    elif kind is ARRAY or kind is OBJECT:
        try:
            for key, item in enumerate(value) if kind is ARRAY else value.items():
                if not (type(item) is str and test is STRING and item.isascii()):
                    _check("", item, test, None)  # named below, only when it fails
        except ValueError as exc:
            raise ValueError(f"{name}[{_shown(repr(key))}]{exc}") from None
    elif value not in test:
        if type(test) is range:
            raise ValueError(f"{name} is out of range [{test.start}, {test[-1]}]: {_shown(repr(value))}")
        raise ValueError(f"{name} is not one of {', '.join(map(repr, test))}: {_shown(repr(value))}")


# The C scanner behind json.loads; one call decodes the value that starts at
# an index and returns it with the index where it ends.
_scan_once = json.JSONDecoder().scan_once
_SCAN_ERRORS = (StopIteration, *DECODE_ERRORS)


def loads_line(line: str) -> Any:
    """``json.loads(line)`` for one line of a JSONL file: the same value, or
    the same error.

    A line whose value starts at its first character and ends at its end or
    at its final newline costs one scanner call. Any other line (leading
    whitespace, a BOM, ``\\r\\n``, trailing data, an error) goes through
    ``json.loads``, which gives its exact value or error.
    """
    try:
        value, end = _scan_once(line, 0)
    except _SCAN_ERRORS:
        pass
    else:
        if end == len(line) or (end == len(line) - 1 and line[end] == "\n"):
            return value
    return json.loads(line)


def iter_jsonl(path: Path | str) -> Iterator[tuple[int, Any, str | None]]:
    """Yield (1-based line number, value, None) for each non-blank line.

    Lines are decoded one at a time, so a line that is not UTF-8 or not JSON
    yields (line number, None, reason) instead and the lines after it still
    load; the caller decides whether to skip it or fail. A line is JSON
    exactly when ``json.loads`` accepts it.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield line_no, None, f"invalid UTF-8: {exc.reason} at byte {exc.start}"
                continue
            if line.isspace():
                continue
            try:
                yield line_no, loads_line(line), None
            except DECODE_ERRORS as exc:
                yield line_no, None, f"invalid JSON: {getattr(exc, 'msg', exc)}"


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


if c_make_encoder is None:
    encode_record = json.JSONEncoder(ensure_ascii=False).encode
else:
    # json.dumps(record, ensure_ascii=False) builds a C encoder and a map of the
    # containers it is inside on every call; a record is a tree, so one encoder
    # with no map serves every line. JSONEncoder().default raises json.dumps's
    # TypeError for a value JSON cannot hold.
    _encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring, None, ": ", ", ", False, False, True)

    def encode_record(record: Any) -> str:
        """``json.dumps(record, ensure_ascii=False)``: the same text, or the same TypeError."""
        return "".join(_encode(record, 0))


def write_jsonl(path: Path | str, records: Iterable[dict[str, Any]]) -> None:
    with atomic_writer(path) as fh:
        fh.writelines(encode_record(record) + "\n" for record in records)


def dump_json(path: Path | str, document: dict[str, Any]) -> None:
    with atomic_writer(path) as fh:
        json.dump(document, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_json(path: Path | str, spec: tuple = ()) -> dict[str, Any]:
    """Read a JSON document whose top level is an object that meets ``spec``.

    A file that is not UTF-8, not JSON or not such an object is a DataError
    that names it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except DECODE_ERRORS as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    try:
        check_fields(document, spec)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return document


def render_table(rows: Sequence[Sequence[str]], fmt: str, align: str = "left") -> str:
    """Rows of cells as CSV, or as plain text: each column padded to its
    widest cell (``align`` is "left" or "right"), columns two spaces apart."""
    out = io.StringIO()
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    widths = [max(map(len, column)) for column in zip(*rows)]
    pad = str.ljust if align == "left" else str.rjust
    for row in rows:
        out.write("  ".join(pad(cell, width) for cell, width in zip(row, widths)).rstrip() + "\n")
    return out.getvalue()
