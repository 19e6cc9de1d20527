from __future__ import annotations

import json
import logging
import os
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eotbench import inference
from eotbench.cli import _write_text
from eotbench.errors import DataError
from eotbench.inference import iter_ledger, ledger_path
from eotbench.jsonio import dump_json, encode_record, iter_jsonl, load_json, loads_line, write_jsonl
from eotbench.prompting import Strategy
from conftest import DEEPLY_NESTED, ledger_entry
from oracles import oracle_iter_jsonl, oracle_read_ledger


def test_iter_jsonl_reports_bad_lines_and_goes_on(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"a": 1}\n\n"caf\xe9"\n{oops\n  \n[2]\n')
    assert list(iter_jsonl(path)) == [
        (1, {"a": 1}, None),
        (3, None, "invalid UTF-8: invalid continuation byte at byte 4"),
        (4, None, "invalid JSON: Expecting property name enclosed in double quotes"),
        (6, [2], None),
    ]


# JSON values of every type, NaN and the infinities among the floats
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# whole lines that are not json.dumps output: too deep, too long an integer,
# blank in several ways, and not JSON
ODD_LINES = [
    DEEPLY_NESTED, "[" * 40 + "]" * 40, "9" * (_INT_DIGITS + 1) if _INT_DIGITS else "9" * 5000,
    "", " ", "\t", "\x0c", "\x1c", "\u3000", "\r", "{", "}", "[1,]", "tru", "NaN", "-Infinity",
    '"\\ud83d"', '{"a": 1, "a": 2}',
]


@st.composite
def jsonl_lines(draw) -> bytes:
    """One line of a JSONL file, without its newline: a JSON value with or
    without leading or trailing bytes, an odd line, or bytes that are not UTF-8."""
    kind = draw(st.sampled_from(["value", "value", "value", "odd", "text", "bytes"]))
    if kind == "odd":
        return draw(st.sampled_from(ODD_LINES)).encode()
    if kind == "text":
        return draw(st.text(max_size=12)).replace("\n", "").encode("utf-8", "surrogatepass")
    if kind == "bytes":
        return draw(st.binary(max_size=6).filter(lambda b: b"\n" not in b))
    text = json.dumps(draw(JSON_VALUES), ensure_ascii=draw(st.booleans()))
    before = draw(st.sampled_from(["", "", "", " ", "\t", "\ufeff", "\r"]))
    after = draw(st.sampled_from(["", "", "", " ", "\r", "\t\r", " x", ",", "]"]))
    cut = draw(st.sampled_from([None, None, None, 1, -1]))  # a value torn short
    return (before + text[:cut] + after).encode("utf-8", "surrogatepass")


def _jsonl_file(lines: list[bytes], final_newline: bool) -> bytes:
    return b"\n".join(lines) + (b"\n" if final_newline and lines else b"")


class TestLeanDecoding:
    """The readers decode a line with one scanner call where they can; what
    they yield must equal what ``json.loads`` on each line gives."""

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(jsonl_lines(), max_size=8), st.booleans())
    def test_iter_jsonl_yields_what_json_loads_on_each_line_yields(self, tmp_path_factory, lines, final_newline):
        path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
        path.write_bytes(_jsonl_file(lines, final_newline))
        # repr, because NaN is not equal to itself
        assert repr(list(iter_jsonl(path))) == repr(list(oracle_iter_jsonl(path)))

    @settings(max_examples=300)
    @given(jsonl_lines(), st.sampled_from(["", "\n"]))
    def test_loads_line_returns_or_raises_what_json_loads_does(self, line, end):
        try:
            text = line.decode("utf-8") + end
        except UnicodeDecodeError:
            return
        try:
            expected = repr(json.loads(text))
        except (ValueError, RecursionError) as exc:
            expected = (type(exc), str(exc))
        try:
            got = repr(loads_line(text))
        except (ValueError, RecursionError) as exc:
            got = (type(exc), str(exc))
        assert got == expected


_ENTRY = ledger_entry("r1", '{"emotions": []}', run_id="run", prompt_version="1", latency_ms=12)
_ENTRY_LINE = encode_record(_ENTRY).encode()


@st.composite
def ledger_lines(draw) -> bytes:
    """A ledger line without its newline: an entry, sometimes re-typed,
    re-spaced or cut short, or any line ``jsonl_lines`` makes."""
    kind = draw(st.sampled_from(["entry", "entry", "entry", "field", "other"]))
    if kind == "other":
        return draw(jsonl_lines())
    if kind == "field":
        key = draw(st.sampled_from(sorted(_ENTRY)))
        return json.dumps({**_ENTRY, key: draw(JSON_VALUES)}).encode()
    before = draw(st.sampled_from([b"", b"", b" ", b"\xef\xbb\xbf"]))
    after = draw(st.sampled_from([b"", b"", b" ", b"\r", b"x"]))
    return before + _ENTRY_LINE + after


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.lists(ledger_lines(), max_size=6), st.booleans(), st.integers(min_value=0, max_value=len(_ENTRY_LINE)))
def test_read_ledger_reads_what_json_loads_on_each_line_reads(tmp_path_factory, caplog, lines, final_newline, torn):
    runs = tmp_path_factory.mktemp("runs")
    path = ledger_path(runs, "run")
    path.parent.mkdir()
    data = _jsonl_file(lines, final_newline)
    if torn:  # a crash mid-append: a final line cut short, with no newline
        data += (b"\n" if data and not data.endswith(b"\n") else b"") + _ENTRY_LINE[:torn]
    path.write_bytes(data)
    try:
        expected = oracle_read_ledger(path)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            list(iter_ledger(runs, "run"))
        assert str(raised.value) == str(exc)
        return
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=inference.__name__):
        entries = list(iter_ledger(runs, "run"))
    assert (entries, [r.getMessage() for r in caplog.records]) == expected


# what json.dumps encodes: any key json turns into a string, tuples as arrays,
# NaN and the infinities, lone surrogates
_ENCODABLE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children) | st.dictionaries(
        st.text() | st.integers() | st.floats() | st.booleans() | st.none(), children, max_size=4
    ),
    max_leaves=20,
)


class TestEncodeRecord:
    @given(_ENCODABLE)
    def test_is_json_dumps(self, value):
        assert encode_record(value) == json.dumps(value, ensure_ascii=False)

    @given(_ENCODABLE, st.sampled_from([set(), b"bytes", object(), 1j, Strategy.ZS]))
    def test_a_value_json_cannot_hold_raises_the_type_error_json_dumps_raises(self, value, alien):
        record = {"value": value, "alien": [alien]}
        with pytest.raises(TypeError) as expected:
            json.dumps(record, ensure_ascii=False)
        with pytest.raises(TypeError) as got:
            encode_record(record)
        assert str(got.value) == str(expected.value)


def test_load_json_of_a_deeply_nested_file_is_a_data_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(DEEPLY_NESTED)
    with pytest.raises(DataError, match=r"config\.json: not valid JSON: maximum recursion depth"):
        load_json(path)


class TestAtomicWrites:
    def _records(self, fail_after: int):
        for i in range(fail_after):
            yield {"i": i}
        raise RuntimeError("generator failed mid-write")

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(path, [{"old": True}])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_jsonl(path, self._records(fail_after=3))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_failed_first_write_creates_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_jsonl(tmp_path / "new.jsonl", self._records(fail_after=1))
        assert list(tmp_path.iterdir()) == []

    def test_each_writer_replaces_the_whole_file(self, tmp_path):
        jsonl, doc, text = tmp_path / "a.jsonl", tmp_path / "b.json", tmp_path / "c.txt"
        for path in (jsonl, doc, text):
            path.write_text("stale content that is longer than the new one\n" * 10)
        write_jsonl(jsonl, [{"x": 1}])
        dump_json(doc, {"y": 2})
        _write_text("z\n", str(text))
        assert jsonl.read_text() == '{"x": 1}\n'
        assert json.loads(doc.read_text()) == {"y": 2}
        assert text.read_text() == "z\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "b.json", "c.txt"]

    def test_symlink_target_is_replaced_and_the_link_kept(self, tmp_path):
        target = tmp_path / "real.json"
        target.write_text("{}\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        dump_json(link, {"v": 1})
        assert link.is_symlink()
        assert json.loads(target.read_text()) == {"v": 1}

    def test_a_pipe_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()))
        reader.start()
        write_jsonl(pipe, [{"x": 1}])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ['{"x": 1}\n']
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
