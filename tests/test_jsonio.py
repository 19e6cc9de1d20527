from __future__ import annotations

import json
import os
import threading

import pytest

from eotbench.cli import _write_text
from eotbench.errors import DataError
from eotbench.jsonio import dump_json, iter_jsonl, load_json, write_jsonl
from conftest import DEEPLY_NESTED


def test_iter_jsonl_reports_bad_lines_and_goes_on(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"a": 1}\n\n"caf\xe9"\n{oops\n  \n[2]\n')
    assert list(iter_jsonl(path)) == [
        (1, {"a": 1}, None),
        (3, None, "invalid UTF-8: invalid continuation byte at byte 4"),
        (4, None, "invalid JSON: Expecting property name enclosed in double quotes"),
        (6, [2], None),
    ]


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
