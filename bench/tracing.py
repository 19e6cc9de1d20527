"""Spans around calls into eotbench's public functions, recorded from outside.

``Tracer.install`` replaces each target function with a timing wrapper in
the module that defines it and in every eotbench module that imported it by
name (``annotation.tokenize_with_spans`` is the same object as
``model.tokenize_with_spans``), so every call site is seen; ``uninstall``
puts the originals back. Spans are kept in memory as tuples
``(span_id, name, start, end, parent_id, review_id)`` and written out once,
at the end of a run.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent, so the per-review work
``run_experiment`` fans out to its pool is charged to it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# Every public function the per-layer metrics name, as "<module>.<function>".
TARGETS = (
    "corpus.load_corpus",
    "corpus.filter_by_length",
    "corpus.stratified_review_sample",
    "corpus.srswor",
    "model.tokenize_with_spans",
    "model.tokenize",
    "model.locate_span",
    "annotation.load_annotations",
    "annotation.aggregate_gold",
    "annotation.build_agreement_report",
    "annotation.trigger_token_kappa",
    "annotation.fleiss_kappa",
    "annotation.gold_statistics",
    "annotation.load_gold",
    "prompting.build_prompt",
    "prompting.render_messages",
    "inference.run_experiment",
    "inference.request_completion",
    "inference.read_ledger",
    "extraction.parse_output",
    "extraction.extract_structured_block",
    "metrics.score_predictions",
    "metrics.emotion_prf",
    "metrics.trigger_em_pm",
    "metrics.align_and_average_rouge",
    "metrics.confusion_matrix",
    "metrics.rougeL",
    "jsonio.write_jsonl",
    "jsonio.dump_json",
)


PACKAGE = "eotbench"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[tuple[int, str | None]] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []
        self._review_type = None

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.last_review = None
        return stack

    @contextmanager
    def span(self, name: str, review_id: str | None = None):
        stack = self._stack()
        if stack:
            parent_id, parent_review = stack[-1]
        else:
            # a worker thread: hang under whatever the main thread has open
            top = self._main_stack[-1:] or [(None, None)]
            parent_id, parent_review = top[0][0], getattr(self._local, "last_review", None)
        if review_id is None:
            review_id = parent_review
        elif stack is not self._main_stack:
            self._local.last_review = review_id
        span_id = next(self._ids)
        stack.append((span_id, review_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent_id, review_id))

    def _wrap(self, name: str, fn):
        review_type = self._review_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            review_id = next((a.review_id for a in args if isinstance(a, review_type)), None)
            with self.span(name, review_id):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self._review_type = sys.modules[f"{PACKAGE}.model"].Review
        for target in TARGETS:
            module_name, fn_name = target.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, review_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "review_id": review_id}) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and per-call durations."""
    by_name: dict[str, dict] = {}
    for _, name, start, end, _, _ in spans:
        entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["durations"].append(end - start)
    return by_name


def self_seconds(spans: list[tuple], name: str) -> float:
    """Total time of the spans called ``name`` minus the part their children cover."""
    own = {span_id: (start, end) for span_id, n, start, end, _, _ in spans if n == name}
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent in own:
            children.setdefault(parent, []).append((start, end))
    total = 0.0
    for span_id, (start, end) in own.items():
        covered = [(max(a, start), min(b, end)) for a, b in children.get(span_id, ()) if b > start and a < end]
        total += (end - start) - _union_length(covered)
    return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
