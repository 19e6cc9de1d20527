"""The names the benchmark reaches into eotbench by.

``bench/tracing.py`` wraps each of its ``TARGETS`` by name, so a renamed
function crashes a traced bench run; ``bench/checks.py`` reads score rows in
its own ``SCORE_KEYS`` order. Both files are loaded here read-only.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from eotbench import metrics

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
checks = _load("checks")


@pytest.mark.parametrize("target", tracing.TARGETS)
def test_every_traced_target_is_a_function_of_eotbench(target):
    module_name, function_name = target.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    assert callable(getattr(module, function_name, None)), target


def test_checks_read_the_score_columns_in_the_cli_order():
    assert checks.SCORE_KEYS == metrics.SCORE_COLUMNS
