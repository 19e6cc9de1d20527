from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from eotbench.model import Domain, EotOutput, Review, TriggerSpan
from eotbench.prompting import PROMPT_VERSION

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
# JSON text nested deeper than the decoder recurses: decoding raises RecursionError
DEEPLY_NESTED = "[" * 200_000


def src_env() -> dict[str, str]:
    """The environment for a child Python that imports eotbench from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def over_long_integer() -> str:
    """JSON integer text with more digits than ``int`` converts from a string,
    which ``json`` rejects with a plain ValueError; skips where there is no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integer text of any length")
    return "9" * (limit + 1)


def make_review(
    review_id: str = "r1",
    text: str = "The blender works perfectly and arrived two days early.",
    domain: Domain = Domain.HOME,
    item_id: str = "item-1",
    timestamp: int | None = None,
) -> Review:
    return Review(review_id=review_id, text=text, domain=domain, item_id=item_id, timestamp=timestamp)


def ledger_entry(review_id: str = "r01", raw_response: str = "{}", **fields) -> dict:
    """A ledger line's dict, in LEDGER_SPEC order: an Ok zero-shot entry of
    run "r" under the current prompt version, unless ``fields`` say otherwise."""
    return {
        "run_id": "r", "review_id": review_id, "strategy": "zs", "prompt_version": PROMPT_VERSION,
        "raw_response": raw_response, "latency_ms": 5, "attempt_count": 1, "status": "Ok", "error": None, **fields,
    }


@pytest.fixture
def sample_review() -> Review:
    return make_review()


def assert_extractive(text: str, found: TriggerSpan | EotOutput) -> None:
    """Each trigger span of ``found`` reads back from ``text`` at its offsets."""
    spans = [found] if isinstance(found, TriggerSpan) else [s for pair in found.pairs for s in pair.triggers]
    for s in spans:
        assert text[s.start : s.end] == s.text, f"span [{s.start}, {s.end}) does not read back as {s.text!r}"
