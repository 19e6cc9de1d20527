"""The README's "Library use" example runs as written, so a changed name or
return shape cannot leave it stale."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_the_library_use_example_runs(monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    monkeypatch.chdir(ROOT)  # the example reads a plan by its path in the repository
    namespace: dict = {}
    exec(compile(block, f"{README}: Library use", "exec"), namespace)
    assert namespace["output"].review_id == "r1"
    assert namespace["scores"]["emotion"]["f1"] == 1.0
    assert namespace["plan"]["seed"] == 3
