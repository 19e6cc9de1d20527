"""Every top-level function and class of ``src/eotbench`` is reached from
``cli.main``, or is on a short written allow-list.

The scan reads the source with ``ast`` and imports nothing. A name used in a
function or class body reaches the function or class it names in the same
module, one imported by name (``from .model import tokenize``) or one read
off an imported module (``inference.run_experiment``). A module's top-level
statements run on import, so what they use is reached as well. Names are
matched without scopes: a local variable named like a function reaches it,
so the scan can miss dead code but never reports live code.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_bench_contract import tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "eotbench"

# The acceptance tests' fixed points, with what they call.
ACCEPTANCE = (
    "annotation.cohen_kappa", "annotation.fleiss_kappa", "annotation.trigger_token_kappa",
    "metrics.rouge1", "metrics.rougeL",
)


def _graph() -> tuple[dict[str, set[str]], set[str]]:
    """Each top-level definition's uses, keyed "<module>.<name>", and the uses
    of every module's top-level statements."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, set[str]] = {}
    on_import: set[str] = set()
    for module, tree in trees.items():
        names = {node.name: f"{module}.{node.name}" for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        modules: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in trees:
                        modules[alias.asname or alias.name] = alias.name
                    elif node.module is not None:
                        names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

        def used(node: ast.AST) -> set[str]:
            found = set()
            for child in ast.walk(node):
                if isinstance(child, ast.Name) and child.id in names:
                    found.add(names[child.id])
                elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                      and child.value.id in modules):
                    found.add(f"{modules[child.value.id]}.{child.attr}")
            return found

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                uses[f"{module}.{node.name}"] = used(node)
            else:
                on_import |= used(node)
    return uses, on_import


def _closure(uses: dict[str, set[str]], roots) -> set[str]:
    reached, todo = set(), [root for root in roots if root in uses]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(used for used in uses[name] if used in uses)
    return reached


def test_every_definition_is_reached_from_main_or_allowed():
    uses, on_import = _graph()
    unreached = set(uses) - _closure(uses, {"cli.main", *on_import})
    allowed = _closure(uses, {*ACCEPTANCE, *tracing.TARGETS})
    assert sorted(unreached - allowed) == []
