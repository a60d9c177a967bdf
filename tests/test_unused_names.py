"""Every function, class and method under ``src/aespace`` has a caller there.

A module-level function or class, or a non-dunder method, whose name never
appears as an ``ast.Name`` or ``ast.Attribute`` anywhere in the package is
code no product path runs. The only such names allowed are listed below,
each with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aespace"

ALLOWED = {
    "score_histogram": "acceptance criterion 2 reads the score distribution through it",
    "estimate_cardinality": "acceptance criterion 3 estimates the triplet-space size with it",
    "backward": "acceptance criterion 4 checks its gradients against finite differences",
    "directional_triplet_loss": "acceptance criterion 4 checks the one-triplet loss with it",
    "kendall_tau": "acceptance criterion 5 and the collection benchmark call it",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """(qualified name, bare name) of each top-level def and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                is_def = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_def and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _used_names(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_no_uncalled_definitions():
    trees = _trees()
    used = _used_names(trees)
    unused = {
        f"{module}:{qualified}": bare
        for module, tree in trees.items() if module != "__init__.py"
        for qualified, bare in _definitions(tree) if bare not in used
    }
    assert sorted(name for name, bare in unused.items() if bare not in ALLOWED) == []


def test_allowlist_names_still_exist():
    trees = _trees()
    defined = {bare for module, tree in trees.items() if module != "__init__.py"
               for _, bare in _definitions(tree)}
    assert sorted(set(ALLOWED) - defined) == []
