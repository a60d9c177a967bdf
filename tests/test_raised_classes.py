"""Every error the package raises is one of its own classes.

Outside ``cli.py``, whose usage error is private to it, each ``raise``
under ``src/aespace`` names a class defined in ``errors.py``, so every
failure the package detects is an ``AespaceError`` that the CLI maps to an
exit code. A bare ``raise`` re-raises what it caught and is allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aespace"


def _error_classes():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _raised_class(exc):
    """Source text of the class a ``raise`` names, with or without a call."""
    return ast.unparse(exc.func if isinstance(exc, ast.Call) else exc)


def test_every_raise_names_a_package_error():
    allowed = _error_classes()
    foreign = [
        f"{path.name}:{node.lineno}: {_raised_class(node.exc)}"
        for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_class(node.exc) not in allowed
    ]
    assert foreign == []
