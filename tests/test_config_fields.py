"""Every config field is set by some command-line path, and is checked once.

A dataclass field that no constructor call in ``src/aespace/cli.py`` passes
by keyword is a knob only tests can turn: it widens the config and its
validation without changing what a user can run. The only such fields
allowed are listed below, each with the reason it stays.

The CLI reports every ``ConfigError`` as a usage error (exit 2), so one
raised from a runtime check would turn an exit 1 into an exit 2. A config
checks its fields in ``__post_init__``; any other function that raises
``ConfigError`` is listed below with the reason it may.
"""

import ast
import dataclasses
from pathlib import Path

from aespace.loss import LossConfig
from aespace.sampler import SamplerConfig
from aespace.synth import SynthConfig
from aespace.trainer import TrainConfig
from aespace.video import KalmanConfig, PeakConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "aespace"
CLI = SRC / "cli.py"

CONFIGS = (TrainConfig, LossConfig, SamplerConfig, SynthConfig, KalmanConfig, PeakConfig)

ALLOWED = {
    "KalmanConfig.p0": "acceptance criterion 7 sets it",
    "KalmanConfig.x0": "acceptance criterion 7 sets it",
}

RAISE_ALLOWED = {
    "encoder.init": "its dims are a TrainConfig's, already valid, plus the dataset width",
}


def _keywords_by_constructor():
    """{class name: keyword names passed to it} over every call in cli.py."""
    passed = {}
    for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    return passed


def test_every_config_field_is_set_by_the_cli():
    passed = _keywords_by_constructor()
    unset = [
        f"{cls.__name__}.{f.name}"
        for cls in CONFIGS for f in dataclasses.fields(cls)
        if f.name not in passed.get(cls.__name__, set())
    ]
    assert sorted(set(unset) - set(ALLOWED)) == []


def test_allowlist_fields_still_exist():
    defined = {f"{cls.__name__}.{f.name}" for cls in CONFIGS for f in dataclasses.fields(cls)}
    assert sorted(set(ALLOWED) - defined) == []


def _config_error_raisers():
    """'module.function' of the innermost function around each ``raise ConfigError``."""
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(exc, "id", getattr(exc, "attr", None)) != "ConfigError":
                continue
            while node in parent and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = parent[node]
            raisers.append(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return raisers


def test_config_error_is_raised_only_while_a_config_is_built():
    raisers = _config_error_raisers()
    stray = [r for r in raisers if not r.endswith(".__post_init__") and r not in RAISE_ALLOWED]
    assert stray == []
    assert sorted(set(RAISE_ALLOWED) - set(raisers)) == []
